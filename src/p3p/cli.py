"""Command-line front end: key management, encryption, signatures, and the
networked three-pass protocol.

Messages on the command line are hex-encoded residues by default; --text
switches to UTF-8 and, where the message must live in Z_n, errors out if
the encoded integer does not fit. Any command that draws randomness is
deterministic under --seed and draws from OS entropy without it;
3pass-listen --seed S seeds its session i with S + i.

Exit codes: 0 success, 1 usage, 2 crypto/protocol error, 130 interrupted
(Ctrl-C, with one ``error: interrupted`` line).

A command imports only the modules it runs: handlers import ``signature``,
``trapdoor``, ``threepass`` and ``net`` themselves, so ``encrypt`` never
loads sockets. They call through the module (``signature.sign(...)``), so
a wrapper set on a module attribute after import still sees every call.
"""

import argparse
import math
import os
import random
import sys
from typing import TYPE_CHECKING

from . import keyfile, numtheory as nt, paillier
from .encoding import int_to_bytes
from .errors import P3PError

if TYPE_CHECKING:
    from .signature import Signature

USAGE_EXIT = 1
ERROR_EXIT = 2
INTERRUPT_EXIT = 130  # 128 + SIGINT, as a shell reports a process it interrupted


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; our contract reserves 2 for
    # crypto/protocol failures and uses 1 for usage.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _bounded(convert, admits, rule: str):
    """argparse type: convert the text, then require admits(value)."""

    def parse(text: str):
        error = argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        try:
            value = convert(text)
        except ValueError:
            raise error from None
        if not admits(value):
            raise error
        return value

    return parse


def _seed_rng(args) -> nt.RandomSource | None:
    return None if args.seed is None else random.Random(args.seed)


def _hex_bytes(text: str, what: str) -> bytes:
    """The one command-line hex rule: what bytes.fromhex reads, after an odd
    digit count gets a leading zero. No 0x prefix, no underscores."""
    try:
        return bytes.fromhex("0" * (len(text) % 2) + text)
    except ValueError:
        raise _UsageError(f"{what} must be hexadecimal, got {text!r}") from None


def _parse_int_arg(text: str, what: str) -> int:
    if not text:
        raise _UsageError(f"{what} must not be empty")
    return int.from_bytes(_hex_bytes(text, what), "big")


def _message_arg(args, pk: paillier.PublicKey) -> int:
    """--message as a residue: hex, or UTF-8 text that must fit below n."""
    if not args.text:
        return _parse_int_arg(args.message, "message")
    value = int.from_bytes(args.message.encode("utf-8"), "big")
    if value >= pk.n:
        raise P3PError("encoded text does not fit below the modulus")
    return value


def _message_bytes(args) -> bytes:
    """--message as bytes to hash: UTF-8 text, or hex."""
    if args.text:
        return args.message.encode("utf-8")
    return _hex_bytes(args.message, "message")


def _ciphertext_arg(args, sk: paillier.PrivateKey) -> paillier.Ciphertext:
    return paillier.Ciphertext(
        _parse_int_arg(args.ciphertext, "ciphertext"), sk.public.fingerprint
    )


def _int_out(args, value: int) -> str:
    if args.text:
        try:
            return int_to_bytes(value).decode("utf-8")
        except UnicodeDecodeError:
            raise P3PError("recovered bytes are not valid UTF-8") from None
    return format(value, "x")


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise P3PError(f"cannot read {path}: {exc}") from None


def _load_public(path: str) -> paillier.PublicKey:
    return paillier._public(keyfile.parse_key(_read(path)))


def _load_private(path: str) -> paillier.PrivateKey:
    key = keyfile.parse_key(_read(path))
    if not isinstance(key, paillier.PrivateKey):
        raise P3PError(f"{path} holds a public key; a private key is needed")
    return key


def _write(path: str, data: bytes, private: bool = False) -> None:
    # Private files are created 0600; chmod narrows one that already existed.
    mode = 0o600 if private else 0o666
    try:
        with open(path, "wb", opener=lambda p, flags: os.open(p, flags, mode)) as fh:
            if private:
                try:
                    os.chmod(path, 0o600)
                except OSError:
                    pass  # not every platform supports permission bits
            fh.write(data)
    except OSError as exc:
        raise P3PError(f"cannot write {path}: {exc}") from None


def _write_signature(path: str, sig: "Signature") -> int:
    _write(path, keyfile.serialize_signature(sig))
    print(f"wrote {path}")
    return 0


def _cmd_keygen(args) -> int:
    sk = paillier.keygen(args.bits // 2, _seed_rng(args))
    _write(f"{args.out}.pub", keyfile.serialize_key(sk.public))
    _write(f"{args.out}.key", keyfile.serialize_key(sk), private=True)
    print(f"wrote {args.out}.pub and {args.out}.key")
    return 0


def _cmd_encrypt(args) -> int:
    pk = _load_public(args.key)
    m = _message_arg(args, pk)
    print(format(paillier.encrypt(pk, m, _seed_rng(args)).value, "x"))
    return 0


def _cmd_decrypt(args) -> int:
    sk = _load_private(args.key)
    print(_int_out(args, paillier.decrypt(sk, _ciphertext_arg(args, sk))))
    return 0


def _cmd_tp_encrypt(args) -> int:
    from . import trapdoor

    pk = _load_public(args.key)
    print(format(trapdoor.tp_encrypt(pk, _parse_int_arg(args.message, "message")).value, "x"))
    return 0


def _cmd_tp_decrypt(args) -> int:
    from . import trapdoor

    sk = _load_private(args.key)
    print(format(trapdoor.tp_decrypt(sk, _ciphertext_arg(args, sk)), "x"))
    return 0


def _cmd_sign(args) -> int:
    from . import signature

    sk = _load_private(args.key)
    return _write_signature(args.out, signature.sign(sk, _message_bytes(args)))


def _cmd_verify(args) -> int:
    from . import signature

    pk = _load_public(args.key)
    message = _message_bytes(args)
    sig = keyfile.parse_signature(_read(args.sig))
    valid = signature.verify_message(pk, message, sig)
    print("valid" if valid else "invalid")
    return 0 if valid else ERROR_EXIT


def _cmd_sign_raw(args) -> int:
    from . import signature

    sk = _load_private(args.key)
    m = _parse_int_arg(args.message, "message")
    return _write_signature(args.out, signature.sign_raw(sk, m))


def _cmd_blind(args) -> int:
    from . import signature

    pk = _load_public(args.key)
    blinded, secret = signature.blind(
        pk, _parse_int_arg(args.message, "message"), _seed_rng(args)
    )
    _write(args.secret_out, keyfile.serialize_blinding_secret(secret), private=True)
    print(format(blinded, "x"))
    return 0


def _cmd_unblind(args) -> int:
    from . import signature

    pk = _load_public(args.key)
    sig = keyfile.parse_signature(_read(args.sig))
    secret = keyfile.parse_blinding_secret(_read(args.secret), pk.n)
    return _write_signature(args.out, signature.unblind(sig, secret, pk.n))


def _cmd_listen(args) -> int:
    from . import net

    shown = f"[{args.host}]" if ":" in args.host else args.host  # as --addr takes it
    net.serve_three_pass(
        port=args.port,
        host=args.host,
        sessions=args.count,
        parallel=args.parallel,
        timeout=args.timeout or net.DEFAULT_TIMEOUT,
        seed=args.seed,
        on_listening=lambda port: print(f"listening {shown}:{port}", flush=True),
        on_outcome=lambda outcome: print(
            f"recovered {_int_out(args, outcome.recovered)}", flush=True
        ),
    )
    return 0


def _cmd_send(args) -> int:
    from . import net, threepass

    host, _, port_text = args.addr.rpartition(":")
    if host.startswith("[") and host.endswith("]"):  # [IPv6]:PORT
        host = host[1:-1]
    elif ":" in host:  # an unbracketed IPv6 host cannot be told from its port
        host = ""
    if not host:
        raise _UsageError("--addr must look like HOST:PORT, or [IPv6]:PORT")
    try:
        port = int(port_text)
    except ValueError:
        raise _UsageError(f"port must be an integer, got {port_text!r}") from None
    if not 1 <= port <= 65535:
        raise _UsageError(f"port must be in 1..65535, got {port}")
    sk = _load_private(args.key)
    session = threepass.PaillierInitiatorSession(sk, _message_arg(args, sk.public))
    outcome = net.send_over_tcp(
        host, port, session, _seed_rng(args), args.timeout or net.DEFAULT_TIMEOUT
    )
    print(f"pass1 {outcome.pass1:x}")
    print(f"pass2 {outcome.pass2:x}")
    print(f"pass3 {outcome.pass3:x}")
    return 0


def _cmd_shamir_demo(args) -> int:
    from . import threepass

    rng = _seed_rng(args)

    def party(forced_e):
        if forced_e is None:
            return threepass.shamir_keygen(args.prime, rng)
        return threepass.shamir_party(args.prime, forced_e)

    transcript = threepass.shamir_exchange(
        party(args.exp_a), party(args.exp_b), args.message
    )
    print(f"pass1 {transcript.pass1}")
    print(f"pass2 {transcript.pass2}")
    print(f"pass3 {transcript.pass3}")
    print(f"recovered {transcript.recovered}")
    return 0


# Options shared by several subcommands, each defined once.
_SHARED = dict.fromkeys(
    ["--key", "--message", "--ciphertext", "--out", "--sig", "--secret", "--secret-out"],
    {"required": True},
) | {
    "--text": {"action": "store_true", "help": "treat message as UTF-8 text"},
    "--seed": {"type": int, "default": None, "help": "deterministic randomness"},
    "--timeout": {
        "type": _bounded(float, lambda t: 0 < t < math.inf, "a finite number > 0"),
        "default": None,  # the handler falls back to net.DEFAULT_TIMEOUT
        "help": "seconds a whole three-pass session may take, once connected",
    },
}

# (name, help, handler, options); an option is a shared flag or (flag, kwargs).
_COMMANDS = (
    ("keygen", "generate a keypair into PREFIX.pub/.key", _cmd_keygen, [
        ("--bits", {"type": _bounded(int, lambda b: b >= 8, "at least 8"),
                    "default": 2048,
                    "help": "modulus size, rounded down to even; n may have one bit less"
                    " (default 2048)"}),
        ("--out", {"required": True, "metavar": "PREFIX"}),
        "--seed",
    ]),
    ("encrypt", "encrypt a message", _cmd_encrypt,
     ["--key", "--message", "--text", "--seed"]),
    ("decrypt", "decrypt a ciphertext", _cmd_decrypt, ["--key", "--ciphertext", "--text"]),
    ("tp-encrypt", "deterministic wide-message encryption", _cmd_tp_encrypt,
     ["--key", "--message"]),
    ("tp-decrypt", "invert tp-encrypt", _cmd_tp_decrypt, ["--key", "--ciphertext"]),
    ("sign", "hash and sign a message", _cmd_sign, ["--key", "--message", "--out", "--text"]),
    ("verify", "verify a signature file", _cmd_verify,
     ["--key", "--message", "--sig", "--text"]),
    ("sign-raw", "sign a residue without hashing", _cmd_sign_raw,
     ["--key", "--message", "--out"]),
    ("blind", "blind a residue for remote signing", _cmd_blind,
     ["--key", "--message", "--secret-out", "--seed"]),
    ("unblind", "turn a blinded signature into a real one", _cmd_unblind,
     ["--key", "--sig", "--secret", "--out"]),
    ("3pass-listen", "run the responder on a TCP port", _cmd_listen, [
        ("--port", {"type": _bounded(int, lambda p: 0 <= p <= 65535, "in 0..65535"),
                    "required": True, "help": "0 picks a free port"}),
        ("--host", {"default": "127.0.0.1"}),
        ("--count", {"type": _bounded(int, lambda c: c >= 1, "at least 1"), "default": 1,
                     "help": "sessions to serve"}),
        ("--parallel", {"action": "store_true", "help": "run up to 16 sessions at once"}),
        "--timeout", "--text", "--seed",
    ]),
    ("3pass-send", "send a message to a listening responder", _cmd_send, [
        ("--addr", {"required": True, "metavar": "HOST:PORT"}),
        "--key", "--message", "--timeout", "--text", "--seed",
    ]),
    ("shamir-demo", "run the exponentiation variant locally", _cmd_shamir_demo, [
        ("--prime", {"type": int, "required": True}),
        ("--message", {"type": int, "required": True}),
        ("--exp-a", {"type": int, "default": None, "help": "force A's exponent"}),
        ("--exp-b", {"type": int, "default": None, "help": "force B's exponent"}),
        "--seed",
    ]),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names one.

    One subparser is enough to parse a command line that starts with its
    command, and building the other twelve is start-up time. With one
    subparser, every choice is spelled out as the metavar, so usage lines
    read the same either way. With all of them the metavar stays unset,
    because argparse also names an invalid choice's argument by it.
    """
    parser = _Parser(prog="p3p", description=__doc__.splitlines()[0])
    commands = [c for c in _COMMANDS if c[0] == command] or _COMMANDS
    metavar = None
    if len(commands) == 1:
        metavar = "{" + ",".join(name for name, *_ in _COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, handler, options in commands:
        p = sub.add_parser(name, help=help_text)
        for option in options:
            flag, kwargs = (option, _SHARED[option]) if isinstance(option, str) else option
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except P3PError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR_EXIT
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return INTERRUPT_EXIT


if __name__ == "__main__":
    sys.exit(main())
