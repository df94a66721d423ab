#!/usr/bin/env python3
"""Check the private-key core on an interpreter that has no pytest.

    PYTHONPATH=src python scripts/cross_version_check.py

Exhaustively at n = 15 and 35, for the base g = n + 1: every unit w splits
as w = g^s1 * s2^n mod n^2, and the key
owner's x^n mod n^2 equals pow(x, n, n^2) for every x < n^2. At n = 15 it
runs the known blind -> sign_raw -> unblind chain, and the initiator's reveal
rule for every unit message, unit nonce and unit second pass: a second pass
is revealed iff it is c^k mod n^2 for the first pass c and some k < n. It
checks that importing the CLI, net, signature and trapdoor modules leaves
``dataclasses`` unloaded, and the repr, equality, hash and pickle round trip
of one instance of each value type. Then it hashes serialize_key of seeded
256-bit keys, the frames of one seeded three-pass session over a memory
channel pair at a 128-bit key, and numtheory's x^e mod m^2 kernel over
seeded (x, e, m) triples from 64 to 2048 bits, each value first checked
against the built-in pow, and compares each digest with the one Python
3.11 gives. Prints one line per check; exits 1 on the first failure.
"""

import hashlib
import math
import pickle
import random
import subprocess
import sys
import threading

from p3p import keyfile, net, paillier, signature, threepass, wire
from p3p import numtheory as nt
from p3p.errors import MalformedMessage

# sha256 over serialize_key of keygen(128, Random(seed)) for seeds 0-3, as
# Python 3.11.7 computes it
SEEDED_KEYS_SHA256 = "a386f2349154f7b325c6abfd1610823af84ec2aa5916344c7e8edbfc0bd5cc21"
# sha256 over the frames of seeded_session_frames(), as Python 3.11.7 computes it
SEEDED_SESSION_SHA256 = "970dbe4a67fbbe934418f8042c364207a755ba3081120ed2cc9d1de2b252828d"
# sha256 over the values of seeded_kernel_values(), as Python 3.11.7 computes it
SEEDED_KERNEL_SHA256 = "589972e9c25a6f2067ff52cd5099c22008032db94572bed9ceb5b2dc0f0e4f95"


def check_toy_key(sk):
    n, n2, g = sk.public.n, sk.public.n_squared, sk.public.g
    for w in range(1, n2):
        if math.gcd(w, n) != 1:
            continue
        s1, s2 = paillier.split_residue(sk, w)
        if not (0 <= s1 < n and 0 < s2 < n and pow(g, s1, n2) * pow(s2, n, n2) % n2 == w):
            return f"split_residue({w}) = {(s1, s2)}"
    for x in range(n2):
        if paillier._nth_power(sk, x) != pow(x, n, n2):
            return f"_nth_power({x})"
    return None


class Draws:
    """A random source that returns the given values in order."""

    def __init__(self, *values):
        self.values = list(values)

    def randrange(self, start, stop=None):
        return self.values.pop(0)


def check_blind_chain(sk):
    pk = sk.public
    blinded, secret = signature.blind(pk, 83, Draws(2))
    blinded_sig = signature.sign_raw(sk, blinded)
    unblinded = signature.unblind(blinded_sig, secret, pk.n)
    chain = (blinded, (blinded_sig.s1, blinded_sig.s2), (unblinded.s1, unblinded.s2))
    if chain != (169, (7, 4), (7, 2)):
        return f"blind chain {chain}"
    return None


def check_reveal_rule(sk):
    n, n2 = sk.public.n, sk.public.n_squared
    units = [w for w in range(1, n2) if math.gcd(w, n) == 1]
    small_units = [v for v in units if v < n]
    for m in small_units:
        for x in small_units:
            c = paillier.encrypt_with_nonce(sk.public, m, x).value
            powers = {pow(c, k, n2) for k in range(n)}
            for w in units:
                session = threepass.PaillierInitiatorSession(sk, m)
                session.step1_send(Draws(x))
                try:
                    session.step3_reveal(w)
                    revealed = True
                except MalformedMessage:
                    revealed = False
                if revealed != (w in powers):
                    return f"reveal(m = {m}, x = {x}, w = {w})"
    return None


def check_no_dataclasses():
    code = ("import sys, p3p.cli, p3p.net, p3p.signature, p3p.trapdoor; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if done.returncode != 0 or done.stdout.strip() != "[]":
        return f"importing p3p loaded {done.stdout.strip() or done.stderr.strip()}"
    return None


def check_value_types(sk):
    """One instance of each value type against its pinned repr, a twin built
    from the same fields, and its pickle round trip."""
    pk = sk.public
    party_a, party_b = threepass.ShamirParty(23, 5, 9), threepass.ShamirParty(23, 7, 19)
    cases = [
        (pk, paillier.PublicKey(n=15, g=16), "<PublicKey 4-bit dc0e9c3658a1>"),
        (sk.halves[0], paillier._Half(3, 9, 1, 1, 1, 100), None),
        (sk, paillier.PrivateKey(p=3, q=5, g=16),
         "<PrivateKey for <PublicKey 4-bit dc0e9c3658a1>>"),
        (paillier.encrypt_with_nonce(pk, 7, 2), paillier.Ciphertext(83, pk.fingerprint),
         "Ciphertext(value=83)"),
        (signature.Signature(7, 2), signature.Signature(s1=7, s2=2), "Signature(s1=7, s2=2)"),
        (signature.BlindingSecret(2), signature.BlindingSecret(x=2), "BlindingSecret()"),
        (wire.pass_message(wire.MsgType.PASS1, 42), wire.WireMessage(wire.MsgType.PASS1, b"*"),
         "WireMessage(msg_type=<MsgType.PASS1: 1>, payload=b'*')"),
        (party_a, threepass.ShamirParty(prime=23, e=5, d=9), "ShamirParty(prime=23)"),
        (threepass.shamir_exchange(party_a, party_b, 3), threepass.ShamirTranscript(13, 9, 2, 3),
         "ShamirTranscript(pass1=13, pass2=9, pass3=2, recovered=3)"),
        (net.InitiatorOutcome(1, 2, 3, (b"a",)), net.InitiatorOutcome(1, 2, 3, (b"a",)),
         "InitiatorOutcome(pass1=1, pass2=2, pass3=3, frames=(b'a',))"),
        (net.ResponderOutcome(4, 1, 2, 3, ()), net.ResponderOutcome(4, 1, 2, 3, ()),
         "ResponderOutcome(recovered=4, pass1=1, pass2=2, pass3=3, frames=())"),
    ]
    for value, twin, shown in cases:
        name = type(value).__name__
        if shown is not None and repr(value) != shown:
            return f"repr {repr(value)}"
        if value != twin or hash(value) != hash(twin) or value == object():
            return f"{name} equality or hash"
        if pickle.loads(pickle.dumps(value)) != value:
            return f"{name} pickle round trip"
    return None


def seeded_keys_digest():
    digest = hashlib.sha256()
    for seed in range(4):
        digest.update(keyfile.serialize_key(paillier.keygen(128, random.Random(seed))))
    return digest.hexdigest()


def seeded_session_frames():
    """The frames of one session: key keygen(64, Random(0)), message 12345,
    initiator Random(1), responder Random(2)."""
    sk = paillier.keygen(64, random.Random(0))
    init_channel, resp_channel = net.memory_channel_pair(timeout=10.0)
    responder = threading.Thread(
        target=net.run_responder, args=(resp_channel, random.Random(2))
    )
    responder.start()
    session = threepass.PaillierInitiatorSession(sk, 12345)
    outcome = net.run_initiator(init_channel, session, random.Random(1))
    responder.join()
    return b"".join(outcome.frames)


def seeded_kernel_values():
    """x^e mod m^2 by the kernel for four triples (x, e, m) per size of m,
    x in [-m^2, 2m^2) and e as wide as m, from Random(0), hashed; or the
    size at which one differs from the built-in pow."""
    rng = random.Random(0)
    digest = hashlib.sha256()
    for bits in (64, 128, 256, 512, 1024, 2048):
        for _ in range(4):
            m = rng.getrandbits(bits) | 1 << (bits - 1)
            x, e = rng.randrange(-m * m, 2 * m * m), rng.getrandbits(bits)
            value = nt._pow_mod_square(x, e, m)
            if value != pow(x, e, m * m):
                return f"differs from pow at {bits} bits"
            digest.update(value.to_bytes(bits // 4, "big"))
    return digest.hexdigest()


def main():
    version = sys.version.split()[0]
    for p, q in ((3, 5), (5, 7)):
        failure = check_toy_key(paillier.from_primes(p, q))
        if failure:
            print(f"{version}: FAIL n = {p * q}: {failure}")
            return 1
        print(f"{version}: ok n = {p * q}")
    key15 = paillier.from_primes(3, 5)
    for name, check in (
        ("blind chain", check_blind_chain),
        ("reveal rule", check_reveal_rule),
        ("value types", check_value_types),
    ):
        failure = check(key15)
        if failure:
            print(f"{version}: FAIL n = 15, {name}: {failure}")
            return 1
        print(f"{version}: ok n = 15, {name}")
    failure = check_no_dataclasses()
    if failure:
        print(f"{version}: FAIL {failure}")
        return 1
    print(f"{version}: ok importing p3p leaves dataclasses unloaded")
    digest = seeded_keys_digest()
    if digest != SEEDED_KEYS_SHA256:
        print(f"{version}: FAIL seeded serialize_key digest {digest}")
        return 1
    print(f"{version}: ok seeded serialize_key digest {digest[:16]}")
    digest = hashlib.sha256(seeded_session_frames()).hexdigest()
    if digest != SEEDED_SESSION_SHA256:
        print(f"{version}: FAIL seeded session frames digest {digest}")
        return 1
    print(f"{version}: ok seeded session frames digest {digest[:16]}")
    digest = seeded_kernel_values()
    if digest != SEEDED_KERNEL_SHA256:
        print(f"{version}: FAIL seeded x^e mod m^2 digest {digest}")
        return 1
    print(f"{version}: ok seeded x^e mod m^2 digest {digest[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
