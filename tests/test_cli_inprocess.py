"""CLI paths exercised in-process through ``cli.main``: argument parsing,
input files, exit codes and the permissions of private files."""

import os
import socket
import stat

import pytest

from p3p import cli


@pytest.fixture(scope="module")
def keypair(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("keys") / "k"
    assert cli.main(["keygen", "--bits", "64", "--seed", "7", "--out", str(prefix)]) == 0
    return prefix


def sign_then_verify(keypair, tmp_path, sign_message, verify_message, *flags):
    sig = str(tmp_path / "m.sig")
    key, pub = f"{keypair}.key", f"{keypair}.pub"
    assert cli.main(["sign", "--key", key, "--message", sign_message, "--out", sig, *flags]) == 0
    return cli.main(["verify", "--key", pub, "--message", verify_message, "--sig", sig, *flags])


def test_sign_verify_text(keypair, tmp_path, capsys):
    assert sign_then_verify(keypair, tmp_path, "hello", "hello", "--text") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "valid"
    assert sign_then_verify(keypair, tmp_path, "hello", "hellO", "--text") == 2
    assert capsys.readouterr().out.splitlines()[-1] == "invalid"


def test_sign_verify_odd_length_hex_is_left_padded(keypair, tmp_path, capsys):
    assert sign_then_verify(keypair, tmp_path, "abc", "0abc") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "valid"


def test_sign_rejects_non_hex_message(keypair, tmp_path, capsys):
    code = cli.main(["sign", "--key", f"{keypair}.key", "--message", "zz",
                     "--out", str(tmp_path / "m.sig")])
    assert code == 1
    assert "hexadecimal" in capsys.readouterr().err
    assert not (tmp_path / "m.sig").exists()


def test_verify_missing_signature_file(keypair, tmp_path, capsys):
    missing = tmp_path / "nope.sig"
    code = cli.main(["verify", "--key", f"{keypair}.pub", "--message", "2a",
                     "--sig", str(missing)])
    assert code == 2
    assert f"cannot read {missing}" in capsys.readouterr().err


def test_unblind_missing_secret_file(keypair, tmp_path, capsys):
    sig = str(tmp_path / "blind.sig")
    assert cli.main(["sign-raw", "--key", f"{keypair}.key", "--message", "2a",
                     "--out", sig]) == 0
    capsys.readouterr()
    code = cli.main(["unblind", "--key", f"{keypair}.pub", "--sig", sig,
                     "--secret", str(tmp_path / "nope.secret"),
                     "--out", str(tmp_path / "m.sig")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err
    assert not (tmp_path / "m.sig").exists()


def test_sign_to_missing_directory_is_an_error(keypair, tmp_path, capsys):
    out = tmp_path / "missing" / "m.sig"
    code = cli.main(["sign", "--key", f"{keypair}.key", "--message", "2a",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot write {out}: ")


def test_keygen_to_missing_directory_is_an_error(tmp_path, capsys):
    prefix = tmp_path / "missing" / "k"
    code = cli.main(["keygen", "--bits", "64", "--seed", "7", "--out", str(prefix)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot write {prefix}.pub: ")


def test_listen_on_a_port_in_use_is_an_error(capsys):
    held = socket.create_server(("127.0.0.1", 0))
    try:
        port = held.getsockname()[1]
        code = cli.main(["3pass-listen", "--port", str(port)])
    finally:
        held.close()
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot listen on 127.0.0.1:{port}: ")


def test_send_strips_the_brackets_of_an_ipv6_address(keypair, monkeypatch):
    from p3p import net

    calls = []

    def spy(host, port, *rest):
        calls.append((host, port))
        return net.InitiatorOutcome(pass1=1, pass2=2, pass3=3, frames=())

    monkeypatch.setattr(net, "send_over_tcp", spy)
    code = cli.main(["3pass-send", "--addr", "[::1]:5", "--key", f"{keypair}.key",
                     "--message", "2a"])
    assert code == 0
    assert calls == [("::1", 5)]


def test_send_rejects_address_without_port(keypair, capsys):
    code = cli.main(["3pass-send", "--addr", "nohost", "--key", f"{keypair}.key",
                     "--message", "2a"])
    assert code == 1
    assert "HOST:PORT" in capsys.readouterr().err


def error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.fixture
def no_connection(monkeypatch):
    """Fail the test if the CLI opens a connection."""
    from p3p import net

    def refuse(*args, **kwargs):
        raise AssertionError("connected despite a usage error")

    monkeypatch.setattr(net, "send_over_tcp", refuse)


@pytest.mark.parametrize("port", ["70000", "65536", "0", "-1"])
def test_send_rejects_port_outside_range(keypair, capsys, no_connection, port):
    # getaddrinfo would wrap 70000 to 4464 and connect there
    code = cli.main(["3pass-send", "--addr", f"127.0.0.1:{port}", "--key",
                     f"{keypair}.key", "--message", "2a"])
    assert code == 1
    err = error_lines(capsys.readouterr().err)
    assert err == [f"error: port must be in 1..65535, got {port}"]


@pytest.mark.parametrize("addr", ["::1", "fe80::1", "[::1]", "::1:7"])
def test_send_rejects_an_unbracketed_ipv6_address(tmp_path, capsys, no_connection, addr):
    # the key file is missing, so the address is refused before the key is read
    code = cli.main(["3pass-send", "--addr", addr, "--key", str(tmp_path / "absent.key"),
                     "--message", "2a"])
    assert code == 1
    err = error_lines(capsys.readouterr().err)
    assert len(err) == 1 and "HOST:PORT" in err[0]


@pytest.mark.parametrize("host, shown", [("::1", "[::1]"), ("127.0.0.1", "127.0.0.1")])
def test_listen_prints_an_ipv6_host_in_brackets(capsys, monkeypatch, host, shown):
    from p3p import net

    def fake_serve(**kwargs):
        kwargs["on_listening"](7001)
        return []

    monkeypatch.setattr(net, "serve_three_pass", fake_serve)
    assert cli.main(["3pass-listen", "--port", "0", "--host", host]) == 0
    assert capsys.readouterr().out == f"listening {shown}:7001\n"


@pytest.mark.parametrize("port", ["70000", "65536", "-1"])
def test_listen_rejects_port_outside_range(capsys, port):
    assert cli.main(["3pass-listen", "--port", port]) == 1
    err = error_lines(capsys.readouterr().err)
    assert err == [f"error: argument --port: must be in 0..65535, got '{port}'"]


@pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1"])
def test_send_rejects_a_timeout_that_is_not_finite_and_positive(
        keypair, capsys, no_connection, timeout):
    code = cli.main(["3pass-send", "--addr", "127.0.0.1:1", "--key", f"{keypair}.key",
                     "--message", "2a", "--timeout", timeout])
    assert code == 1
    err = error_lines(capsys.readouterr().err)
    assert err == [f"error: argument --timeout: must be a finite number > 0, got '{timeout}'"]


@pytest.mark.parametrize("timeout", ["nan", "inf"])
def test_listen_rejects_a_timeout_that_is_not_finite(timeout):
    # parsed only, so a listener that took the value would not block the test
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["3pass-listen", "--port", "0", "--timeout", timeout])
    assert exc.value.code == 1


@pytest.mark.parametrize("count", ["0", "-3"])
def test_listen_rejects_a_count_below_one(capsys, count):
    assert cli.main(["3pass-listen", "--port", "0", "--count", count]) == 1
    captured = capsys.readouterr()
    assert "listening" not in captured.out
    assert error_lines(captured.err) == [
        f"error: argument --count: must be at least 1, got '{count}'"]


def test_shamir_demo_rejects_composite_with_forced_exponents(capsys):
    # 3 and 7 are coprime to 21 - 1, so only the CLI's primality check
    # stands between this input and a meaningless transcript.
    code = cli.main(["shamir-demo", "--prime", "21", "--exp-a", "3", "--exp-b", "7",
                     "--message", "2"])
    assert code == 2
    assert "the shared prime is not prime" in capsys.readouterr().err


def test_shamir_demo_rejects_an_exponent_sharing_a_factor_with_p_minus_one(capsys):
    code = cli.main(["shamir-demo", "--prime", "23", "--exp-a", "2", "--message", "3"])
    assert code == 2
    assert len(error_lines(capsys.readouterr().err)) == 1


@pytest.mark.parametrize("prime, exponent, reason", [
    ("21", "2", "error: the shared prime is not prime"),  # 2 has no inverse modulo 20 either
    ("1", "3", "error: the shared prime must be at least 3"),
])
def test_shamir_demo_names_a_bad_prime_before_a_forced_exponent(
    capsys, prime, exponent, reason
):
    code = cli.main(["shamir-demo", "--prime", prime, "--exp-a", exponent,
                     "--message", "2"])
    assert code == 2
    assert error_lines(capsys.readouterr().err) == [reason]


# Every hex argument, as integer or as bytes to hash, follows bytes.fromhex.
HEX_COMMANDS = {
    "encrypt": ["--key", "{k}.pub", "--message"],
    "decrypt": ["--key", "{k}.key", "--ciphertext"],
    "tp-encrypt": ["--key", "{k}.pub", "--message"],
    "tp-decrypt": ["--key", "{k}.key", "--ciphertext"],
    "blind": ["--key", "{k}.pub", "--secret-out", "{t}/b.secret", "--message"],
    "sign-raw": ["--key", "{k}.key", "--out", "{t}/m.sig", "--message"],
    "sign": ["--key", "{k}.key", "--out", "{t}/m.sig", "--message"],
}


@pytest.mark.parametrize("text", ["0x2a", "2_a", " 2a"])
@pytest.mark.parametrize("command", sorted(HEX_COMMANDS))
def test_hex_arguments_share_one_rule(keypair, tmp_path, capsys, command, text):
    argv = [a.format(k=keypair, t=tmp_path) for a in HEX_COMMANDS[command]]
    assert cli.main([command, *argv, text]) == 1
    assert error_lines(capsys.readouterr().err) == [
        f"error: {argv[-1][2:]} must be hexadecimal, got {text!r}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(set(HEX_COMMANDS) - {"sign"}))
def test_an_empty_integer_argument_is_a_usage_error(keypair, tmp_path, capsys, command):
    argv = [a.format(k=keypair, t=tmp_path) for a in HEX_COMMANDS[command]]
    assert cli.main([command, *argv, ""]) == 1
    assert len(error_lines(capsys.readouterr().err)) == 1


# 5,000 hex digits: an integer whose decimal form Python refuses to print
HUGE_HEX = "f" * 5000


@pytest.mark.parametrize("command", ["encrypt", "decrypt", "tp-encrypt", "tp-decrypt"])
def test_a_huge_integer_argument_is_one_error_line(keypair, tmp_path, capsys, command):
    argv = [a.format(k=keypair, t=tmp_path) for a in HEX_COMMANDS[command]]
    assert cli.main([command, *argv, HUGE_HEX]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(error_lines(captured.err)) == 1
    assert len(captured.err) < 200


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def mode_of(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def test_private_files_are_created_0600_without_chmod(tmp_path, monkeypatch, umask_022):
    def no_chmod(*args, **kwargs):
        raise OSError("chmod not supported")

    monkeypatch.setattr(os, "chmod", no_chmod)
    prefix = tmp_path / "k"
    assert cli.main(["keygen", "--bits", "64", "--seed", "7", "--out", str(prefix)]) == 0
    assert mode_of(f"{prefix}.key") == 0o600
    assert mode_of(f"{prefix}.pub") == 0o644
    secret = tmp_path / "b.secret"
    assert cli.main(["blind", "--key", f"{prefix}.pub", "--message", "2a",
                     "--secret-out", str(secret), "--seed", "5"]) == 0
    assert mode_of(secret) == 0o600


def test_existing_private_file_is_narrowed_to_0600(tmp_path, umask_022):
    prefix = tmp_path / "k"
    key = tmp_path / "k.key"
    key.write_bytes(b"old")
    os.chmod(key, 0o644)
    assert cli.main(["keygen", "--bits", "64", "--seed", "7", "--out", str(prefix)]) == 0
    assert mode_of(key) == 0o600
    assert key.read_bytes().startswith(b"paillier-private-v1")


def parser_exit(parser, argv, capsys):
    with pytest.raises(SystemExit) as done:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return done.value.code, captured.out, captured.err


COMMAND_NAMES = [name for name, *_ in cli._COMMANDS]
# Help, missing options, and an extra argument, which the top-level parser
# reports under its own usage line.
PARSER_EXITS = (
    [[name, "--help"] for name in COMMAND_NAMES]
    + [[name] for name in COMMAND_NAMES]
    + [["decrypt", "--key", "k.key", "--ciphertext", "2a", "extra"],
       ["3pass-listen", "--port", "0", "extra"]]
)


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_a_one_command_parser_prints_what_the_full_one_does(argv, capsys):
    # main builds only the subparser its command line names
    alone = parser_exit(cli.build_parser(argv[0]), argv, capsys)
    assert alone == parser_exit(cli.build_parser(), argv, capsys)
    assert alone[0] in (0, cli.USAGE_EXIT)
