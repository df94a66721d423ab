import base64
import os
import re
import signal
import socket
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from p3p import cli, keyfile, net, wire
from p3p.encoding import encode_uint
from p3p.threepass import PaillierInitiatorSession

from conftest import child_env, read_to_end

CLI = [sys.executable, "-m", "p3p"]


def run_cli(*args, env_extra=None, **kwargs):
    env = child_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, **kwargs
    )


@pytest.fixture(scope="module")
def keypair(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("keys") / "k"
    result = run_cli("keygen", "--bits", "64", "--seed", "7", "--out", str(prefix))
    assert result.returncode == 0, result.stderr
    return prefix


def test_keygen_seeded_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for prefix in (a, b):
        result = run_cli("keygen", "--bits", "64", "--seed", "7", "--out", str(prefix))
        assert result.returncode == 0, result.stderr
    assert (
        a.with_suffix(".pub").read_bytes() == b.with_suffix(".pub").read_bytes()
    )
    assert (
        a.with_suffix(".key").read_bytes() == b.with_suffix(".key").read_bytes()
    )


def test_keygen_env_seed_fallback(tmp_path):
    # there is none: only --seed makes keygen deterministic
    a, b = tmp_path / "a", tmp_path / "b"
    for prefix in (a, b):
        result = run_cli(
            "keygen", "--bits", "64", "--out", str(prefix),
            env_extra={"P3P_SEED": "99"},
        )
        assert result.returncode == 0, result.stderr
    assert a.with_suffix(".key").read_bytes() != b.with_suffix(".key").read_bytes()


def test_private_key_file_permissions(keypair):
    mode = stat.S_IMODE(os.stat(f"{keypair}.key").st_mode)
    assert mode == 0o600


def test_encrypt_decrypt_roundtrip(keypair):
    encrypted = run_cli(
        "encrypt", "--key", f"{keypair}.pub", "--message", "2a", "--seed", "3"
    )
    assert encrypted.returncode == 0, encrypted.stderr
    decrypted = run_cli(
        "decrypt", "--key", f"{keypair}.key", "--ciphertext", encrypted.stdout.strip()
    )
    assert decrypted.returncode == 0, decrypted.stderr
    assert decrypted.stdout.strip() == "2a"


def test_encrypt_decrypt_text_mode(keypair):
    encrypted = run_cli(
        "encrypt", "--key", f"{keypair}.pub", "--message", "hi", "--text", "--seed", "3"
    )
    assert encrypted.returncode == 0, encrypted.stderr
    decrypted = run_cli(
        "decrypt", "--key", f"{keypair}.key",
        "--ciphertext", encrypted.stdout.strip(), "--text",
    )
    assert decrypted.stdout.strip() == "hi"


def test_encrypt_rejects_oversized_text(keypair):
    result = run_cli(
        "encrypt", "--key", f"{keypair}.pub",
        "--message", "this text is far too long for a 64-bit modulus", "--text",
    )
    assert result.returncode == 2
    assert "fit" in result.stderr


def test_sign_verify_and_tamper(keypair, tmp_path):
    sig = tmp_path / "m.sig"
    signed = run_cli(
        "sign", "--key", f"{keypair}.key", "--message", "68656c6c6f",
        "--out", str(sig),
    )
    assert signed.returncode == 0, signed.stderr

    ok = run_cli(
        "verify", "--key", f"{keypair}.pub", "--message", "68656c6c6f",
        "--sig", str(sig),
    )
    assert ok.returncode == 0
    assert ok.stdout.strip() == "valid"

    wrong = run_cli(
        "verify", "--key", f"{keypair}.pub", "--message", "68656c6c6e",
        "--sig", str(sig),
    )
    assert wrong.returncode == 2
    assert wrong.stdout.strip() == "invalid"

    # flip one bit inside the envelope body
    data = sig.read_bytes()
    tampered = tmp_path / "tampered.sig"
    body_index = data.index(b"\n") + 2
    tampered.write_bytes(
        data[:body_index]
        + bytes([data[body_index] ^ 1])
        + data[body_index + 1 :]
    )
    broken = run_cli(
        "verify", "--key", f"{keypair}.pub", "--message", "68656c6c6f",
        "--sig", str(tampered),
    )
    assert broken.returncode == 2


def test_blind_sign_unblind_matches_direct(keypair, tmp_path):
    blinded = run_cli(
        "blind", "--key", f"{keypair}.pub", "--message", "1234567",
        "--secret-out", str(tmp_path / "b.secret"), "--seed", "5",
    )
    assert blinded.returncode == 0, blinded.stderr
    assert run_cli(
        "sign-raw", "--key", f"{keypair}.key", "--message", blinded.stdout.strip(),
        "--out", str(tmp_path / "blind.sig"),
    ).returncode == 0
    assert run_cli(
        "unblind", "--key", f"{keypair}.pub", "--sig", str(tmp_path / "blind.sig"),
        "--secret", str(tmp_path / "b.secret"), "--out", str(tmp_path / "m.sig"),
    ).returncode == 0
    assert run_cli(
        "sign-raw", "--key", f"{keypair}.key", "--message", "1234567",
        "--out", str(tmp_path / "direct.sig"),
    ).returncode == 0
    assert (tmp_path / "m.sig").read_bytes() == (tmp_path / "direct.sig").read_bytes()


def test_tp_encrypt_decrypt_roundtrip(keypair):
    # a wide message: quotient must be >= 1 and coprime to n, so pick
    # something comfortably above the modulus
    pub = Path(f"{keypair}.pub").read_text()
    assert pub.startswith("paillier-public")
    message = format(3 << 64 | 12345, "x")
    encrypted = run_cli("tp-encrypt", "--key", f"{keypair}.pub", "--message", message)
    if encrypted.returncode == 2:
        pytest.skip("quotient happened to share a factor with this modulus")
    decrypted = run_cli(
        "tp-decrypt", "--key", f"{keypair}.key",
        "--ciphertext", encrypted.stdout.strip(),
    )
    assert decrypted.returncode == 0
    assert decrypted.stdout.strip() == message


def test_tp_encrypt_rejects_small_message(keypair):
    result = run_cli("tp-encrypt", "--key", f"{keypair}.pub", "--message", "2a")
    assert result.returncode == 2


def test_shamir_demo_pinned_transcript():
    result = run_cli(
        "shamir-demo", "--prime", "23", "--exp-a", "5", "--exp-b", "7",
        "--message", "3",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "pass1 13",
        "pass2 9",
        "pass3 2",
        "recovered 3",
    ]


def test_usage_errors_exit_one(keypair):
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("encrypt", "--key", f"{keypair}.pub").returncode == 1
    bad_hex = run_cli("encrypt", "--key", f"{keypair}.pub", "--message", "zz")
    assert bad_hex.returncode == 1


@pytest.mark.parametrize("args", [(), ("decrypt",), ("decrypt", "--key"), ("bogus",)],
                         ids=["no-command", "no-options", "no-key-path", "unknown-command"])
def test_a_usage_error_is_one_error_line(args):
    result = run_cli(*args)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert sum(line.startswith("error:") for line in result.stderr.splitlines()) == 1


def test_crypto_errors_exit_two(keypair, tmp_path):
    missing = run_cli("decrypt", "--key", str(tmp_path / "nope.key"), "--ciphertext", "1")
    assert missing.returncode == 2
    public_only = run_cli(
        "decrypt", "--key", f"{keypair}.pub", "--ciphertext", "1"
    )
    assert public_only.returncode == 2
    zero_base = tmp_path / "zero-base.pub"  # n = 15, g = 0
    zero_base.write_bytes(
        b"paillier-public-v1\n" + base64.b64encode(encode_uint(15) + encode_uint(0)) + b"\n"
    )
    rejected = run_cli("encrypt", "--key", str(zero_base), "--message", "07")
    assert rejected.returncode == 2 and rejected.stdout == ""


def test_three_pass_over_tcp(keypair):
    listener = subprocess.Popen(
        CLI + ["3pass-listen", "--port", "0", "--seed", "9", "--timeout", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    try:
        line = listener.stdout.readline()
        match = re.search(r":(\d+)$", line.strip())
        assert match, f"no port in {line!r}"
        port = match.group(1)
        sender = run_cli(
            "3pass-send", "--addr", f"127.0.0.1:{port}",
            "--key", f"{keypair}.key", "--message", "2a", "--seed", "4",
            "--timeout", "20",
        )
        assert sender.returncode == 0, sender.stderr
        assert [l.split()[0] for l in sender.stdout.splitlines()] == [
            "pass1", "pass2", "pass3",
        ]
        out, err = listener.communicate(timeout=20)
        assert listener.returncode == 0, err
        assert "recovered 2a" in out
    finally:
        if listener.poll() is None:
            listener.kill()
            listener.communicate()


def test_listener_answers_a_huge_pass_with_one_error_line():
    listener = subprocess.Popen(
        CLI + ["3pass-listen", "--port", "0", "--count", "1", "--timeout", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    try:
        line = listener.stdout.readline()
        match = re.search(r":(\d+)$", line.strip())
        assert match, f"no port in {line!r}"
        # a 20,001-bit first pass: far above n^2 = 225, and too long to print
        huge = wire.pass_message(wire.MsgType.PASS1, 1 << 20000)
        with socket.create_connection(("127.0.0.1", int(match.group(1))), timeout=20) as peer:
            peer.sendall(wire.encode_msg(wire.key_announce(15, 16)) + wire.encode_msg(huge))
            reply = wire.decode_msg(read_to_end(peer))
        assert reply.msg_type is wire.MsgType.ERROR
        out, err = listener.communicate(timeout=20)
        assert listener.returncode == 2, err
        assert err.splitlines() == ["error: bad frame: PASS1 payload is not below n^2"]
    finally:
        if listener.poll() is None:
            listener.kill()
            listener.communicate()


def test_ctrl_c_ends_the_listener_with_one_error_line():
    listener = subprocess.Popen(
        CLI + ["3pass-listen", "--port", "0", "--count", "3", "--timeout", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    try:
        assert listener.stdout.readline().startswith("listening ")
        listener.send_signal(signal.SIGINT)
        out, err = listener.communicate(timeout=10)
        assert (listener.returncode, err) == (130, "error: interrupted\n")  # 128 + SIGINT
    finally:
        if listener.poll() is None:
            listener.kill()
            listener.communicate()


def test_parallel_help_names_the_session_cap(capsys):
    assert cli.main(["3pass-listen", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"up to {net.MAX_PARALLEL_SESSIONS} sessions at once" in help_text


def test_parallel_listener_prints_whole_lines(keypair):
    sk = keyfile.parse_key(Path(f"{keypair}.key").read_bytes())
    clients, per_client = 4, 25
    # A tiny switch interval makes the listener's session threads preempt
    # each other often, so unsynchronised printing would split lines.
    code = (
        "import sys; sys.setswitchinterval(1e-6); from p3p.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    listener = subprocess.Popen(
        [sys.executable, "-c", code, "3pass-listen", "--port", "0", "--parallel",
         "--count", str(clients * per_client), "--seed", "9", "--timeout", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    try:
        line = listener.stdout.readline()
        match = re.search(r":(\d+)$", line.strip())
        assert match, f"no port in {line!r}"
        port = int(match.group(1))
        messages = [[1000 * c + i for i in range(per_client)] for c in range(clients)]
        errors = []

        def client(batch):
            try:
                for m in batch:
                    session = PaillierInitiatorSession(sk, m)
                    net.send_over_tcp("127.0.0.1", port, session, timeout=20)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(b,)) for b in messages]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert errors == []
        out, err = listener.communicate(timeout=30)
        assert listener.returncode == 0, err
        expected = sorted(f"recovered {m:x}" for batch in messages for m in batch)
        assert sorted(out.splitlines()) == expected
    finally:
        if listener.poll() is None:
            listener.kill()
            listener.communicate()
