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


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("P3P_SEED", raising=False)


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


def test_send_rejects_address_without_port(keypair, capsys):
    code = cli.main(["3pass-send", "--addr", "nohost", "--key", f"{keypair}.key",
                     "--message", "2a"])
    assert code == 1
    assert "HOST:PORT" in capsys.readouterr().err


def test_shamir_demo_rejects_composite_with_forced_exponents(capsys):
    # 3 and 7 are coprime to 21 - 1, so only the CLI's primality check
    # stands between this input and a meaningless transcript.
    code = cli.main(["shamir-demo", "--prime", "21", "--exp-a", "3", "--exp-b", "7",
                     "--message", "2"])
    assert code == 2
    assert "21 is not prime" in capsys.readouterr().err


def test_non_integer_env_seed_is_a_usage_error(keypair, monkeypatch, capsys):
    monkeypatch.setenv("P3P_SEED", "abc")
    code = cli.main(["encrypt", "--key", f"{keypair}.pub", "--message", "2a"])
    assert code == 1
    assert "P3P_SEED" in capsys.readouterr().err


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
