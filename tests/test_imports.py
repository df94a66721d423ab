"""What a command or ``import p3p`` loads, and the package's lazy surface.

Each CLI command is a fresh interpreter, so every module it imports but
does not run is start-up time. The subprocess tests pin which modules the
everyday commands leave out."""

import importlib
import subprocess
import sys
import textwrap

import p3p
from p3p import cli, net

from conftest import child_env

# Run in a fresh interpreter: encrypt, decrypt, sign and verify through
# cli.main, then print every module that was loaded.
EVERYDAY_COMMANDS = textwrap.dedent("""
    import contextlib, io, sys
    from p3p import cli

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(argv)) == 0, argv
        return out.getvalue().strip()

    pub, key, sig = sys.argv[1:]
    c = run("encrypt", "--key", pub, "--message", "2a", "--seed", "1")
    assert run("decrypt", "--key", key, "--ciphertext", c) == "2a"
    run("sign", "--key", key, "--message", "2a", "--out", sig)
    assert run("verify", "--key", pub, "--message", "2a", "--sig", sig) == "valid"
    print(" ".join(sys.modules))
""")


# Run in a fresh interpreter: one seeded three-pass session over loopback,
# 3pass-listen in a thread and 3pass-send in the main thread, both through
# cli.main, then print every module that was loaded.
LOOPBACK_SESSION = textwrap.dedent("""
    import contextlib, io, sys, threading, time
    from p3p import cli

    out, codes = io.StringIO(), []
    listen = ["3pass-listen", "--port", "0", "--seed", "3", "--timeout", "20"]
    with contextlib.redirect_stdout(out):
        listener = threading.Thread(target=lambda: codes.append(cli.main(listen)))
        listener.start()
        deadline = time.monotonic() + 20
        while "listening" not in out.getvalue() and time.monotonic() < deadline:
            time.sleep(0.01)
        port = out.getvalue().split()[1].rpartition(":")[2]
        codes.append(cli.main(["3pass-send", "--addr", f"127.0.0.1:{port}",
                               "--key", sys.argv[1], "--message", "2a", "--seed", "4",
                               "--timeout", "20"]))
        listener.join()
    assert codes == [0, 0] and "recovered 2a" in out.getvalue(), out.getvalue()
    print(" ".join(sys.modules))
""")

# Neither hashlib nor its OpenSSL binding: SHA-256 comes from the
# interpreter's built-in module.
NO_OPENSSL = {"hashlib", "_hashlib"}


def loaded_modules(code, *args):
    done = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=60, env=child_env())
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_everyday_commands_load_no_transport_or_protocol(tmp_path, capsys):
    prefix = tmp_path / "k"
    assert cli.main(["keygen", "--bits", "64", "--seed", "7", "--out", str(prefix)]) == 0
    capsys.readouterr()
    loaded = loaded_modules(EVERYDAY_COMMANDS, f"{prefix}.pub", f"{prefix}.key",
                            str(tmp_path / "m.sig"))
    assert "p3p.signature" in loaded
    unused = {"p3p.net", "p3p.wire", "p3p.threepass", "p3p.trapdoor", "socket", "queue"}
    assert loaded & (unused | NO_OPENSSL) == set()


def test_loopback_session_loads_no_openssl(tmp_path, capsys):
    prefix = tmp_path / "k"
    assert cli.main(["keygen", "--bits", "64", "--seed", "7", "--out", str(prefix)]) == 0
    capsys.readouterr()
    loaded = loaded_modules(LOOPBACK_SESSION, f"{prefix}.key")
    assert "p3p.net" in loaded
    assert loaded & NO_OPENSSL == set()


# The value types are hand-written records: no command pays for the import
# of dataclasses and the inspect module it pulls in.
NO_DATACLASSES = {"dataclasses", "inspect"}


def test_everyday_commands_load_no_dataclasses(tmp_path, capsys):
    prefix = tmp_path / "k"
    assert cli.main(["keygen", "--bits", "64", "--seed", "7", "--out", str(prefix)]) == 0
    capsys.readouterr()
    loaded = loaded_modules(EVERYDAY_COMMANDS, f"{prefix}.pub", f"{prefix}.key",
                            str(tmp_path / "m.sig"))
    assert loaded & NO_DATACLASSES == set()


def test_loopback_session_loads_no_dataclasses(tmp_path, capsys):
    prefix = tmp_path / "k"
    assert cli.main(["keygen", "--bits", "64", "--seed", "7", "--out", str(prefix)]) == 0
    capsys.readouterr()
    loaded = loaded_modules(LOOPBACK_SESSION, f"{prefix}.key")
    assert "p3p.net" in loaded
    assert loaded & NO_DATACLASSES == set()


# The built-in modules hidden, so the import falls back to hashlib.
FALLBACK_DIGESTS = textwrap.dedent("""
    import hashlib, random, sys
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
    from p3p import paillier, signature

    assert paillier.sha256 is hashlib.sha256
    print(paillier.fingerprint_modulus(15).hex(), paillier.fingerprint_modulus(35).hex())
    pk = paillier.keygen(256, rng=random.Random(0)).public
    for message in (b"", b"abc"):
        value = signature.hash_to_signable(pk, message)
        print(hashlib.sha256(value.to_bytes(128, "big")).hexdigest())
""")


def test_hashlib_fallback_gives_the_same_digests():
    done = subprocess.run([sys.executable, "-c", FALLBACK_DIGESTS],
                          capture_output=True, text=True, timeout=60, env=child_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        # fingerprint_modulus(15) and (35): sha256 of the bytes 0x0f and 0x23
        "dc0e9c3658a1a3ed1ec94274d8b19925c93e1abb7ddba294923ad9bde30f8cb8",
        "334359b90efed75da5f0ada1d5e6b256f4a6bd0aee7eb39c0f90182a021ffc8b",
        # test_signature.py::test_hash_to_signable_pinned_on_a_512_bit_key
        "f8833e4e7fef939ef3794f2507ebb4a87c8aeba2640f9e7aa4ce95d55af2dd7f",
        "93e8c12ff079c6e303e6426ea5f77ab6c56dd021ffc3428b3b703f2ac3b87a3e",
    ]


def test_bare_import_loads_no_submodule():
    loaded = loaded_modules("import p3p, sys; print(' '.join(sys.modules))")
    assert {m for m in loaded if m.startswith("p3p.")} == set()


def test_every_export_is_its_home_modules_object():
    for name in p3p.__all__:
        obj = getattr(p3p, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("p3p."), name
        assert getattr(home, name) is obj, name


def test_star_import_binds_exactly_all_and_dir_lists_it():
    namespace = {}
    exec("from p3p import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(p3p.__all__)
    assert set(p3p.__all__) <= set(dir(p3p))


def test_timeout_default_is_nets(tmp_path, monkeypatch):
    # Spies stand in for the network, so no socket is opened.
    seen = []

    def send_spy(host, port, session, rng, timeout):
        seen.append(("send", timeout))
        return net.InitiatorOutcome(pass1=1, pass2=2, pass3=3, frames=())

    monkeypatch.setattr(net, "send_over_tcp", send_spy)
    monkeypatch.setattr(net, "serve_three_pass",
                        lambda **kwargs: seen.append(("listen", kwargs["timeout"])))
    monkeypatch.setattr(net, "DEFAULT_TIMEOUT", 7.25)
    key = tmp_path / "k"
    assert cli.main(["keygen", "--bits", "64", "--seed", "7", "--out", str(key)]) == 0
    for flags, expected in (([], 7.25), (["--timeout", "2.5"], 2.5)):
        seen.clear()
        assert cli.main(["3pass-listen", "--port", "0", *flags]) == 0
        assert cli.main(["3pass-send", "--addr", "h:1", "--key", f"{key}.key",
                         "--message", "2a", *flags]) == 0
        assert seen == [("listen", expected), ("send", expected)]
