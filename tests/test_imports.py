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


def loaded_modules(code, *args):
    done = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)
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
    assert loaded & unused == set()


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


def test_timeout_default_is_nets():
    parser = cli.build_parser()
    listen = parser.parse_args(["3pass-listen", "--port", "0"])
    send = parser.parse_args(["3pass-send", "--addr", "h:1", "--key", "k", "--message", "2a"])
    assert listen.timeout == send.timeout == net.DEFAULT_TIMEOUT
