"""The benchmark's tracer (perfbench/tracing.py) hooks into p3p by name:
it wraps each function in its TRACED table and shadows the builtin ``pow``
in every p3p module. These tests fail when a change to p3p removes a
traced name or shadows ``pow``, before a traced benchmark run would."""

import json
import random
import subprocess
import sys
import textwrap
import types
from pathlib import Path

from p3p import cli
from p3p import numtheory as nt

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    # Executed from its source text, so nothing is written next to it.
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = load_tracing()


def test_every_traced_name_resolves():
    by_name = {m.__name__.rpartition(".")[2]: m for m in tracing._p3p_modules()}
    missing = []
    for module_name, attr in tracing.TRACED:
        owner = by_name.get(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_no_p3p_module_defines_pow():
    assert [m.__name__ for m in tracing._p3p_modules() if "pow" in vars(m)] == []


def test_the_benchmarks_command_lines_parse():
    # the argv shapes perfbench/workloads.py builds: a flag dropped here
    # would fail every run of its workload
    parser = cli.build_parser()
    listen = parser.parse_args(["3pass-listen", "--port", "0", "--count", "1000000000",
                                "--parallel", "--seed", "7"])
    assert (listen.port, listen.count, listen.parallel, listen.seed) == (0, 10**9, True, 7)
    for argv in (
        ["encrypt", "--key", "k.pub", "--message", "2a", "--seed", "7"],
        ["decrypt", "--key", "k.key", "--ciphertext", "2a"],
        ["sign", "--key", "k.key", "--message", "ballot 1", "--text", "--out", "m.sig"],
        ["verify", "--key", "k.pub", "--message", "ballot 1", "--text", "--sig", "m.sig"],
    ):
        assert parser.parse_args(argv).command == argv[0]


class CountingRandom(random.Random):
    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


def test_gen_prime_tests_each_candidate_through_the_module_global(primality_calls):
    # The tracer counts is_probable_prime.calls_per_keygen by replacing the
    # module attribute; gen_prime must look it up there once per candidate.
    for bits, rounds in ((256, nt.KEYGEN_MR_ROUNDS), (512, 12)):
        primality_calls.clear()
        rng = CountingRandom(bits)
        prime = nt.gen_prime(bits, rng)
        assert len(primality_calls) == rng.draws > 1
        assert primality_calls[-1] == (prime, rounds)
        assert {r for _, r in primality_calls} == {rounds}


def test_importing_the_cli_leaves_the_sieve_product_unbuilt():
    code = ("import p3p.cli, p3p.numtheory as nt; "
            "print(nt._sieve_product.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=child_env()).stdout
    assert out.strip() == "0"


def test_tracer_sees_the_calls_of_a_lazily_importing_handler(tmp_path):
    # The handlers import signature on first use and call through module
    # attributes; a handler that bound a function before install() would
    # keep the unwrapped one and zero its layer's counts in a traced run.
    prefix = tmp_path / "k"
    assert cli.main(["keygen", "--bits", "64", "--seed", "7", "--out", str(prefix)]) == 0
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        code = cli.main(["sign", "--key", f"{prefix}.key", "--message", "2a",
                         "--out", str(tmp_path / "m.sig")])
    finally:
        uninstall()
    assert code == 0
    names = {span[2] for span in tracer.export()}
    assert {"signature.sign_raw", "keyfile.parse_key", "numtheory.pow_n2"} <= names


# Run in a fresh interpreter: every workload of BENCHMARK.json traced, at
# the smoke test's toy key size for 0.2 s, through the function that builds
# the benchmark's result line; it raises when a listed ms metric was not
# measured. Every file a run writes goes to the directory in argv[2].
TRACED_RUNS = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    root, out = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path.insert(0, str(root / "perfbench"))
    import run

    run.OUT = out
    run._import_p3p()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        run._result_line(run.run(workload["name"], 1, 0.2, True, 256), spec)
        print(workload["name"])
""")


def test_a_traced_run_of_every_workload_measures_every_listed_metric(tmp_path):
    env = child_env()
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # nothing written next to perfbench/
    done = subprocess.run([sys.executable, "-c", TRACED_RUNS, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert done.stdout.split() == [w["name"] for w in spec["workloads"]]
