"""The benchmark's tracer (perfbench/tracing.py) hooks into p3p by name:
it wraps each function in its TRACED table and shadows the builtin ``pow``
in every p3p module. These tests fail when a change to p3p removes a
traced name or shadows ``pow``, before a traced benchmark run would."""

import random
import subprocess
import sys
import types
from pathlib import Path

from p3p import cli
from p3p import numtheory as nt

from conftest import child_env

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
