"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's test suite on purpose (the file name does not
match ``test_*.py``): the counter test pins how the current p3p code maps
onto exponentiations, which a later optimisation is expected to change.
"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
from p3p import paillier, threepass  # noqa: E402

KEY15 = paillier.from_primes(3, 5)  # n = 15, lambda = 4


def _pows(tracer: tracing.Tracer) -> list[tuple[str, int]]:
    return [(s[2], s[8]) for s in tracer.export()
            if s[2].startswith("numtheory.pow_") or s[2] == tracing.INVERSE]


def test_counter_classifies_known_encrypt_and_decrypt():
    tracer = tracing.Tracer("units")
    uninstall = tracing.install(tracer)
    try:
        c = paillier.encrypt_with_nonce(KEY15.public, 7, 2)
        assert c.value == 83  # (1 + 15)^7 * 2^15 mod 225
        assert paillier.decrypt(KEY15, c) == 7
        assert tracer.counting_pow(3, 2) == 9  # no modulus: passed through, not counted
        assert paillier.principal_root(KEY15, 4) == 4  # 4^(1/15 mod 4) mod 15
    finally:
        uninstall()
    assert "pow" not in vars(paillier)
    assert _pows(tracer) == [
        ("numtheory.pow_n2", 4),  # encrypt: x^n, exponent n = 15
        ("numtheory.pow_n2", 3),  # decrypt: c^lambda, lambda = 4
        (tracing.INVERSE, None),  # principal_root: 1/n mod lambda
        ("numtheory.pow_n", 2),  # principal_root: v^3 mod n
    ]


def test_counter_classifies_pow_mod_n_seen_before_n_squared():
    tracer = tracing.Tracer("units")
    uninstall = tracing.install(tracer)
    try:
        responder = threepass.PaillierResponderSession(KEY15.public)
        responder.step2_respond(83, rng=_Fixed(2))  # x^n mod n, then c^m2 mod n^2
    finally:
        uninstall()
    names = [name for name, _ in _pows(tracer)]
    assert names == ["numtheory.pow_n", "numtheory.mod_inv", "numtheory.pow_n2"]


class _Fixed:
    def __init__(self, value):
        self.value = value

    def randrange(self, start, stop=None):
        return self.value


def test_smoke_all_workloads_at_toy_key_size():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(": ok") == 8, done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tally-2048",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
