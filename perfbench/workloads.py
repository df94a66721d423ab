"""The four workloads: one per kind of p3p user, each a closed loop of one.

Every workload sets up with a seeded 2048- or 1024-bit ``keygen`` and a
``serialize_key``/``parse_key`` round trip of both key halves. Keys come
from the fixed ``KEY_SEED`` so that set-up times the same prime search on
every run; the workload seed drives every other input. A workload's
``measure`` returns per-unit latencies, the time it was busy, and how many
units it attempted and how many failed or came out wrong.

All calls into p3p go through module attributes (``paillier.encrypt``),
so the wrappers of a traced run see them.
"""

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from p3p import keyfile, net, numtheory, paillier, signature, threepass, trapdoor
from p3p.errors import P3PError

KEY_SEED = 0
STOP_TIMEOUT_S = 30.0
_LAUNCHER = Path(__file__).resolve().parent / "launch.py"


@dataclass
class Outcome:
    latencies_ns: list[int]
    busy_ns: int
    attempted: int
    failed: int


class Bench:
    """What one run shares with its workload: seed, clock budget, tracer,
    output directory and the spans its p3p child processes wrote."""

    def __init__(self, root: Path, out: Path, seed: int, seconds: float,
                 tracer=None, modulus_bits: int | None = None):
        self.root = root
        self.out = out
        self.seed = seed
        self.budget_ns = int(seconds * 1e9)
        self.tracer = tracer
        self.modulus_bits = modulus_bits
        self.rng = random.Random(seed)
        self.child_spans: list[list] = []
        self.children = 0
        self.env = dict(os.environ)
        self.env.pop("P3P_SEED", None)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def phase(self, name: str) -> None:
        if self.tracer:
            self.tracer.phase = name

    def unit(self, index: int) -> None:
        if self.tracer:
            self.tracer.unit = index

    def p3p_argv(self, args: list[str], unit: int, phase: str = "units"):
        """Command line of one p3p CLI call, and where its spans will land."""
        if not self.tracer:
            return [sys.executable, "-m", "p3p", *args], None
        self.children += 1
        spans = self.out / f"spans-{os.getpid()}-{self.children}.json"
        argv = [sys.executable, str(_LAUNCHER), str(spans),
                str(time.monotonic_ns()), str(unit), phase, "--", *args]
        return argv, spans

    def collect(self, spans: Path | None) -> None:
        if spans is not None and spans.exists():
            self.child_spans.extend(json.loads(spans.read_text()))
            spans.unlink()


def make_key(bits: int):
    """Seeded keygen plus a serialize/parse round trip of both halves."""
    sk = paillier.keygen(bits // 2, rng=random.Random(KEY_SEED))
    sk_bytes = keyfile.serialize_key(sk)
    pk_bytes = keyfile.serialize_key(sk.public)
    parsed_sk = keyfile.parse_key(sk_bytes)
    parsed_pk = keyfile.parse_key(pk_bytes)
    if parsed_sk != sk or parsed_pk != sk.public:
        raise RuntimeError("key did not survive serialize_key/parse_key")
    return parsed_sk, parsed_pk, sk_bytes, pk_bytes


class Workload:
    name = ""
    modulus_bits = 0

    def __init__(self, bench: Bench):
        self.bench = bench
        self.bits = bench.modulus_bits or self.modulus_bits

    def setup(self):
        return make_key(self.bits)

    def close(self, state, collect: bool = True) -> None:
        pass

    def measure(self, state) -> Outcome:
        raise NotImplementedError

    def _running(self, started_ns: int, attempted: int) -> bool:
        return attempted == 0 or time.perf_counter_ns() - started_ns < self.bench.budget_ns


class Tally(Workload):
    """Aggregator: encrypt a 0/1 ballot and add it to the running total.

    After each batch the total is rerandomized (as published) and
    decrypted by the key holder, and compared with the known sum. Latency
    covers one ballot; ops_per_s covers ballots and batch checks.
    """

    name = "tally-2048"
    modulus_bits = 2048
    BATCH = 25

    def measure(self, state) -> Outcome:
        bench = self.bench
        sk, pk = state[0], state[1]
        nonce_rng = random.Random(bench.rng.getrandbits(64))
        total = paillier.Ciphertext(1, pk.fingerprint)  # g^0 * 1^n: a ciphertext of 0
        expected = attempted = failed = 0
        latencies = []
        bench.phase("units")
        started = time.perf_counter_ns()
        while self._running(started, attempted):
            votes = [bench.rng.randrange(2) for _ in range(self.BATCH)]
            batch_ok = True
            for vote in votes:
                bench.unit(attempted)
                t0 = time.perf_counter_ns()
                try:
                    ballot = paillier.encrypt(pk, vote, nonce_rng)
                    total = paillier.homomorphic_add(pk, total, ballot)
                    expected += vote
                except P3PError:
                    batch_ok = False
                latencies.append(time.perf_counter_ns() - t0)
                attempted += 1
            try:
                total = paillier.rerandomize(pk, total, nonce_rng)
                batch_ok = batch_ok and paillier.decrypt(sk, total) == expected % pk.n
            except P3PError:
                batch_ok = False
            if not batch_ok:
                failed += len(votes)
        return Outcome(latencies, time.perf_counter_ns() - started, attempted, failed)


class KeyHolder(Workload):
    """Key holder: alternately sign a blinded digest and invert a trapdoor
    ciphertext. Inputs are made (untimed) in chunks; after timing every
    signature is unblinded and verified and every plaintext compared."""

    name = "keyholder-2048"
    modulus_bits = 2048
    CHUNK = 10  # even, so sign and tp_decrypt units stay paired

    def _input(self, pk, index: int):
        rng = self.bench.rng
        if index % 2 == 0:
            digest = signature.hash_to_signable(pk, rng.randbytes(32))
            blinded, secret = signature.blind(pk, digest, rng)
            return signature.sign_raw, blinded, (digest, secret)
        message = numtheory.random_unit(pk.n, rng) * pk.n + rng.randrange(pk.n)
        return trapdoor.tp_decrypt, trapdoor.tp_encrypt(pk, message), message

    def measure(self, state) -> Outcome:
        bench = self.bench
        sk, pk = state[0], state[1]
        results = []
        latencies = []
        busy = 0
        while busy < bench.budget_ns or not latencies:
            bench.phase("inputs")
            chunk = [self._input(pk, len(latencies) + i) for i in range(self.CHUNK)]
            bench.phase("units")
            for op, arg, expect in chunk:
                bench.unit(len(latencies))
                t0 = time.perf_counter_ns()
                try:
                    out = op(sk, arg)
                except P3PError:
                    out = None
                latencies.append(time.perf_counter_ns() - t0)
                busy += latencies[-1]
                results.append((out, expect))
        bench.phase("check")
        failed = 0
        for out, expect in results:
            if out is None:
                failed += 1
            elif isinstance(expect, tuple):
                digest, secret = expect
                sig = signature.unblind(out, secret, pk.n)
                failed += not signature.verify(pk, digest, sig)
            else:
                failed += out != expect
        return Outcome(latencies, busy, len(latencies), failed)


class Responder:
    """``p3p 3pass-listen`` as a child process. Its stdout goes to a file
    that is read only while starting and after timing, so nothing in this
    process wakes up during a session."""

    POLL_S = 0.001

    def __init__(self, bench: Bench, seed: int):
        self.bench = bench
        args = ["3pass-listen", "--port", "0", "--count", "1000000000",
                "--parallel", "--seed", str(seed)]
        argv, self.spans = bench.p3p_argv(args, unit=-1, phase="serve")
        bench.children += 1
        self.stdout = bench.out / f"responder-{os.getpid()}-{bench.children}.out"
        with open(self.stdout, "w") as out:
            self.proc = subprocess.Popen(argv, stdout=out, env=bench.env, cwd=bench.root)
        listening = self._wait("listening", 1)
        if not listening:
            self.stop(collect=False)
            raise RuntimeError("responder did not start listening")
        self.port = int(listening[0].rpartition(":")[2])

    def _wait(self, kind: str, count: int) -> list[str]:
        """Values of the first ``count`` complete ``kind`` lines, or of as
        many as appeared before the responder exited or time ran out."""
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while True:
            lines = self.stdout.read_text().split("\n")[:-1]  # last one may be partial
            values = [v for k, _, v in (line.partition(" ") for line in lines) if k == kind]
            if (len(values) >= count or self.proc.poll() is not None
                    or time.monotonic() > deadline):
                return values
            time.sleep(self.POLL_S)

    def wait_recovered(self, count: int) -> list[str]:
        return self._wait("recovered", count)

    def stop(self, collect: bool = True) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.stdout.unlink(missing_ok=True)
        if collect:
            self.bench.collect(self.spans)
        elif self.spans is not None:
            self.spans.unlink(missing_ok=True)


class ThreePassTcp(Workload):
    """Operator: ``3pass-listen --parallel`` in a child process on loopback;
    the benchmark runs ``send_over_tcp`` one session at a time. Checked:
    the responder prints every message sent."""

    name = "three-pass-tcp-1024"
    modulus_bits = 1024

    def setup(self):
        key = make_key(self.bits)
        return key + (Responder(self.bench, self.bench.seed),)

    def close(self, state, collect: bool = True) -> None:
        state[-1].stop(collect)

    def measure(self, state) -> Outcome:
        bench = self.bench
        sk, responder = state[0], state[-1]
        nonce_rng = random.Random(bench.rng.getrandbits(64))
        sent = []
        latencies = []
        bench.phase("units")
        started = time.perf_counter_ns()
        while self._running(started, len(latencies)):
            message = bench.rng.randrange(sk.public.n)
            session = threepass.PaillierInitiatorSession(sk, message)
            bench.unit(len(latencies))
            t0 = time.perf_counter_ns()
            try:
                net.send_over_tcp("127.0.0.1", responder.port, session, nonce_rng)
                sent.append(format(message, "x"))
            except P3PError:
                pass
            latencies.append(time.perf_counter_ns() - t0)
        busy = time.perf_counter_ns() - started
        bench.phase("check")
        # --parallel sessions may print out of order: compare as multisets
        recovered = Counter(responder.wait_recovered(len(sent)))
        matched = sum((Counter(sent) & recovered).values())
        return Outcome(latencies, busy, len(latencies), len(latencies) - matched)


class Cli(Workload):
    """Person at a shell: ``python -m p3p`` on a saved key, rotating
    encrypt, decrypt (of that ciphertext), sign --text and verify --text
    (of that signature). A unit is one command including interpreter start.
    Checked: exit code 0, decrypt prints the plaintext, verify prints
    ``valid``."""

    name = "cli-2048"
    modulus_bits = 2048

    def setup(self):
        sk, pk, sk_bytes, pk_bytes = key = make_key(self.bits)
        self.bench.children += 1
        work = self.bench.out / f"work-{os.getpid()}-{self.bench.children}"
        work.mkdir(parents=True)
        (work / "k.pub").write_bytes(pk_bytes)
        (work / "k.key").write_bytes(sk_bytes)
        os.chmod(work / "k.key", 0o600)
        return key + (work,)

    def close(self, state, collect: bool = True) -> None:
        shutil.rmtree(state[-1], ignore_errors=True)

    def _commands(self, pk, work: Path, index: int):
        """One rotation: (argv, check of stdout) pairs; checks may read
        the output of the previous command."""
        rng = self.bench.rng
        message = format(rng.randrange(pk.n), "x")
        text = f"ballot {self.bench.seed}-{index} {rng.getrandbits(64):x}"
        pub, key, sig = str(work / "k.pub"), str(work / "k.key"), str(work / "m.sig")
        ciphertext = []

        def keep_ciphertext(out):
            ciphertext[:] = [out]
            return all(c in "0123456789abcdef" for c in out) and bool(out)

        yield (["encrypt", "--key", pub, "--message", message,
                "--seed", str(rng.getrandbits(31))], keep_ciphertext)
        yield (["decrypt", "--key", key, "--ciphertext", ciphertext[0]],
               lambda out: out == message)
        yield (["sign", "--key", key, "--message", text, "--text", "--out", sig],
               lambda out: out == f"wrote {sig}")
        yield (["verify", "--key", pub, "--message", text, "--text", "--sig", sig],
               lambda out: out == "valid")

    def measure(self, state) -> Outcome:
        bench = self.bench
        pk, work = state[1], state[-1]
        latencies = []
        failed = 0
        bench.phase("units")
        started = time.perf_counter_ns()
        while self._running(started, len(latencies)):
            for args, check in self._commands(pk, work, len(latencies)):
                unit = len(latencies)
                argv, spans = bench.p3p_argv(args, unit)
                t0 = time.perf_counter_ns()
                done = subprocess.run(argv, capture_output=True, text=True,
                                      env=bench.env, cwd=bench.root)
                latencies.append(time.perf_counter_ns() - t0)
                bench.collect(spans)
                ok = check(done.stdout.strip())  # always run: it feeds the next command
                failed += done.returncode != 0 or not ok
        return Outcome(latencies, time.perf_counter_ns() - started, len(latencies), failed)


WORKLOADS = {w.name: w for w in (Tally, KeyHolder, ThreePassTcp, Cli)}
