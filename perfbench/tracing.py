"""Spans and exponentiation counts for p3p, recorded from outside the package.

``install`` replaces each traced public function in every p3p module that
holds it (``threepass.decrypt`` as well as ``paillier.decrypt``) with a
wrapper that records a span, and shadows the builtin ``pow`` in each p3p
module with a counting version. Nothing in ``src/`` changes.

A span is ``(id, parent, name, phase, unit, start_ns, end_ns, self_ns,
extra)``. Self time is the span's duration minus the time covered by the
spans it caused on the same thread. Spans are kept in memory; ``export``
returns them as JSON-ready lists when the run ends.

Three-argument ``pow`` calls are classified by modulus when exported:
``numtheory.pow_n2`` for a perfect square n^2, ``numtheory.pow_n`` for the
root n of a square seen in the same process, ``numtheory.pow_other`` for
anything else (Miller-Rabin moduli). A negative exponent is an inverse and
is recorded as ``numtheory.mod_inv`` instead, so inverses never inflate the
``pow_*`` counts. ``extra`` holds the exponent's bit length for a ``pow``
and the frame length for ``wire.encode_msg``.
"""

import builtins
import functools
import importlib
import itertools
import math
import socket
import threading
import time
from collections import defaultdict

# (module, attribute) of every traced public function; "Class.method" names
# a method. Spans are named "<module>.<last part>".
TRACED = (
    ("numtheory", "random_unit"),
    ("numtheory", "gen_prime"),
    ("numtheory", "is_probable_prime"),
    ("paillier", "keygen"),
    ("paillier", "encrypt"),
    ("paillier", "decrypt"),
    ("paillier", "homomorphic_add"),
    ("paillier", "rerandomize"),
    ("paillier", "extract_class"),
    ("paillier", "principal_root"),
    ("signature", "hash_to_signable"),
    ("signature", "blind"),
    ("signature", "sign_raw"),
    ("signature", "unblind"),
    ("signature", "verify"),
    ("trapdoor", "tp_encrypt"),
    ("trapdoor", "tp_decrypt"),
    ("threepass", "PaillierInitiatorSession.step1_send"),
    ("threepass", "PaillierInitiatorSession.step3_reveal"),
    ("threepass", "PaillierResponderSession.step2_respond"),
    ("threepass", "PaillierResponderSession.step4_recover"),
    ("wire", "encode_msg"),
    ("wire", "decode_msg"),
    ("net", "run_initiator"),
    ("net", "run_responder"),
    ("net", "SocketChannel.recv"),
    ("keyfile", "parse_key"),
    ("keyfile", "serialize_key"),
)

POW = "numtheory.pow"
INVERSE = "numtheory.mod_inv"
CONNECT = "net.connect"
_SIZED = {"wire.encode_msg"}


class Tracer:
    """In-memory span recorder; one per process.

    ``phase`` and ``unit`` tag every span opened after they are set, so the
    caller can separate set-up, input generation, timed units and checks.
    """

    def __init__(self, phase: str = "setup"):
        self.phase = phase
        self.unit = None
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        record = [next(self._ids), parent, name, self.phase, self.unit, 0, 0, None]
        stack.append(record)
        record[5] = time.perf_counter_ns()
        return record

    def leave(self, record: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = end - record[5]
        if stack:
            stack[-1][6] += duration
        sid, parent, name, phase, unit, start, child_ns, extra = record
        self.spans.append(
            (sid, parent, name, phase, unit, start, end, duration - child_ns, extra)
        )

    def span(self, name: str, start_ns: int, end_ns: int, extra=None) -> None:
        """Record an interval measured elsewhere (e.g. interpreter start)."""
        self.spans.append(
            (next(self._ids), None, name, self.phase, self.unit, start_ns, end_ns,
             end_ns - start_ns, extra)
        )

    def counting_pow(self, base, exp, mod=None):
        if mod is None:
            return builtins.pow(base, exp)
        record = self.enter(INVERSE if exp < 0 else POW)
        try:
            return builtins.pow(base, exp, mod)
        finally:
            record[7] = (mod, exp.bit_length()) if exp >= 0 else None
            self.leave(record)

    def export(self) -> list[list]:
        """Spans with every ``pow`` named by its modulus class."""
        moduli = {s[8][0] for s in self.spans if s[2] == POW}
        squares = {m for m in moduli if math.isqrt(m) ** 2 == m}
        roots = {math.isqrt(m) for m in squares}
        out = []
        for sid, parent, name, phase, unit, start, end, self_ns, extra in self.spans:
            if name == POW:
                modulus, extra = extra
                if modulus in squares:
                    name = "numtheory.pow_n2"
                elif modulus in roots:
                    name = "numtheory.pow_n"
                else:
                    name = "numtheory.pow_other"
            out.append([sid, parent, name, phase, unit, start, end, self_ns, extra])
        return out


def wrap(tracer: Tracer, name: str, fn):
    sized = name in _SIZED

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        record = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
            if sized:
                record[7] = len(result)
            return result
        finally:
            tracer.leave(record)

    return traced


class _SocketProxy:
    """``socket`` as seen by p3p.net, with ``create_connection`` timed."""

    def __init__(self, tracer: Tracer):
        self._connect = wrap(tracer, CONNECT, socket.create_connection)

    def __getattr__(self, attr):
        if attr == "create_connection":
            return self._connect
        return getattr(socket, attr)


def _p3p_modules() -> list:
    import p3p

    names = ("cli", "encoding", "errors", "keyfile", "net", "numtheory",
             "paillier", "signature", "threepass", "trapdoor", "wire")
    return [p3p] + [importlib.import_module(f"p3p.{name}") for name in names]


def install(tracer: Tracer):
    """Wrap every traced function and shadow ``pow``; returns an undo callable."""
    modules = _p3p_modules()
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    undo = []

    def replace(owner, attr, value):
        undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    for module_name, attr in TRACED:
        owner = by_name[module_name]
        *cls, fname = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = getattr(owner, fname)
        wrapped = wrap(tracer, f"{module_name}.{fname}", original)
        if cls:
            replace(owner, fname, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    replace(module, key, wrapped)
    for module in modules:
        replace(module, "pow", tracer.counting_pow)
    replace(by_name["net"], "socket", _SocketProxy(tracer))

    def uninstall():
        for owner, attr, value in reversed(undo):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    return uninstall


# Spans reported only under the name their layer metric is known by.
_ALIASES = {
    CONNECT: "net.connect_ms",
    "net.recv": "net.recv_wait_ms_per_op",  # SocketChannel.recv: time blocked
    "cli.interpreter": "cli.interpreter_ms",
    "cli.import": "cli.import_ms",
}


def aggregate(spans: list[list], units: int, keygens: int) -> dict:
    """Per-layer figures from exported spans of one run (all processes).

    Spans of phase "units" are divided by ``units`` (``*_per_op``), spans
    of phase "setup" by ``keygens`` (``*_per_keygen``); spans of any other
    phase are divided by ``units`` and reported under a ``<phase>:`` prefix.
    ``<module>.self_ms_per_op`` sums the self time of a module's spans.
    """
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    extra = defaultdict(int)
    for _sid, _parent, name, phase, _unit, _start, _end, own, more in spans:
        key = (phase, name)
        calls[key] += 1
        self_ns[key] += own
        if more is not None:
            extra[key] += more
    out = {}
    module_ms = defaultdict(float)
    for (phase, name), count in sorted(calls.items()):
        per = keygens if phase == "setup" else units
        if not per:
            continue
        prefix = "" if phase in ("units", "setup") else f"{phase}:"
        suffix = "keygen" if phase == "setup" else "op"
        base = prefix + name
        ms = self_ns[(phase, name)] / 1e6 / per
        if name in _ALIASES:
            out[prefix + _ALIASES[name]] = ms
        elif name.startswith("numtheory.pow_"):
            out[f"{base}.count_per_{suffix}"] = count / per
            out[f"{base}.exp_bits_per_{suffix}"] = extra[(phase, name)] / per
            out[f"{base}.ms_per_{suffix}"] = ms
        else:
            out[f"{base}.calls_per_{suffix}"] = count / per
            out[f"{base}.self_ms_per_{suffix}"] = ms
        if name in _SIZED:
            out[f"{prefix}{name.partition('.')[0]}.bytes_per_{suffix}"] = (
                extra[(phase, name)] / per
            )
        if phase == "units" and name not in _ALIASES:
            module_ms[name.partition(".")[0]] += ms
    for module, ms in module_ms.items():
        out[f"{module}.self_ms_per_op"] = ms
    return out
