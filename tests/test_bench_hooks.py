"""The benchmark's tracer (perfbench/tracing.py) hooks into p3p by name:
it wraps each function in its TRACED table and shadows the builtin ``pow``
in every p3p module. These tests fail when a change to p3p removes a
traced name or shadows ``pow``, before a traced benchmark run would."""

import types
from pathlib import Path

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
