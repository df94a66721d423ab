"""The walkthroughs in scripts/ run end to end on a small seeded key."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, expected",
    [
        ("three_pass_demo.py", ["match!"]),
        (
            "blind_signature_demo.py",
            ["verifies          = True", "equals direct sig = True"],
        ),
    ],
)
def test_demo_script_succeeds(script, expected):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--bits", "128", "--seed", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for line in expected:
        assert line in lines
