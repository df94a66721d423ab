"""The walkthroughs in scripts/ run end to end on a small seeded key, and
the cross-version check passes on this interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent


def run_demo(script, args=("--bits", "128", "--seed", "1")):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )


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
    result = run_demo(script)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for line in expected:
        assert line in lines


def test_seeded_three_pass_demo_is_reproducible():
    first, second = run_demo("three_pass_demo.py"), run_demo("three_pass_demo.py")
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout


def test_cross_version_check_passes():
    # Its exhaustive n = 15/35 checks and pinned key digest run nowhere else.
    result = run_demo("cross_version_check.py", args=())
    assert result.returncode == 0, result.stdout + result.stderr
