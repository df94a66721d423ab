import os
from pathlib import Path

import pytest

from p3p import from_primes
from p3p import numtheory as nt

# Toy keys small enough for exhaustive checks: n = 15 and n = 35.
KEY15 = from_primes(3, 5)
KEY35 = from_primes(5, 7)


class ScriptedRandom:
    """RandomSource replaying a fixed list of randrange results."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, start, stop=None):
        if stop is None:
            start, stop = 0, start
        value = self.values.pop(0)
        assert start <= value < stop, (
            f"scripted value {value} outside [{start}, {stop})"
        )
        return value


SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """The environment for a child process, with src first on its
    PYTHONPATH, so the child imports this checkout's p3p without an install."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def read_to_end(sock):
    """Every byte a peer sends until it closes the connection."""
    chunks = []
    while chunk := sock.recv(4096):
        chunks.append(chunk)
    return b"".join(chunks)


@pytest.fixture
def primality_calls(monkeypatch):
    """(candidate, rounds) of every is_probable_prime call made through the
    module attribute, which is where the benchmark's tracer wraps it."""
    calls = []
    original = nt.is_probable_prime

    def spy(candidate, rounds=nt.DEFAULT_MR_ROUNDS):
        calls.append((candidate, rounds))
        return original(candidate, rounds)

    monkeypatch.setattr(nt, "is_probable_prime", spy)
    return calls
