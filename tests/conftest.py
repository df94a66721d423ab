import faulthandler
import os
import socket
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


WATCHDOG_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # stderr as it is now, before output capture redirects fd 2
    fd = config.stash[WATCHDOG_FD] = os.dup(2)
    config.add_cleanup(lambda: os.close(fd))


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    """The per-test watchdog of pyproject.toml, also while a module is
    imported: a module-level call that hangs ends the run with every
    thread's traceback instead of stalling it."""
    config = collector.config
    timeout = float(config.getini("faulthandler_timeout") or 0)
    if not timeout:
        return (yield)
    faulthandler.dump_traceback_later(
        timeout,
        exit=config.getini("faulthandler_exit_on_timeout"),
        file=config.stash[WATCHDOG_FD],
    )
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def no_sockets(monkeypatch):
    """Make opening a TCP socket fail the test, for calls that must be
    rejected before they connect or listen."""

    def refuse(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(socket, "create_connection", refuse)
    monkeypatch.setattr(socket, "create_server", refuse)


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
