"""Run the homomorphic three-pass protocol between two endpoints.

The runner speaks whole wire frames over a minimal channel interface, so
the same code drives a TCP socket or an in-process queue pair (tests use
the latter; the bytes on either transport are identical under the same
randomness). Each outcome records the raw frames in conversation order
for transcript comparison.

A malformed or unexpected frame makes the runner send a best-effort ERROR
frame and raise ProtocolError, whichever transport carried it; a socket
checks each header before it reads the payload, so a bad header ends the
session at once. A silent peer raises ProtocolTimeout after the channel's
timeout. Over TCP that timeout is a deadline for the whole conversation,
so a peer that sends slowly cannot hold a session open either. The
runners never close their channel: the caller that opened it closes it, on
every path. The TCP entry points check port and timeout before any socket
call, and raise DomainError for one out of range. The listener runs each
session on a worker thread, at most MAX_PARALLEL_SESSIONS at once.
"""

import math
import queue
import random
import socket
import threading
import time
from typing import Callable

from . import numtheory as nt
from ._record import Record
from .errors import (
    DomainError,
    MalformedMessage,
    ParseError,
    ProtocolError,
    ProtocolTimeout,
)
from .paillier import PublicKey
from .threepass import PaillierInitiatorSession, PaillierResponderSession
from .wire import (
    HEADER_LEN,
    MsgType,
    WireMessage,
    check_header,
    decode_msg,
    encode_msg,
    error_message,
    key_announce,
    parse_key_announce,
    pass_message,
)

DEFAULT_TIMEOUT = 30.0
MAX_PARALLEL_SESSIONS = 16  # sessions serve_three_pass runs at once with parallel


class SocketChannel:
    """Frame transport over a connected TCP socket.

    ``timeout`` seconds after construction the channel stops waiting:
    every later send or receive raises ProtocolTimeout.
    """

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_TIMEOUT):
        self._sock = sock
        self._deadline = time.monotonic() + timeout

    def _narrow_timeout(self) -> None:
        """Let the next socket call wait only for what is left of the deadline."""
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise ProtocolTimeout("session deadline passed")
        self._sock.settimeout(left)

    def send(self, frame: bytes) -> None:
        self._narrow_timeout()
        try:
            self._sock.sendall(frame)
        except socket.timeout:
            raise ProtocolTimeout("peer stopped reading before the timeout") from None
        except OSError as exc:
            raise ProtocolError(f"send failed: {exc}") from exc

    def recv(self) -> bytes:
        header = self._read_exact(HEADER_LEN)
        _, length = check_header(header)
        return header + self._read_exact(length)

    def _read_exact(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            self._narrow_timeout()
            try:
                chunk = self._sock.recv(remaining)
            except socket.timeout:
                raise ProtocolTimeout("peer sent nothing before the timeout") from None
            except OSError as exc:
                raise ProtocolError(f"receive failed: {exc}") from exc
            if not chunk:
                raise ProtocolError("connection closed mid-conversation")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class MemoryChannel:
    """In-process frame transport; created in connected pairs."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue, timeout: float):
        self._inbox = inbox
        self._outbox = outbox
        self._timeout = timeout

    def send(self, frame: bytes) -> None:
        self._outbox.put(frame)

    def recv(self) -> bytes:
        try:
            frame = self._inbox.get(timeout=self._timeout)
        except queue.Empty:
            raise ProtocolTimeout("peer sent nothing before the timeout") from None
        if frame is None:
            raise ProtocolError("connection closed mid-conversation")
        return frame

    def close(self) -> None:
        self._outbox.put(None)


def memory_channel_pair(
    timeout: float = DEFAULT_TIMEOUT,
) -> tuple[MemoryChannel, MemoryChannel]:
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return (
        MemoryChannel(b_to_a, a_to_b, timeout),
        MemoryChannel(a_to_b, b_to_a, timeout),
    )


class InitiatorOutcome(Record):
    _fields = (
        "pass1",
        "pass2",
        "pass3",
        "frames",  # every frame sent or received, in order, as bytes
    )


class ResponderOutcome(Record):
    _fields = ("recovered", "pass1", "pass2", "pass3", "frames")


def _send(channel, frames: list, msg: WireMessage) -> None:
    frame = encode_msg(msg)
    channel.send(frame)
    frames.append(frame)


def _abort(channel, reason: str) -> ProtocolError:
    try:
        channel.send(encode_msg(error_message(reason)))
    except Exception:
        pass  # peer may already be gone; the local error is what matters
    return ProtocolError(reason)


def _recv_expect(
    channel, frames: list, expected: MsgType, pk: PublicKey
) -> WireMessage:
    try:
        frames.append(channel.recv())
        msg = decode_msg(frames[-1], pk)
    except ParseError as exc:
        raise MalformedMessage(f"bad frame: {exc}") from exc
    if msg.msg_type is MsgType.ERROR:
        raise ProtocolError(f"peer reported: {msg.error_text}")
    if msg.msg_type is not expected:
        raise MalformedMessage(f"expected {expected.name}, got {msg.msg_type.name}")
    return msg


def _announced_key(channel, frames: list) -> PublicKey:
    try:
        frames.append(channel.recv())
        n, g = parse_key_announce(decode_msg(frames[0]))
    except ParseError as exc:
        raise MalformedMessage(f"bad key announce: {exc}") from exc
    try:
        return PublicKey(n=n, g=g)
    except DomainError as exc:
        raise MalformedMessage(f"announced key is unusable: {exc}") from exc


def run_initiator(
    channel,
    session: PaillierInitiatorSession,
    rng: nt.RandomSource | None = None,
) -> InitiatorOutcome:
    """Drive the sender side over an open channel."""
    pk = session.sk.public
    frames: list[bytes] = []
    try:
        _send(channel, frames, key_announce(pk.n, pk.g))
        pass1 = session.step1_send(rng)
        _send(channel, frames, pass_message(MsgType.PASS1, pass1))
        pass2 = _recv_expect(channel, frames, MsgType.PASS2, pk).value
        pass3 = session.step3_reveal(pass2)
        _send(channel, frames, pass_message(MsgType.PASS3, pass3))
    except MalformedMessage as exc:
        raise _abort(channel, str(exc)) from exc
    return InitiatorOutcome(
        pass1=pass1, pass2=pass2, pass3=pass3, frames=tuple(frames)
    )


def run_responder(
    channel, rng: nt.RandomSource | None = None
) -> ResponderOutcome:
    """Drive the receiver side; returns a ResponderOutcome."""
    frames: list[bytes] = []
    try:
        pk = _announced_key(channel, frames)
        session = PaillierResponderSession(pk)
        pass1 = _recv_expect(channel, frames, MsgType.PASS1, pk).value
        pass2 = session.step2_respond(pass1, rng)
        _send(channel, frames, pass_message(MsgType.PASS2, pass2))
        pass3 = _recv_expect(channel, frames, MsgType.PASS3, pk).value
        recovered = session.step4_recover(pass3)
    except MalformedMessage as exc:
        raise _abort(channel, str(exc)) from exc
    return ResponderOutcome(
        recovered=recovered, pass1=pass1, pass2=pass2, pass3=pass3, frames=tuple(frames)
    )


def _check_endpoint(port: int, lowest_port: int, timeout: float) -> None:
    if not lowest_port <= port <= 65535:
        raise DomainError(f"port must be in {lowest_port}..65535")
    if not 0 < timeout < math.inf:
        raise DomainError("timeout must be a finite number > 0")


def send_over_tcp(
    host: str,
    port: int,
    session: PaillierInitiatorSession,
    rng: nt.RandomSource | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> InitiatorOutcome:
    """Connect to a listening responder and run the initiator role."""
    _check_endpoint(port, 1, timeout)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except socket.timeout:
        raise ProtocolTimeout(f"no connection to {host}:{port}") from None
    except OSError as exc:
        raise ProtocolError(f"connect to {host}:{port} failed: {exc}") from exc
    channel = SocketChannel(sock, timeout=timeout)
    try:
        return run_initiator(channel, session, rng)
    finally:
        channel.close()


def serve_three_pass(
    port: int = 0,
    host: str = "127.0.0.1",
    sessions: int = 1,
    parallel: bool = False,
    timeout: float = DEFAULT_TIMEOUT,
    seed: int | None = None,
    on_listening: Callable[[int], None] | None = None,
    on_outcome: Callable[[ResponderOutcome], None] | None = None,
) -> list[ResponderOutcome]:
    """Accept ``sessions`` connections and run the responder on each.

    Each session runs on a worker thread and shares no state with the
    others; ``parallel`` lets MAX_PARALLEL_SESSIONS run at once, not one.
    Further clients wait in the listen queue, and their ``timeout`` (which
    bounds a session) starts at accept. With a ``seed``, session i (counted
    from 0 in accept order) draws from ``random.Random(seed + i)``; without
    one, from OS entropy. ``on_outcome`` runs once per completed session,
    never for two sessions at once; the outcomes are returned only when it
    is not given. A failed session, including one whose ``on_outcome``
    raised, does not stop the others: after all ``sessions`` have run, the
    first failure is raised. A failed accept or an interrupt is raised once
    the accepted sessions have ended. Nothing of a session is kept once it
    has ended and been reported, so memory does not grow with the sessions
    served. Waiting for a connection is not bounded. A ``host`` with a
    colon is an IPv6 literal. An address that cannot be listened on raises
    ProtocolError.
    """
    _check_endpoint(port, 0, timeout)
    outcomes: list[ResponderOutcome] = []
    report = on_outcome or outcomes.append
    failures: list[Exception] = []  # the first failure only
    lock = threading.Lock()
    capacity = MAX_PARALLEL_SESSIONS if parallel else 1
    slots = threading.BoundedSemaphore(capacity)

    def handle(conn: socket.socket, index: int) -> None:
        channel = SocketChannel(conn, timeout=timeout)
        try:
            rng = None if seed is None else random.Random(seed + index)
            outcome = run_responder(channel, rng)
            with lock:
                report(outcome)
        except Exception as exc:
            with lock:
                if not failures:
                    failures.append(exc)
        finally:
            channel.close()
            slots.release()

    try:
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        server = socket.create_server((host, port), family=family)
    except OSError as exc:
        raise ProtocolError(f"cannot listen on {host}:{port}: {exc}") from exc
    with server:
        if on_listening:
            on_listening(server.getsockname()[1])
        try:
            for index in range(sessions):
                slots.acquire()
                conn = None
                try:
                    conn, _ = server.accept()
                    threading.Thread(
                        target=handle, args=(conn, index), daemon=True
                    ).start()
                except BaseException:  # no worker will give this slot back
                    if conn is not None:
                        conn.close()
                    slots.release()
                    raise
        finally:
            for _ in range(capacity):  # every slot back: every session has ended
                slots.acquire()
    if failures:
        raise failures[0]
    return outcomes
