import gc
import hashlib
import math
import random
import socket
import sys
import threading
import time
import types
import weakref

import pytest

from p3p import net, paillier, wire
from p3p.errors import DomainError, ProtocolError, ProtocolTimeout
from p3p.threepass import PaillierInitiatorSession
from p3p.wire import MsgType

from conftest import KEY15, ScriptedRandom, read_to_end


def run_pair(init_rng, resp_rng, message=7, timeout=5.0, sk=KEY15):
    init_channel, resp_channel = net.memory_channel_pair(timeout=timeout)
    session = PaillierInitiatorSession(sk, message)
    results = {}

    def responder():
        results["responder"] = net.run_responder(resp_channel, rng=resp_rng)

    worker = threading.Thread(target=responder)
    worker.start()
    results["initiator"] = net.run_initiator(init_channel, session, rng=init_rng)
    worker.join()
    return results["initiator"], results["responder"]


def test_memory_run_known_transcript():
    initiator, responder = run_pair(ScriptedRandom([2]), ScriptedRandom([2]))
    assert (initiator.pass1, initiator.pass2, initiator.pass3) == (83, 139, 14)
    assert initiator.pass2 == pow(83, 2, 225)
    assert initiator.pass3 == 7 * 2 % 15
    assert responder.recovered == 7
    assert (responder.pass1, responder.pass2, responder.pass3) == (83, 139, 14)
    assert initiator.frames == responder.frames


def tcp_roundtrip(message, seed):
    port_holder = {}
    listening = threading.Event()
    outcomes = {}

    def on_listening(port):
        port_holder["port"] = port
        listening.set()

    def server():
        outcomes["responder"] = net.serve_three_pass(
            port=0,
            sessions=1,
            timeout=10.0,
            seed=seed + 1000,
            on_listening=on_listening,
        )[0]

    worker = threading.Thread(target=server)
    worker.start()
    assert listening.wait(5.0)
    session = PaillierInitiatorSession(KEY15, message)
    outcomes["initiator"] = net.send_over_tcp(
        "127.0.0.1", port_holder["port"], session, rng=random.Random(seed), timeout=10.0
    )
    worker.join()
    return outcomes["initiator"], outcomes["responder"]


def test_tcp_roundtrip_recovers_message():
    initiator, responder = tcp_roundtrip(11, seed=5)
    assert responder.recovered == 11
    assert initiator.frames == responder.frames


def test_tcp_and_memory_transcripts_byte_identical_under_same_seed():
    tcp_init, _ = tcp_roundtrip(9, seed=77)
    mem_init, _ = run_pair(random.Random(77), random.Random(77 + 1000), message=9)
    assert tcp_init.frames == mem_init.frames


def test_initiator_times_out_on_silent_responder():
    init_channel, _ = net.memory_channel_pair(timeout=0.2)
    session = PaillierInitiatorSession(KEY15, 7)
    with pytest.raises(ProtocolTimeout):
        net.run_initiator(init_channel, session, rng=ScriptedRandom([2]))


def test_initiator_times_out_on_hanging_tcp_peer():
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]
    released = threading.Event()

    def accept_and_hang():
        conn, _ = server.accept()
        with conn:
            released.wait(5.0)  # keep open, never reply

    worker = threading.Thread(target=accept_and_hang, daemon=True)
    worker.start()
    session = PaillierInitiatorSession(KEY15, 7)
    with pytest.raises(ProtocolTimeout):
        net.send_over_tcp("127.0.0.1", port, session, timeout=0.3)
    released.set()
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    server.close()


def test_initiator_sees_disconnect_as_protocol_error():
    server = socket.create_server(("127.0.0.1", 0))
    port = server.getsockname()[1]

    def accept_and_drop():
        conn, _ = server.accept()
        conn.recv(4096)  # swallow whatever arrives, then vanish
        conn.close()

    worker = threading.Thread(target=accept_and_drop, daemon=True)
    worker.start()
    session = PaillierInitiatorSession(KEY15, 7)
    with pytest.raises(ProtocolError):
        net.send_over_tcp("127.0.0.1", port, session, timeout=2.0)
    worker.join()
    server.close()


def test_initiator_rejects_error_frame_from_peer():
    init_channel, resp_channel = net.memory_channel_pair(timeout=2.0)

    def fake_responder():
        resp_channel.recv()  # key announce
        resp_channel.recv()  # first pass
        resp_channel.send(wire.encode_msg(wire.error_message("nope")))

    worker = threading.Thread(target=fake_responder)
    worker.start()
    session = PaillierInitiatorSession(KEY15, 7)
    with pytest.raises(ProtocolError, match="peer reported"):
        net.run_initiator(init_channel, session, rng=ScriptedRandom([2]))
    worker.join()


def test_initiator_rejects_wrong_frame_type():
    init_channel, resp_channel = net.memory_channel_pair(timeout=2.0)

    def fake_responder():
        resp_channel.recv()
        resp_channel.recv()
        resp_channel.send(wire.encode_msg(wire.pass_message(MsgType.PASS3, 3)))

    worker = threading.Thread(target=fake_responder)
    worker.start()
    session = PaillierInitiatorSession(KEY15, 7)
    with pytest.raises(ProtocolError, match="expected PASS2"):
        net.run_initiator(init_channel, session, rng=ScriptedRandom([2]))
    worker.join()


def test_initiator_rejects_out_of_range_reply_and_reports_it():
    init_channel, resp_channel = net.memory_channel_pair(timeout=2.0)
    seen = {}

    def fake_responder():
        resp_channel.recv()
        resp_channel.recv()
        resp_channel.send(wire.encode_msg(wire.pass_message(MsgType.PASS2, 225)))
        seen["reply"] = wire.decode_msg(resp_channel.recv())

    worker = threading.Thread(target=fake_responder)
    worker.start()
    session = PaillierInitiatorSession(KEY15, 7)
    with pytest.raises(ProtocolError, match="bad frame"):
        net.run_initiator(init_channel, session, rng=ScriptedRandom([2]))
    worker.join()
    assert seen["reply"].msg_type is MsgType.ERROR


@pytest.mark.parametrize("transport", ["memory", "tcp"])
def test_initiator_will_not_decrypt_a_foreign_ciphertext(transport):
    # a responder that answers pass 1 with a ciphertext of its own choosing
    # would otherwise read its plaintext off pass 3
    sk = paillier.keygen(64, rng=random.Random("foreign"))
    foreign = paillier.encrypt(sk.public, 424242, random.Random(5)).value
    replies = []

    def respond(channel):
        channel.recv()  # key announce
        channel.recv()  # first pass
        channel.send(wire.encode_msg(wire.pass_message(MsgType.PASS2, foreign)))
        replies.append(wire.decode_msg(channel.recv(), sk.public))

    session = PaillierInitiatorSession(sk, 7)
    expected = pytest.raises(ProtocolError, match="second pass is not a power of the first")
    if transport == "memory":
        init_channel, resp_channel = net.memory_channel_pair(timeout=5.0)
        worker = threading.Thread(target=respond, args=(resp_channel,))
        worker.start()
        with expected:
            net.run_initiator(init_channel, session, rng=random.Random(1))
    else:
        server = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = server.accept()
            channel = net.SocketChannel(conn, timeout=5.0)
            try:
                respond(channel)
            finally:
                channel.close()

        worker = threading.Thread(target=serve)
        worker.start()
        with server, expected:
            net.send_over_tcp("127.0.0.1", server.getsockname()[1], session,
                              rng=random.Random(1), timeout=5.0)
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    (reply,) = replies
    assert reply.msg_type is MsgType.ERROR


def test_a_send_the_peer_never_reads_times_out():
    ours, theirs = socket.socketpair()
    with ours, theirs:
        for sock in (ours, theirs):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        channel = net.SocketChannel(ours, timeout=0.3)
        started = time.monotonic()
        with pytest.raises(ProtocolTimeout, match="stopped reading"):
            channel.send(bytes(1 << 20))
        assert time.monotonic() - started < 2.0


def test_responder_rejects_garbage_opening_frame():
    init_channel, resp_channel = net.memory_channel_pair(timeout=2.0)
    init_channel.send(b"\x00" * 32)
    with pytest.raises(ProtocolError, match="bad key announce"):
        net.run_responder(resp_channel)


def test_responder_rejects_unusable_announced_key():
    # g not a unit, g a unit modulo n^2 but not below it, and a residue base
    # other than n + 1
    for n, g in ((15, 15), (15, 226), (15, 2)):
        init_channel, resp_channel = net.memory_channel_pair(timeout=2.0)
        init_channel.send(wire.encode_msg(wire.key_announce(n, g)))
        with pytest.raises(ProtocolError, match="unusable"):
            net.run_responder(resp_channel)
        reply = wire.decode_msg(init_channel.recv())
        assert reply.msg_type is MsgType.ERROR
        assert reply.error_text == "announced key is unusable: base must be n + 1"


def test_parallel_sessions_are_independent():
    listening = threading.Event()
    port_holder = {}

    def on_listening(port):
        port_holder["port"] = port
        listening.set()

    server = threading.Thread(
        target=lambda: port_holder.update(
            outcomes=net.serve_three_pass(
                port=0,
                sessions=3,
                parallel=True,
                timeout=10.0,
                on_listening=on_listening,
            )
        )
    )
    server.start()
    assert listening.wait(5.0)

    def send(message):
        session = PaillierInitiatorSession(KEY15, message)
        return net.send_over_tcp(
            "127.0.0.1", port_holder["port"], session, timeout=10.0
        )

    senders = [threading.Thread(target=send, args=(m,)) for m in (3, 8, 12)]
    for t in senders:
        t.start()
    for t in senders:
        t.join()
    server.join()
    recovered = sorted(o.recovered for o in port_holder["outcomes"])
    assert recovered == [3, 8, 12]


@pytest.mark.parametrize("parallel", [False, True])
def test_serve_keeps_serving_after_a_failed_session(parallel):
    listening = threading.Event()
    port_holder = {}
    result = {}
    recovered = []

    def on_listening(port):
        port_holder["port"] = port
        listening.set()

    def server():
        try:
            result["outcomes"] = net.serve_three_pass(
                port=0, sessions=2, parallel=parallel, timeout=10.0,
                on_listening=on_listening,
                on_outcome=lambda outcome: recovered.append(outcome.recovered),
            )
        except Exception as exc:
            result["error"] = exc

    worker = threading.Thread(target=server)
    worker.start()
    assert listening.wait(5.0)
    with socket.create_connection(("127.0.0.1", port_holder["port"]), timeout=5.0) as bad:
        bad.sendall(b"\x00" * 32)
        bad.recv(1024)  # the responder's ERROR frame: that session is over
    session = PaillierInitiatorSession(KEY15, 12)
    net.send_over_tcp("127.0.0.1", port_holder["port"], session, timeout=10.0)
    worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert recovered == [12]
    assert "outcomes" not in result
    assert isinstance(result["error"], ProtocolError)
    assert "bad key announce" in str(result["error"])


def start_listener(result, **options):
    """Run serve_three_pass in a thread; its return or raise lands in ``result``."""
    listening = threading.Event()
    port_holder = {}

    def on_listening(port):
        port_holder["port"] = port
        listening.set()

    def server():
        try:
            result["outcomes"] = net.serve_three_pass(
                port=0, timeout=10.0, on_listening=on_listening, **options
            )
        except Exception as exc:
            result["error"] = exc

    worker = threading.Thread(target=server)
    worker.start()
    assert listening.wait(5.0)
    return worker, port_holder["port"]


def send_garbage(port):
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as bad:
        bad.sendall(b"\x00" * 32)
        bad.recv(1024)  # the responder's ERROR frame
        bad.recv(1024)  # b"": the responder has closed the connection


@pytest.mark.parametrize("parallel", [False, True])
def test_a_raising_report_is_only_that_sessions_failure(parallel):
    result = {}
    recovered = []

    def report(outcome):
        if outcome.recovered == 5:
            raise ValueError("report failed")
        recovered.append(outcome.recovered)

    worker, port = start_listener(
        result, sessions=2, parallel=parallel, on_outcome=report
    )
    for message in (5, 12):
        session = PaillierInitiatorSession(KEY15, message)
        net.send_over_tcp("127.0.0.1", port, session, timeout=10.0)
    worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert recovered == [12]
    assert "outcomes" not in result
    assert isinstance(result["error"], ValueError)


def test_seeded_listener_seeds_session_i_with_seed_plus_i():
    # a 64-bit modulus, so two seeds all but never draw the same secret
    sk = paillier.keygen(32, rng=random.Random("listener"))
    seed, messages = 40, (6, 13)
    result = {}
    worker, port = start_listener(result, sessions=2, seed=seed)
    sent = []
    for index, message in enumerate(messages):
        session = PaillierInitiatorSession(sk, message)
        sent.append(net.send_over_tcp(
            "127.0.0.1", port, session, rng=random.Random(index), timeout=10.0
        ))
    worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert "error" not in result
    for index, (message, initiator, outcome) in enumerate(
        zip(messages, sent, result["outcomes"])
    ):
        _, expected = run_pair(
            random.Random(index), random.Random(seed + index), message, sk=sk
        )
        assert outcome.recovered == message
        assert outcome.frames == initiator.frames == expected.frames


def announce_failures():
    gc.collect()
    return sum(
        isinstance(obj, ProtocolError) and "bad key announce" in str(obj)
        for obj in gc.get_objects()
    )


@pytest.mark.parametrize("parallel", [False, True])
def test_listener_keeps_nothing_of_finished_sessions(parallel):
    garbage, honest = 3, 10
    failures_before = announce_failures()
    result = {}
    outcomes = []  # weak references, one per reported session
    workers = []
    seen = {}
    reported = threading.Event()

    def report(outcome):
        if len(outcomes) == honest - 1:
            seen["failures"] = announce_failures() - failures_before
            seen["outcomes"] = sum(ref() is not None for ref in outcomes)
            seen["workers"] = sum(ref() is not None for ref in workers)
        outcomes.append(weakref.ref(outcome))
        workers.append(weakref.ref(threading.current_thread()))
        reported.set()

    worker, port = start_listener(
        result, sessions=garbage + honest, parallel=parallel, on_outcome=report
    )
    for _ in range(garbage):
        send_garbage(port)
    for message in range(honest):
        reported.clear()
        session = PaillierInitiatorSession(KEY15, message)
        net.send_over_tcp("127.0.0.1", port, session, timeout=10.0)
        assert reported.wait(5.0)
        # let its thread end before the next accept; keep no reference
        finished = workers[-1]()
        if finished is not None:
            finished.join(5.0)
        del finished
    worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert seen == {"failures": 1, "outcomes": 0, "workers": 0}
    assert "outcomes" not in result
    assert "bad key announce" in str(result["error"])


@pytest.mark.parametrize("parallel", [False, True])
def test_a_full_listener_leaves_the_next_client_queued_until_a_slot_frees(
    monkeypatch, parallel
):
    monkeypatch.setattr(net, "MAX_PARALLEL_SESSIONS", 2)
    slots = 2 if parallel else 1
    result = {}
    worker, port = start_listener(result, sessions=slots + 1, parallel=parallel)
    idle = [socket.create_connection(("127.0.0.1", port), timeout=5.0)
            for _ in range(slots)]
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=0.5) as queued:
            queued.sendall(b"\x00" * 32)
            with pytest.raises(socket.timeout):
                queued.recv(1024)  # not accepted: every slot holds an idle session
            idle.pop().close()
            queued.settimeout(5.0)
            reply = wire.decode_msg(read_to_end(queued))
        assert reply.msg_type is MsgType.ERROR
    finally:
        for conn in idle:
            conn.close()
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    assert isinstance(result["error"], ProtocolError)


def test_concurrent_sessions_never_outnumber_the_slots(monkeypatch):
    monkeypatch.setattr(net, "MAX_PARALLEL_SESSIONS", 2)
    running, peak = [0], [0]
    guard = threading.Lock()
    run_responder = net.run_responder

    def counted(channel, rng=None):
        with guard:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        try:
            return run_responder(channel, rng)
        finally:
            with guard:
                running[0] -= 1

    monkeypatch.setattr(net, "run_responder", counted)
    messages = range(1, 7)  # more clients than slots, and than cores
    result = {}
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker, port = start_listener(result, sessions=len(messages), parallel=True)

        def send(message):
            session = PaillierInitiatorSession(KEY15, message)
            net.send_over_tcp("127.0.0.1", port, session, timeout=10.0)

        senders = [threading.Thread(target=send, args=(m,)) for m in messages]
        for sender in senders:
            sender.start()
        for sender in senders:
            sender.join(timeout=10.0)
        worker.join(timeout=10.0)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not worker.is_alive()
    assert not any(sender.is_alive() for sender in senders)
    assert sorted(o.recovered for o in result["outcomes"]) == list(messages)
    assert 1 <= peak[0] <= 2


class FailingServer:
    """A listening socket whose accept fails, or hands over ``conn``."""

    def __init__(self, conn=None):
        self.conn = conn

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass

    def getsockname(self):
        return ("127.0.0.1", 1)

    def accept(self):
        if self.conn is None:
            raise OSError("accept failed")
        return self.conn, ("127.0.0.1", 2)


class UnstartableThread(threading.Thread):
    def start(self):
        raise RuntimeError("can't start new thread")


@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("failing", ["accept", "thread-start"])
def test_a_listener_that_cannot_start_a_session_raises_and_frees_its_slot(
    monkeypatch, parallel, failing
):
    conn, peer = socket.socketpair() if failing == "thread-start" else (None, None)
    monkeypatch.setattr(socket, "create_server", lambda *a, **k: FailingServer(conn))
    if conn is not None:
        monkeypatch.setattr(net, "threading", types.SimpleNamespace(
            Thread=UnstartableThread, Lock=threading.Lock,
            BoundedSemaphore=threading.BoundedSemaphore,
        ))
    result = {}

    def server():
        try:
            net.serve_three_pass(port=0, sessions=3, parallel=parallel)
        except Exception as exc:
            result["error"] = exc

    worker = threading.Thread(target=server, daemon=True)
    worker.start()
    worker.join(timeout=5.0)
    try:
        assert not worker.is_alive()  # no slot left taken for the final wait
        if conn is None:
            assert type(result["error"]) is OSError
        else:
            assert type(result["error"]) is RuntimeError
            assert conn.fileno() == -1  # the accepted socket was closed
    finally:
        if conn is not None:
            conn.close()
            peer.close()


# sha256 of the frames of one seeded session, whose pass 2 is pass 1 raised
# to the responder's first draw (checked below). How the key owner computes
# x^n must not change them.
PINNED_SESSION_SHA256 = "8574912a8a809452df3bd7b748ceb248bb9c1d0379a26b228dbc7c33466a610d"


def test_seeded_512_bit_session_frames_are_pinned():
    sk = paillier.keygen(256, rng=random.Random("pinned-session"))
    message = random.Random("pinned-message").randrange(sk.public.n)
    init_channel, resp_channel = net.memory_channel_pair(timeout=10.0)
    results = {}
    worker = threading.Thread(target=lambda: results.update(
        responder=net.run_responder(resp_channel, rng=random.Random(2))
    ))
    worker.start()
    initiator = net.run_initiator(
        init_channel, PaillierInitiatorSession(sk, message), rng=random.Random(1)
    )
    worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert results["responder"].recovered == message
    assert results["responder"].frames == initiator.frames
    n = sk.public.n
    m2 = random.Random(2).randrange(1, n)  # the responder's first draw, a unit
    assert math.gcd(m2, n) == 1
    assert initiator.pass2 == pow(initiator.pass1, m2, n * n)
    digest = hashlib.sha256(b"".join(initiator.frames)).hexdigest()
    assert digest == PINNED_SESSION_SHA256


def test_idle_listener_keeps_waiting_past_the_session_timeout():
    listening = threading.Event()
    port_holder = {}
    result = {}

    def on_listening(port):
        port_holder["port"] = port
        listening.set()

    def server():
        try:
            result["outcomes"] = net.serve_three_pass(
                port=0, sessions=2, timeout=0.3, on_listening=on_listening
            )
        except Exception as exc:
            result["error"] = exc

    worker = threading.Thread(target=server, daemon=True)
    worker.start()
    assert listening.wait(5.0)
    for message, idle in ((4, 0.8), (13, 0.0)):
        session = PaillierInitiatorSession(KEY15, message)
        net.send_over_tcp("127.0.0.1", port_holder["port"], session, timeout=5.0)
        time.sleep(idle)
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    assert "error" not in result
    assert sorted(o.recovered for o in result["outcomes"]) == [4, 13]


def test_drip_peer_hits_the_session_deadline():
    # a valid frame, one byte every 50 ms: each byte comes well inside the
    # timeout, the whole frame never does
    frame = wire.encode_msg(wire.key_announce(2**2048 + 1, 3))
    stop = threading.Event()

    def drip(port):
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            for byte in frame[:60]:
                if stop.is_set():
                    return
                try:
                    sock.sendall(bytes([byte]))
                except OSError:
                    return  # the responder gave up and closed
                time.sleep(0.05)
            stop.wait(5.0)

    dripper = []

    def on_listening(port):
        dripper.append(threading.Thread(target=drip, args=(port,), daemon=True))
        dripper[0].start()

    started = time.monotonic()
    try:
        with pytest.raises(ProtocolTimeout):
            net.serve_three_pass(port=0, sessions=1, timeout=0.5, on_listening=on_listening)
        assert time.monotonic() - started < 2.0
    finally:
        stop.set()
        dripper[0].join(timeout=5.0)
    assert not dripper[0].is_alive()


def test_ipv6_loopback_session():
    sk = paillier.keygen(64, rng=random.Random("ipv6"))
    result = {}
    worker, port = start_listener(result, host="::1", seed=9)
    session = PaillierInitiatorSession(sk, 21)
    initiator = net.send_over_tcp("::1", port, session, rng=random.Random(1), timeout=10.0)
    worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert "error" not in result
    (outcome,) = result["outcomes"]
    assert outcome.recovered == 21
    assert outcome.frames == initiator.frames


@pytest.mark.parametrize("header", [
    b"JUNK" + bytes((1, 0)) + (64 << 10).to_bytes(4, "big"),  # bad magic, 64 KiB
    wire.MAGIC + bytes((1, 0)) + (wire.MAX_PAYLOAD + 1).to_bytes(4, "big"),
], ids=["bad-magic", "oversized"])
def test_a_bad_header_ends_its_tcp_session_at_once_with_an_error_frame(header):
    result = {}
    started = time.monotonic()
    worker, port = start_listener(result, sessions=1)  # a 10 s session timeout
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as peer:
        peer.sendall(header)  # and no payload: the responder must not wait for one
        reply = wire.decode_msg(read_to_end(peer))
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    assert time.monotonic() - started < 1.5
    assert reply.msg_type is MsgType.ERROR
    assert reply.error_text.startswith("bad key announce: ")
    assert type(result["error"]) is ProtocolError


def test_responder_answers_a_huge_pass_with_an_error_frame():
    init_channel, resp_channel = net.memory_channel_pair(timeout=2.0)
    init_channel.send(wire.encode_msg(wire.key_announce(15, 16)))
    # 20,001 bits: Python refuses to print it in decimal
    init_channel.send(wire.encode_msg(wire.pass_message(MsgType.PASS1, 1 << 20000)))
    with pytest.raises(ProtocolError, match="PASS1 payload is not below n\\^2"):
        net.run_responder(resp_channel)
    reply = wire.decode_msg(init_channel.recv())
    assert reply.msg_type is MsgType.ERROR


BAD_PORTS = [-1, 65536, 70000, 2**70]  # getaddrinfo wraps 70000 to 4464


@pytest.mark.parametrize("port", [0, *BAD_PORTS])
def test_send_rejects_a_port_outside_range_before_connecting(no_sockets, port):
    session = PaillierInitiatorSession(KEY15, 7)
    with pytest.raises(DomainError) as caught:
        net.send_over_tcp("127.0.0.1", port, session)
    assert str(caught.value) == "port must be in 1..65535"


@pytest.mark.parametrize("port", BAD_PORTS)
def test_serve_rejects_a_port_outside_range_before_binding(no_sockets, port):
    with pytest.raises(DomainError) as caught:
        net.serve_three_pass(port=port)
    assert str(caught.value) == "port must be in 0..65535"


@pytest.mark.parametrize("timeout", [math.nan, math.inf, -1.0, 0.0], ids=str)
def test_tcp_entry_points_reject_a_timeout_not_finite_and_positive(no_sockets, timeout):
    session = PaillierInitiatorSession(KEY15, 7)
    for start in (lambda: net.send_over_tcp("127.0.0.1", 1, session, timeout=timeout),
                  lambda: net.serve_three_pass(timeout=timeout)):
        with pytest.raises(DomainError) as caught:
            start()
        assert str(caught.value) == "timeout must be a finite number > 0"
