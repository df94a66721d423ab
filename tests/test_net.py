import random
import socket
import threading
import time

import pytest

from p3p import net, wire
from p3p.errors import ProtocolError, ProtocolTimeout
from p3p.threepass import PaillierInitiatorSession
from p3p.wire import MsgType

from conftest import KEY15, ScriptedRandom


def run_pair(init_rng, resp_rng, message=7, hardened=True, timeout=5.0):
    init_channel, resp_channel = net.memory_channel_pair(timeout=timeout)
    session = PaillierInitiatorSession(KEY15, message)
    results = {}

    def responder():
        results["responder"] = net.run_responder(
            resp_channel, rng=resp_rng, hardened=hardened
        )

    worker = threading.Thread(target=responder)
    worker.start()
    results["initiator"] = net.run_initiator(init_channel, session, rng=init_rng)
    worker.join()
    return results["initiator"], results["responder"]


def test_memory_run_hardened_known_transcript():
    initiator, responder = run_pair(ScriptedRandom([2]), ScriptedRandom([2]))
    assert (initiator.pass1, initiator.pass2, initiator.pass3) == (83, 166, 11)
    assert responder.recovered == 7
    assert (responder.pass1, responder.pass2, responder.pass3) == (83, 166, 11)
    assert initiator.frames == responder.frames


def test_memory_run_plain_known_transcript():
    initiator, responder = run_pair(
        ScriptedRandom([2]), ScriptedRandom([4]), hardened=False
    )
    assert (initiator.pass1, initiator.pass2, initiator.pass3) == (83, 196, 13)
    assert responder.recovered == 7


def tcp_roundtrip(message, seed, hardened=True):
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
            hardened=hardened,
            timeout=10.0,
            rng_factory=lambda index: random.Random(seed + 1000 + index),
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
    connections = []

    def accept_and_hang():
        conn, _ = server.accept()
        connections.append(conn)  # keep open, never reply
        time.sleep(1.0)

    worker = threading.Thread(target=accept_and_hang, daemon=True)
    worker.start()
    session = PaillierInitiatorSession(KEY15, 7)
    with pytest.raises(ProtocolTimeout):
        net.send_over_tcp("127.0.0.1", port, session, timeout=0.3)
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


def test_responder_rejects_garbage_opening_frame():
    init_channel, resp_channel = net.memory_channel_pair(timeout=2.0)
    init_channel.send(b"\x00" * 32)
    with pytest.raises(ProtocolError, match="bad key announce"):
        net.run_responder(resp_channel)


def test_responder_rejects_unusable_announced_key():
    init_channel, resp_channel = net.memory_channel_pair(timeout=2.0)
    init_channel.send(wire.encode_msg(wire.key_announce(15, 15)))  # g not a unit
    with pytest.raises(ProtocolError, match="unusable"):
        net.run_responder(resp_channel)


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
