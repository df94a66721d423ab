import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from p3p import encoding, wire
from p3p.errors import DomainError, ParseError, RangeError
from p3p.wire import MsgType, WireMessage

from conftest import KEY15

PK15 = KEY15.public


def test_pass1_golden_vector():
    frame = wire.encode_msg(wire.pass_message(MsgType.PASS1, 83))
    assert frame == bytes.fromhex("5033505001010000000153")
    decoded = wire.decode_msg(frame, PK15)
    assert decoded.msg_type is MsgType.PASS1
    assert decoded.value == 83


def test_key_announce_golden_vector():
    frame = wire.encode_msg(wire.key_announce(15, 16))
    assert frame == bytes.fromhex("5033505001000000000a000000010f0000000110")
    assert wire.parse_key_announce(wire.decode_msg(frame)) == (15, 16)


@pytest.mark.parametrize("payload", [
    bytes.fromhex("000000010f000000011000"),  # a trailing byte
    bytes.fromhex("000000010f0000000110")[:-1],  # g truncated
    bytes.fromhex("000000010f"),  # g missing
])
def test_key_announce_holds_exactly_two_fields(payload):
    with pytest.raises(ParseError):
        wire.parse_key_announce(WireMessage(MsgType.KEY_ANNOUNCE, payload))


def test_zero_payload_is_canonical_empty():
    frame = wire.encode_msg(wire.pass_message(MsgType.PASS3, 0))
    assert frame == bytes.fromhex("50335050010300000000")
    assert wire.decode_msg(frame, PK15).value == 0


def test_error_frame_roundtrip():
    msg = wire.error_message("it broke")
    decoded = wire.decode_msg(wire.encode_msg(msg))
    assert decoded.msg_type is MsgType.ERROR
    assert decoded.error_text == "it broke"


def test_error_frame_tolerates_bad_utf8():
    decoded = wire.decode_msg(wire.encode_msg(WireMessage(MsgType.ERROR, b"\xff\xfe")))
    assert decoded.error_text  # replaced, never raises


@given(
    msg_type=st.sampled_from([MsgType.PASS1, MsgType.PASS2, MsgType.PASS3]),
    value=st.integers(min_value=0, max_value=1 << 256),
)
def test_pass_roundtrip(msg_type, value):
    msg = wire.pass_message(msg_type, value)
    decoded = wire.decode_msg(wire.encode_msg(msg))
    assert decoded == msg
    assert decoded.value == value


@given(n=st.integers(min_value=2, max_value=1 << 128), g=st.integers(min_value=0, max_value=1 << 128))
def test_key_announce_roundtrip(n, g):
    decoded = wire.decode_msg(wire.encode_msg(wire.key_announce(n, g)))
    assert wire.parse_key_announce(decoded) == (n, g)


def test_short_frame_rejected():
    with pytest.raises(ParseError):
        wire.decode_msg(b"P3PP")


def test_bad_magic_rejected():
    frame = bytearray(wire.encode_msg(wire.pass_message(MsgType.PASS1, 83)))
    frame[0] = 0x51
    with pytest.raises(ParseError) as excinfo:
        wire.decode_msg(bytes(frame))
    assert excinfo.value.offset == 0


def test_unknown_version_rejected():
    frame = bytearray(wire.encode_msg(wire.pass_message(MsgType.PASS1, 83)))
    frame[4] = 2
    with pytest.raises(ParseError) as excinfo:
        wire.decode_msg(bytes(frame))
    assert excinfo.value.offset == 4


def test_unknown_type_rejected():
    frame = bytearray(wire.encode_msg(wire.pass_message(MsgType.PASS1, 83)))
    frame[5] = 9
    with pytest.raises(ParseError) as excinfo:
        wire.decode_msg(bytes(frame))
    assert excinfo.value.offset == 5


def test_length_mismatch_rejected():
    frame = wire.encode_msg(wire.pass_message(MsgType.PASS1, 83))
    with pytest.raises(ParseError):
        wire.decode_msg(frame + b"\x00")
    with pytest.raises(ParseError):
        wire.decode_msg(frame[:-1])


def test_oversized_declared_length_rejected():
    header = wire.MAGIC + bytes((1, 1)) + (wire.MAX_PAYLOAD + 1).to_bytes(4, "big")
    with pytest.raises(ParseError, match="cap"):
        wire.decode_msg(header)


def test_non_canonical_integer_rejected():
    frame = wire.MAGIC + bytes((1, 1)) + (2).to_bytes(4, "big") + b"\x00\x53"
    with pytest.raises(ParseError, match="non-canonical"):
        wire.decode_msg(frame)


def test_payload_bounds_checked_against_key():
    for msg_type in (MsgType.PASS1, MsgType.PASS2):
        ok = wire.encode_msg(wire.pass_message(msg_type, 224))
        assert wire.decode_msg(ok, PK15).value == 224
        too_big = wire.encode_msg(wire.pass_message(msg_type, 225))
        with pytest.raises(RangeError):
            wire.decode_msg(too_big, PK15)
    assert wire.decode_msg(
        wire.encode_msg(wire.pass_message(MsgType.PASS3, 14)), PK15
    ).value == 14
    with pytest.raises(RangeError):
        wire.decode_msg(wire.encode_msg(wire.pass_message(MsgType.PASS3, 15)), PK15)


def test_bounds_not_checked_without_key():
    frame = wire.encode_msg(wire.pass_message(MsgType.PASS1, 10**9))
    assert wire.decode_msg(frame).value == 10**9


def test_pass_message_type_guard():
    with pytest.raises(ValueError):
        wire.pass_message(MsgType.KEY_ANNOUNCE, 5)


def random_frame(rng):
    """Mix of garbage, plausible headers, bit-flipped frames, and valid ones."""
    kind = rng.randrange(4)
    if kind == 0:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 48)))
    if kind == 1:
        return (
            wire.MAGIC
            + bytes((rng.randrange(4), rng.randrange(8)))
            + rng.randrange(1 << 16).to_bytes(4, "big")
            + bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        )
    if kind == 2:
        frame = bytearray(
            wire.encode_msg(
                wire.pass_message(
                    MsgType(rng.randrange(1, 4)), rng.randrange(1, 1 << 64)
                )
            )
        )
        frame[rng.randrange(len(frame))] ^= 1 << rng.randrange(8)
        return bytes(frame)
    # structurally valid, value small enough for any key's bounds
    return wire.encode_msg(
        wire.pass_message(MsgType(rng.randrange(1, 4)), rng.randrange(1, 15))
    )


def test_fuzzed_frames_never_crash():
    rng = random.Random(0xF00D)
    decoded = failed = 0
    for _ in range(2000):
        data = random_frame(rng)
        try:
            wire.decode_msg(data, PK15)
            decoded += 1
        except (ParseError, RangeError):
            failed += 1
    assert decoded + failed == 2000
    assert decoded > 0 and failed > 0


def test_a_range_fault_is_a_parse_error_at_the_payload():
    frame = wire.encode_msg(wire.pass_message(MsgType.PASS3, 15))
    with pytest.raises(ParseError) as caught:
        wire.decode_msg(frame, KEY15.public)
    assert type(caught.value) is RangeError
    assert caught.value.offset == wire.HEADER_LEN


@pytest.mark.parametrize("build", [
    lambda: encoding.int_to_bytes(-1),
    lambda: wire.pass_message(MsgType.PASS1, -1),
    lambda: wire.key_announce(-1, 2),
    lambda: wire.encode_msg(WireMessage(MsgType.ERROR, bytes(wire.MAX_PAYLOAD + 1))),
    lambda: wire.pass_message(MsgType.ERROR, 5),
], ids=["int_to_bytes", "pass_message-negative", "key_announce", "encode_msg-oversized",
        "pass_message-error-type"])
def test_a_frame_no_reader_accepts_raises_domain_error(build):
    with pytest.raises(DomainError):
        build()


def test_range_error_names_no_payload_value():
    # 20,001 bits: Python refuses to print it in decimal
    frame = wire.encode_msg(wire.pass_message(MsgType.PASS1, 1 << 20000))
    with pytest.raises(RangeError, match="PASS1 payload is not below n\\^2"):
        wire.decode_msg(frame, PK15)


def random_header(rng):
    """Mostly near-valid headers, so every check is reached often."""
    magic = wire.MAGIC if rng.random() < 0.6 else rng.randbytes(4)
    version = wire.VERSION if rng.random() < 0.7 else rng.randrange(256)
    msg_type = rng.randrange(8) if rng.random() < 0.9 else rng.randrange(256)
    length = rng.choice([
        rng.randrange(40), wire.MAX_PAYLOAD, wire.MAX_PAYLOAD + 1, rng.randrange(1 << 32),
    ])
    return magic + bytes((version, msg_type)) + length.to_bytes(4, "big")


def test_check_header_is_the_header_rule_of_decode_msg():
    rng = random.Random(19)
    accepted = 0
    for _ in range(10_000):
        header = random_header(rng)
        try:
            msg_type, length = wire.check_header(header)
        except ParseError as exc:
            with pytest.raises(ParseError) as excinfo:
                wire.decode_msg(header)
            assert excinfo.value.offset == exc.offset, header.hex()
            continue
        # decode_msg gets past it: the frame it announces decodes
        payload = b"\x01" * length  # canonical for every type
        assert wire.decode_msg(header + payload) == WireMessage(msg_type, payload)
        accepted += 1
    assert 1_000 < accepted < 9_000


FRAME83 = wire.encode_msg(wire.pass_message(MsgType.PASS1, 83))


@pytest.mark.parametrize("frame, offset", [
    (b"P3PP", 4),  # truncated header: where the missing bytes start
    (wire.MAGIC + bytes((1, 1)) + (wire.MAX_PAYLOAD + 1).to_bytes(4, "big"), 6),
    (FRAME83 + b"\x00", 6),  # the length field disagrees with the frame
    (FRAME83[:-1], 6),
    (wire.MAGIC + bytes((1, 1)) + (2).to_bytes(4, "big") + b"\x00\x53", wire.HEADER_LEN),
], ids=["short-header", "length-cap", "long-frame", "short-frame", "leading-zero"])
def test_a_frame_fault_names_its_byte(frame, offset):
    with pytest.raises(ParseError) as excinfo:
        wire.decode_msg(frame)
    assert excinfo.value.offset == offset


@pytest.mark.parametrize("decode, offset", [
    (lambda: encoding.decode_uint(b"\xff" * 5 + b"\x00\x00\x00", 5), 5),  # truncated prefix
    (lambda: encoding.decode_uint(b"\xff" + encoding.encode_uint(300)[:-1], 1), 5),
    (lambda: encoding.decode_uint(b"\xff\x00\x00\x00\x01\x00", 1), 5),  # leading zero
    (lambda: encoding.decode_fields(encoding.encode_uint(7) + b"\x01\x02", 1), 5),
], ids=["truncated-prefix", "truncated-field", "leading-zero", "trailing-bytes"])
def test_a_field_fault_names_its_byte(decode, offset):
    with pytest.raises(ParseError) as excinfo:
        decode()
    assert excinfo.value.offset == offset
