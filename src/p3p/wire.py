"""Binary frames carrying the three-pass protocol over a byte stream.

Frame layout: magic "P3PP", version byte, message-type byte, 4-byte
big-endian payload length, payload. Passes 1-3 carry one canonical
big-endian integer; the key announcement carries the modulus and residue
base as two length-prefixed integers, and the base must be g = n + 1 (the
responder starts with no key material, so the initiator must ship n and g
in-band -- unauthenticated, like everything else in the protocol). Error
frames carry UTF-8 text.

Decoding is strict: wrong magic, unknown version or type, inconsistent
lengths, and non-canonical integers all raise ParseError with the byte
offset of the fault; ``check_header`` alone holds the header rule. With a
public key supplied, payloads are also checked against the modulus bounds
and violations raise RangeError, the ParseError that names no payload value.
Building a frame that no reader would accept raises DomainError.
"""

import enum
from dataclasses import dataclass

from .encoding import decode_fields, encode_uint, int_to_bytes
from .errors import DomainError, ParseError, RangeError
from .paillier import PublicKey

MAGIC = b"P3PP"
VERSION = 1
HEADER_LEN = 10  # magic + version + type + payload length
MAX_PAYLOAD = 1 << 20  # far above any sane key size; bounds hostile lengths


class MsgType(enum.IntEnum):
    KEY_ANNOUNCE = 0
    PASS1 = 1
    PASS2 = 2
    PASS3 = 3
    ERROR = 4


_INTEGER_TYPES = (MsgType.PASS1, MsgType.PASS2, MsgType.PASS3)


@dataclass(frozen=True)
class WireMessage:
    msg_type: MsgType
    payload: bytes

    @property
    def value(self) -> int:
        """Payload as an integer (passes 1-3)."""
        return int.from_bytes(self.payload, "big")

    @property
    def error_text(self) -> str:
        return self.payload.decode("utf-8", errors="replace")


def pass_message(msg_type: MsgType, value: int) -> WireMessage:
    if msg_type not in _INTEGER_TYPES:
        raise DomainError(f"{msg_type} does not carry a bare integer")
    return WireMessage(msg_type, int_to_bytes(value))


def key_announce(n: int, g: int) -> WireMessage:
    return WireMessage(MsgType.KEY_ANNOUNCE, encode_uint(n) + encode_uint(g))


def parse_key_announce(msg: WireMessage) -> tuple[int, int]:
    if msg.msg_type is not MsgType.KEY_ANNOUNCE:
        raise ParseError(f"expected key announce, got {msg.msg_type.name}")
    n, g = decode_fields(msg.payload, 2)
    return n, g


def error_message(text: str) -> WireMessage:
    return WireMessage(MsgType.ERROR, text.encode("utf-8"))


def encode_msg(msg: WireMessage) -> bytes:
    if len(msg.payload) > MAX_PAYLOAD:
        raise DomainError(f"payload exceeds {MAX_PAYLOAD} bytes")
    return (
        MAGIC
        + bytes((VERSION, int(msg.msg_type)))
        + len(msg.payload).to_bytes(4, "big")
        + msg.payload
    )


def check_header(data: bytes) -> tuple[MsgType, int]:
    """Check a frame's first HEADER_LEN bytes; return its type and payload
    length. A stream reader calls it before reading any payload byte."""
    if len(data) < HEADER_LEN:
        raise ParseError(
            f"frame is {len(data)} bytes, header needs {HEADER_LEN}",
            offset=len(data),
        )
    if data[:4] != MAGIC:
        raise ParseError(f"bad magic {data[:4]!r}", offset=0)
    if data[4] != VERSION:
        raise ParseError(f"unknown version {data[4]}", offset=4)
    try:
        msg_type = MsgType(data[5])
    except ValueError:
        raise ParseError(f"unknown message type {data[5]}", offset=5) from None
    length = int.from_bytes(data[6:HEADER_LEN], "big")
    if length > MAX_PAYLOAD:
        raise ParseError(f"payload length {length} exceeds cap", offset=6)
    return msg_type, length


def decode_msg(data: bytes, pk: PublicKey | None = None) -> WireMessage:
    """Parse one frame; with ``pk``, enforce modulus bounds on the payload."""
    msg_type, length = check_header(data)
    if len(data) != HEADER_LEN + length:
        raise ParseError(
            f"frame is {len(data)} bytes, header announces {HEADER_LEN + length}",
            offset=6,
        )
    payload = data[HEADER_LEN:]
    if msg_type in _INTEGER_TYPES and length > 0 and payload[0] == 0:
        raise ParseError(
            "non-canonical integer (leading zero byte)", offset=HEADER_LEN
        )
    msg = WireMessage(msg_type, payload)
    if pk is not None and msg_type in _INTEGER_TYPES:
        below_n = msg_type is MsgType.PASS3
        if msg.value >= (pk.n if below_n else pk.n_squared):
            raise RangeError(
                f"{msg_type.name} payload is not below {'n' if below_n else 'n^2'}",
                offset=HEADER_LEN,
            )
    return msg
