"""Canonical big-endian integer codec shared by key files and wire frames.

An integer is encoded as a 4-byte big-endian length followed by its
minimal big-endian bytes: no leading zeros, zero itself is empty. Decoding
rejects anything non-canonical so every byte string has at most one
reading.
"""

from .errors import DomainError, ParseError

LENGTH_PREFIX = 4


def int_to_bytes(value: int) -> bytes:
    """Minimal big-endian representation; b'' for zero."""
    if value < 0:
        raise DomainError("only non-negative integers are encodable")
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def encode_uint(value: int) -> bytes:
    body = int_to_bytes(value)
    return len(body).to_bytes(LENGTH_PREFIX, "big") + body


def decode_uint(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Read one length-prefixed integer; returns (value, next offset)."""
    if offset + LENGTH_PREFIX > len(buf):
        raise ParseError("truncated length prefix", offset=offset)
    length = int.from_bytes(buf[offset : offset + LENGTH_PREFIX], "big")
    start = offset + LENGTH_PREFIX
    if start + length > len(buf):
        raise ParseError(
            f"field announces {length} bytes but only {len(buf) - start} remain",
            offset=start,
        )
    if length > 0 and buf[start] == 0:
        raise ParseError("non-canonical integer (leading zero byte)", offset=start)
    return int.from_bytes(buf[start : start + length], "big"), start + length


def decode_fields(buf: bytes, count: int) -> list[int]:
    """Read exactly ``count`` length-prefixed integers that fill ``buf``."""
    values = []
    offset = 0
    for _ in range(count):
        value, offset = decode_uint(buf, offset)
        values.append(value)
    if offset != len(buf):
        raise ParseError(
            f"{len(buf) - offset} trailing bytes after last field", offset=offset
        )
    return values
