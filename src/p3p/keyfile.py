"""Textual envelopes for keys, signatures, and blinding secrets.

A file is a header line naming the payload kind and version, then the
base64 of length-prefixed big-endian fields. Parsing is a bit-exact
inverse of serialization on valid inputs and raises ParseError (never
crashes) on anything else; private keys are revalidated against their
defining relations before being accepted.
"""

import base64
import binascii
import math

from . import numtheory as nt
from .encoding import decode_uint, encode_uint
from .errors import DomainError, NotInvertible, ParseError
from .paillier import PrivateKey, PublicKey, derive_key
from .signature import BlindingSecret, Signature

PUBLIC_HEADER = "paillier-public-v1"
PRIVATE_HEADER = "paillier-private-v1"
SIGNATURE_HEADER = "paillier-signature-v1"
BLINDING_HEADER = "paillier-blinding-v1"

_WRAP = 64


def _envelope(header: str, body: bytes) -> bytes:
    encoded = base64.b64encode(body).decode("ascii")
    lines = [header] + [encoded[i : i + _WRAP] for i in range(0, len(encoded), _WRAP)]
    return ("\n".join(lines) + "\n").encode("ascii")


def _open_envelope(data: bytes) -> tuple[str, bytes]:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not an ascii envelope: {exc}", offset=0) from None
    header, _, rest = text.partition("\n")
    body_text = "".join(rest.split())
    try:
        body = base64.b64decode(body_text, validate=True)
    except (binascii.Error, ValueError):
        raise ParseError("body is not valid base64", offset=0) from None
    return header.strip(), body


def _decode_fields(body: bytes, count: int) -> list[int]:
    values = []
    offset = 0
    for _ in range(count):
        value, offset = decode_uint(body, offset)
        values.append(value)
    if offset != len(body):
        raise ParseError(
            f"{len(body) - offset} trailing bytes after last field", offset=offset
        )
    return values


def serialize_key(key: PublicKey | PrivateKey) -> bytes:
    if isinstance(key, PrivateKey):
        pk = key.public
        body = b"".join(
            encode_uint(v) for v in (pk.n, pk.g, key.p, key.q, key.lam, key.mu)
        )
        return _envelope(PRIVATE_HEADER, body)
    body = encode_uint(key.n) + encode_uint(key.g)
    return _envelope(PUBLIC_HEADER, body)


def parse_key(data: bytes) -> PublicKey | PrivateKey:
    """Parse either key kind, revalidating private key relations."""
    header, body = _open_envelope(data)
    if header == PUBLIC_HEADER:
        n, g = _decode_fields(body, 2)
        if n < 2:
            raise ParseError(f"modulus {n} is too small", offset=0)
        return PublicKey(n=n, g=g)
    if header == PRIVATE_HEADER:
        n, g, p, q, lam, mu = _decode_fields(body, 6)
        if p * q != n:
            raise ParseError("field mismatch: n is not p*q", offset=0)
        if min(p, q) < 2:
            raise ParseError(f"factor {min(p, q)} is too small", offset=0)
        if lam != math.lcm(p - 1, q - 1):
            raise ParseError("field mismatch: lambda is not lcm(p-1, q-1)", offset=0)
        n_squared = n * n
        if not 0 < g < n_squared or math.gcd(g, n_squared) != 1:
            raise ParseError("residue base is not a unit modulo n^2", offset=0)
        try:
            key = derive_key(p, q, g)
        except (DomainError, NotInvertible):
            key = None  # no mu inverts L(g^lambda) when g is no residue base
        if key is None or key.mu != mu:
            raise ParseError("field mismatch: mu does not invert L(g^lambda)", offset=0)
        return key
    raise ParseError(f"unknown header {header!r}", offset=0)


def serialize_signature(sig: Signature) -> bytes:
    return _envelope(SIGNATURE_HEADER, encode_uint(sig.s1) + encode_uint(sig.s2))


def parse_signature(data: bytes) -> Signature:
    header, body = _open_envelope(data)
    if header != SIGNATURE_HEADER:
        raise ParseError(f"unknown header {header!r}", offset=0)
    s1, s2 = _decode_fields(body, 2)
    return Signature(s1=s1, s2=s2)


def serialize_blinding_secret(secret: BlindingSecret) -> bytes:
    # only x is stored; the inverse is recomputed against the key at unblind time
    return _envelope(BLINDING_HEADER, encode_uint(secret.x))


def parse_blinding_secret(data: bytes, n: int) -> BlindingSecret:
    header, body = _open_envelope(data)
    if header != BLINDING_HEADER:
        raise ParseError(f"unknown header {header!r}", offset=0)
    (x,) = _decode_fields(body, 1)
    if math.gcd(x, n) != 1:
        raise ParseError("blinding value is not a unit for this modulus", offset=0)
    return BlindingSecret(x=x, x_inv=nt.mod_inv(x, n))
