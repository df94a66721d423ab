"""Textual envelopes for keys, signatures, and blinding secrets.

A file is a header line naming the payload kind and version, then the
base64 of length-prefixed big-endian fields. Parsing is a bit-exact
inverse of serialization on valid inputs and raises ParseError (never
crashes) on anything else. A public key is accepted only if PublicKey
accepts it. A private key is built again as PrivateKey(p, q, g), once
n = p*q and p and q each pass one Miller-Rabin round to the base 2, and
its lambda and mu must match the stored ones.

Only the signature and blinding-secret parsers import :mod:`p3p.signature`,
so reading a key does not load it.
"""

import base64
import binascii
import math
from typing import TYPE_CHECKING

from . import numtheory as nt
from .encoding import decode_fields, encode_uint
from .errors import DomainError, NotInvertible, ParseError
from .paillier import PrivateKey, PublicKey

if TYPE_CHECKING:
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


def _open_envelope(data: bytes, *headers: str) -> tuple[str, bytes]:
    """Header and body of an envelope whose header is one of ``headers``."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not an ascii envelope: {exc}") from None
    header, _, rest = text.partition("\n")
    body_text = "".join(rest.split())
    try:
        body = base64.b64decode(body_text, validate=True)
    except (binascii.Error, ValueError):
        raise ParseError("body is not valid base64") from None
    header = header.strip()
    if header not in headers:
        raise ParseError(f"unknown header {header!r}")
    return header, body


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
    """Parse either key kind; both are revalidated before being returned."""
    header, body = _open_envelope(data, PUBLIC_HEADER, PRIVATE_HEADER)
    if header == PUBLIC_HEADER:
        n, g = decode_fields(body, 2)
        try:
            return PublicKey(n=n, g=g)
        except DomainError as exc:
            raise ParseError(f"invalid key: {exc}") from None
    n, g, p, q, lam, mu = decode_fields(body, 6)
    if p * q != n:
        raise ParseError("field mismatch: n is not p*q")
    for name, factor in (("p", p), ("q", q)):
        if not nt.is_base2_probable_prime(factor):
            raise ParseError(f"factor {name} is not prime")
    try:
        key = PrivateKey(p, q, g)
    except (DomainError, NotInvertible) as exc:
        raise ParseError(f"invalid key: {exc}") from None
    if key.lam != lam:
        raise ParseError("field mismatch: lambda is not lcm(p-1, q-1)")
    if key.mu != mu:
        raise ParseError("field mismatch: mu does not invert L(g^lambda)")
    return key


def serialize_signature(sig: "Signature") -> bytes:
    return _envelope(SIGNATURE_HEADER, encode_uint(sig.s1) + encode_uint(sig.s2))


def parse_signature(data: bytes) -> "Signature":
    from .signature import Signature

    _, body = _open_envelope(data, SIGNATURE_HEADER)
    s1, s2 = decode_fields(body, 2)
    return Signature(s1=s1, s2=s2)


def serialize_blinding_secret(secret: "BlindingSecret") -> bytes:
    return _envelope(BLINDING_HEADER, encode_uint(secret.x))


def parse_blinding_secret(data: bytes, n: int) -> "BlindingSecret":
    from .signature import BlindingSecret

    _, body = _open_envelope(data, BLINDING_HEADER)
    (x,) = decode_fields(body, 1)
    if not 1 <= x < n or math.gcd(x, n) != 1:
        raise ParseError("blinding value is not a unit in [1, n)")
    return BlindingSecret(x=x)
