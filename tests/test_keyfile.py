import base64
import random

import pytest

from p3p import keyfile, paillier
from p3p.encoding import encode_uint
from p3p.errors import ParseError
from p3p.signature import BlindingSecret, Signature

from conftest import KEY15

PK15 = KEY15.public


def test_public_key_roundtrip_bit_exact():
    data = keyfile.serialize_key(PK15)
    parsed = keyfile.parse_key(data)
    assert parsed == PK15
    assert keyfile.serialize_key(parsed) == data


def test_private_key_roundtrip_bit_exact():
    data = keyfile.serialize_key(KEY15)
    parsed = keyfile.parse_key(data)
    assert parsed == KEY15
    assert keyfile.serialize_key(parsed) == data


def test_realistic_key_roundtrip():
    sk = paillier.keygen(128, rng=random.Random(61))
    assert keyfile.parse_key(keyfile.serialize_key(sk)) == sk
    assert keyfile.parse_key(keyfile.serialize_key(sk.public)) == sk.public


def test_headers_are_distinct():
    assert keyfile.serialize_key(PK15).startswith(b"paillier-public-v1\n")
    assert keyfile.serialize_key(KEY15).startswith(b"paillier-private-v1\n")


def test_unknown_header_rejected():
    data = keyfile.serialize_key(PK15).replace(b"-v1", b"-v2")
    with pytest.raises(ParseError, match="unknown header"):
        keyfile.parse_key(data)


def test_garbage_inputs_rejected():
    # well-formed public key envelopes whose g is not in Z*_{n^2} for n = 15,
    # or whose modulus is below 2
    invalid_keys = [
        b"paillier-public-v1\n" + base64.b64encode(encode_uint(n) + encode_uint(g))
        for n, g in ((15, 0), (15, 15), (15, 225), (15, 226), (0, 1), (1, 2))
    ]
    for bad in (b"", b"\xff\xfe", b"hello world\n", b"paillier-public-v1\n!!!\n",
                *invalid_keys):
        with pytest.raises(ParseError):
            keyfile.parse_key(bad)


def test_truncated_body_rejected_with_offset():
    body = encode_uint(15) + encode_uint(16)
    data = b"paillier-public-v1\n" + base64.b64encode(body[:-1]) + b"\n"
    with pytest.raises(ParseError) as excinfo:
        keyfile.parse_key(data)
    assert excinfo.value.offset is not None


def test_a_fault_with_no_byte_of_its_own_has_no_offset():
    body = encode_uint(15) + encode_uint(16) + encode_uint(3) + encode_uint(7)
    for bad in (
        b"\xff",  # not ascii
        b"paillier-public-v1\n!!!\n",  # not base64
        b"paillier-secret-v1\n",  # unknown header
        b"paillier-private-v1\n" + base64.b64encode(body + encode_uint(8) + encode_uint(1)),
    ):
        with pytest.raises(ParseError) as excinfo:
            keyfile.parse_key(bad)
        assert excinfo.value.offset is None, bad


def test_non_canonical_integer_rejected():
    # inject a leading zero byte into the modulus field
    body = b"\x00\x00\x00\x02\x00\x0f" + encode_uint(16)
    data = b"paillier-public-v1\n" + base64.b64encode(body) + b"\n"
    with pytest.raises(ParseError, match="non-canonical"):
        keyfile.parse_key(data)


def test_trailing_bytes_rejected():
    body = encode_uint(15) + encode_uint(16) + b"\x99"
    data = b"paillier-public-v1\n" + base64.b64encode(body) + b"\n"
    with pytest.raises(ParseError, match="trailing"):
        keyfile.parse_key(data)


def _private_body(n, g, p, q, lam, mu):
    body = b"".join(encode_uint(v) for v in (n, g, p, q, lam, mu))
    return b"paillier-private-v1\n" + base64.b64encode(body) + b"\n"


def test_private_key_revalidated_on_parse():
    good = _private_body(15, 16, 3, 5, 4, 4)
    parsed = keyfile.parse_key(good)
    assert parsed == KEY15

    with pytest.raises(ParseError, match="mu"):
        keyfile.parse_key(_private_body(15, 16, 3, 5, 4, 5))
    with pytest.raises(ParseError, match="lambda"):
        keyfile.parse_key(_private_body(15, 16, 3, 5, 8, 4))
    with pytest.raises(ParseError, match="p\\*q"):
        keyfile.parse_key(_private_body(21, 16, 3, 5, 4, 4))


# Fields (n, g, p, q, lambda, mu) that agree with PrivateKey(p, q, g) but
# whose p is composite: 9, and a product of two 32-bit primes
_COMPOSITE_P, _COMPOSITE_Q = 3244611641 * 2821154957, 17429142207974170187
_COMPOSITE_N = _COMPOSITE_P * _COMPOSITE_Q
CONSISTENT_COMPOSITE_FIELDS = (
    (45, 46, 9, 5, 8, 17),
    (
        _COMPOSITE_N,
        _COMPOSITE_N + 1,
        _COMPOSITE_P,
        _COMPOSITE_Q,
        79769281627728751760710098088835122548,
        129231513909504256253565994893127162445,
    ),
)


def test_private_key_degenerate_fields_rejected():
    # p = q = 1, p = 1, p = q, a composite factor with a wrong mu, g >= n^2,
    # g no residue base, then composite factors with consistent fields
    for fields in (
        (1, 2, 1, 1, 0, 0),
        (15, 16, 1, 15, 0, 4),
        (9, 10, 3, 3, 2, 1),
        (45, 46, 9, 5, 8, 4),
        (15, 241, 3, 5, 4, 4),
        (15, 7, 3, 5, 4, 4),
    ) + CONSISTENT_COMPOSITE_FIELDS:
        with pytest.raises(ParseError):
            keyfile.parse_key(_private_body(*fields))


def test_composite_factor_rejected_as_not_prime():
    # PrivateKey trusts its primes, so only parse_key's own test stops these
    for n, g, p, q, lam, mu in CONSISTENT_COMPOSITE_FIELDS:
        key = paillier.PrivateKey(p, q, g)
        assert (key.public.n, key.lam, key.mu) == (n, lam, mu)
        with pytest.raises(ParseError, match="factor p is not prime"):
            keyfile.parse_key(_private_body(n, g, p, q, lam, mu))


# serialize_key output of a seeded key, pinned so the format stays bit-exact
SEEDED_PRIVATE = (
    b"paillier-private-v1\n"
    b"AAAAEHsNZMYs9i7XHhXxVfybNkUAAAAQew1kxiz2LtceFfFV/Js2RgAAAAiiV5if\n"
    b"74KciQAAAAjCCw6+N4x03QAAABAew1kxiz2LtW5s0n31Ywk4AAAAED9P8O1xwhVe\n"
    b"IDr6sR5BOPc=\n"
)


def test_seeded_private_key_serialization_pinned():
    sk = paillier.keygen(64, random.Random(3))
    assert keyfile.serialize_key(sk) == SEEDED_PRIVATE
    assert keyfile.parse_key(SEEDED_PRIVATE) == sk


# a private key file that keygen wrote when it could draw a random base
# (g = 0x1af418..., same seed and primes as SEEDED_PRIVATE)
RANDOM_BASE_PRIVATE = (
    b"paillier-private-v1\n"
    b"AAAAEHsNZMYs9i7XHhXxVfybNkUAAAAgGvQY4k0QDY/a8BBboGwFocdqv0NvqE3K\n"
    b"rArk4vcptMkAAAAIoleYn++CnIkAAAAIwgsOvjeMdN0AAAAQHsNZMYs9i7VubNJ9\n"
    b"9WMJOAAAABAQ61cickxW9RsL3cKcsRQI\n"
)


def test_a_key_with_a_base_other_than_n_plus_1_is_refused():
    public = b"paillier-public-v1\n" + base64.b64encode(encode_uint(15) + encode_uint(2))
    for data in (RANDOM_BASE_PRIVATE, public):
        with pytest.raises(ParseError, match="n \\+ 1"):
            keyfile.parse_key(data)


def test_signature_envelope_roundtrip():
    sig = Signature(s1=7, s2=2)
    data = keyfile.serialize_signature(sig)
    assert keyfile.parse_signature(data) == sig
    with pytest.raises(ParseError):
        keyfile.parse_signature(keyfile.serialize_key(PK15))


def test_blinding_secret_envelope_roundtrip():
    secret = BlindingSecret(x=2)
    data = keyfile.serialize_blinding_secret(secret)
    parsed = keyfile.parse_blinding_secret(data, 15)
    assert parsed == secret


def test_blinding_secret_checked_against_modulus():
    data = keyfile.serialize_blinding_secret(BlindingSecret(x=5))
    with pytest.raises(ParseError, match="unit"):
        keyfile.parse_blinding_secret(data, 15)


def test_blinding_secret_must_lie_below_the_modulus():
    # 17 is coprime to 15 but not below it
    data = keyfile.serialize_blinding_secret(BlindingSecret(x=17))
    with pytest.raises(ParseError, match="unit"):
        keyfile.parse_blinding_secret(data, 15)
