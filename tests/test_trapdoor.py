import math

import pytest

from p3p import trapdoor
from p3p.errors import DomainError, InadmissibleMessage, KeyMismatch, MalformedCiphertext
from p3p.paillier import Ciphertext
from p3p.trapdoor import REASON_NOT_COPRIME, REASON_ZERO_QUOTIENT

from conftest import KEY15, KEY35
from oracles import brute_force_class, egcd_inverse, units

PK15 = KEY15.public


def admissible_messages(n):
    return [
        m
        for m in range(n * n)
        if m // n >= 1 and math.gcd(m // n, n) == 1
    ]


def test_tp_encrypt_rejects_wide_values():
    with pytest.raises(DomainError):
        trapdoor.tp_encrypt(PK15, 225)
    with pytest.raises(DomainError):
        trapdoor.tp_encrypt(PK15, -1)


def test_tp_encrypt_known_answer():
    c = trapdoor.tp_encrypt(PK15, 37)
    assert c.value == pow(16, 7, 225) * pow(2, 15, 225) % 225 == 83


def test_tp_encrypt_rejects_small_messages():
    with pytest.raises(InadmissibleMessage) as excinfo:
        trapdoor.tp_encrypt(PK15, 7)
    assert excinfo.value.reason == REASON_ZERO_QUOTIENT


def test_tp_encrypt_rejects_non_coprime_quotient():
    with pytest.raises(InadmissibleMessage) as excinfo:
        trapdoor.tp_encrypt(PK15, 46)
    assert excinfo.value.reason == REASON_NOT_COPRIME


def test_tp_decrypt_known_answer_with_step_oracle():
    assert trapdoor.tp_decrypt(KEY15, Ciphertext(83, PK15.fingerprint)) == 37
    # independent walk through the four documented steps
    low = brute_force_class(15, 16, 83)
    z = 83 * egcd_inverse(pow(16, low, 225), 225) % 225 % 15
    high = pow(z, egcd_inverse(15, 4), 15)
    assert (low, z, high) == (7, 8, 2)
    assert high * 15 + low == 37


def test_tp_roundtrip_exhaustive_and_injective():
    # 8 coprime quotients x 15 remainders; 24 x 35 at n = 35
    for sk, size in ((KEY15, 120), (KEY35, 840)):
        n = sk.public.n
        domain = admissible_messages(n)
        assert len(domain) == size
        images = set()
        for m in domain:
            c = trapdoor.tp_encrypt(sk.public, m)
            images.add(c.value)
            assert trapdoor.tp_decrypt(sk, c) == m
        assert len(images) == len(domain)
        # exactly the units of n^2: the map is a permutation onto them, so
        # every unit decrypts into the admissible domain
        assert images == set(units(n * n))


def test_tp_edge_vector_m_equals_n():
    c = trapdoor.tp_encrypt(PK15, 15)
    assert c.value == 1
    assert trapdoor.tp_decrypt(KEY15, c) == 15


@pytest.mark.parametrize("bad", [0, 15, 225])
def test_tp_decrypt_rejects_non_units(bad):
    with pytest.raises(MalformedCiphertext):
        trapdoor.tp_decrypt(KEY15, Ciphertext(bad, PK15.fingerprint))


def test_tp_decrypt_rejects_cross_key():
    c = trapdoor.tp_encrypt(PK15, 37)
    with pytest.raises(KeyMismatch):
        trapdoor.tp_decrypt(KEY35, c)
