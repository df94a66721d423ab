import math
import random

import pytest

from p3p import paillier
from p3p.errors import (
    DomainError,
    KeyMismatch,
    MalformedCiphertext,
    NotInvertible,
    PlaintextOutOfRange,
)
from p3p.paillier import Ciphertext, SelfBlindMode

from conftest import KEY15, KEY35, ScriptedRandom
from oracles import (
    brute_force_class,
    textbook_is_residue_base,
    trial_division_is_prime,
    units,
)

PK15 = KEY15.public
PK35 = KEY35.public


def test_toy_key_parameters():
    assert PK15.n == 15
    assert PK15.n_squared == 225
    assert PK15.g == 16  # safe default g = n + 1
    assert KEY15.lam == 4
    assert KEY15.mu == 4


def test_mu_relation_holds():
    for key in (KEY15, KEY35):
        pk = key.public
        l_value = (pow(pk.g, key.lam, pk.n_squared) - 1) // pk.n
        assert key.mu * l_value % pk.n == 1


def test_keygen_small_real_keys():
    sk = paillier.keygen(16, random.Random(41))
    pk = sk.public
    assert sk.p != sk.q
    assert pk.n == sk.p * sk.q
    assert math.gcd(pk.n, sk.lam) == 1
    assert textbook_is_residue_base(sk.p, sk.q, pk.g)
    assert pk.g == pk.n + 1


def test_keygen_rejects_tiny_primes():
    with pytest.raises(DomainError):
        paillier.keygen(3)


def test_from_primes_validation():
    with pytest.raises(DomainError):
        paillier.from_primes(5, 5)
    with pytest.raises(DomainError):
        paillier.from_primes(4, 5)
    # q - 1 divisible by p makes gcd(n, lambda) = 3: no valid base exists
    with pytest.raises(DomainError):
        paillier.from_primes(3, 7)


def test_validate_residue_base_known_values():
    # The residue-base check is PrivateKey's own.
    assert textbook_is_residue_base(3, 5, 16)
    assert paillier.PrivateKey(3, 5, 16) == KEY15
    assert not textbook_is_residue_base(3, 5, 7)
    with pytest.raises(DomainError, match="n \\+ 1"):
        paillier.PrivateKey(3, 5, 7)
    for key in (KEY15, KEY35):
        assert paillier.PrivateKey(key.p, key.q, key.public.n + 1) == key


def test_equal_length_primes_always_build_a_key():
    # keygen draws no second pair on gcd(n, lambda): a prime q < 2p is
    # never 1 mod p, so equal-length primes always pass that check
    for bits in range(4, 11):
        primes = [x for x in range(1 << (bits - 1), 1 << bits) if trial_division_is_prime(x)]
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                key = paillier.PrivateKey(p, q, p * q + 1)
                n, n_squared = key.public.n, key.public.n_squared
                assert math.gcd(n, key.lam) == 1
                assert key.mu * (pow(n + 1, key.lam, n_squared) - 1) // n % n == 1


def test_private_key_rejects_unusable_primes():
    with pytest.raises(DomainError, match="distinct"):
        paillier.PrivateKey(3, 3, 10)
    for p, q in ((3, 7), (1, 15)):
        with pytest.raises(DomainError, match="lambda"):
            paillier.PrivateKey(p, q, p * q + 1)


def test_validate_residue_base_rejects_non_unit():
    with pytest.raises(DomainError, match="n \\+ 1"):
        paillier.PrivateKey(3, 5, 15)
    with pytest.raises(DomainError, match="n \\+ 1"):
        paillier.PrivateKey(3, 5, 0)
    # the check is PublicKey's own, so a key without primes gets it too
    for g in (0, 15, 225, 226):
        with pytest.raises(DomainError, match="n \\+ 1"):
            paillier.PublicKey(n=15, g=g)
    for n in (0, 1):
        with pytest.raises(DomainError, match="too small"):
            paillier.PublicKey(n=n, g=n + 1)


def test_derive_key_accepts_exactly_the_textbook_residue_bases():
    # of the phi(n)^2 textbook residue bases (64 and 576 here), only n + 1
    for key in (KEY15, KEY35):
        p, q, n_squared = key.p, key.q, key.public.n_squared
        accepted = []
        for g in range(n_squared + 1):
            try:
                derived = paillier.PrivateKey(p, q, g)
            except DomainError:
                continue
            assert textbook_is_residue_base(p, q, g), g
            assert derived.public.g == g
            accepted.append(g)
        assert accepted == [key.public.n + 1]


def test_fingerprint_modulus_is_sha256_of_the_modulus_bytes():
    # sha256 of the one byte 0x0f and of 0x23
    assert paillier.fingerprint_modulus(15).hex() == (
        "dc0e9c3658a1a3ed1ec94274d8b19925c93e1abb7ddba294923ad9bde30f8cb8")
    assert paillier.fingerprint_modulus(35).hex() == (
        "334359b90efed75da5f0ada1d5e6b256f4a6bd0aee7eb39c0f90182a021ffc8b")
    assert PK15.fingerprint == paillier.fingerprint_modulus(15)


def test_encrypt_forced_nonce_known_answer():
    c = paillier.encrypt(PK15, 7, ScriptedRandom([2]))
    assert c.value == 83
    assert c.value == pow(16, 7, 225) * pow(2, 15, 225) % 225


def test_encrypt_zero_with_unit_nonce_is_one():
    assert paillier.encrypt(PK15, 0, ScriptedRandom([1])).value == 1


def test_encrypt_same_nonce_same_ciphertext():
    a = paillier.encrypt(PK15, 9, ScriptedRandom([4]))
    b = paillier.encrypt(PK15, 9, ScriptedRandom([4]))
    c = paillier.encrypt(PK15, 9, ScriptedRandom([7]))
    assert a.value == b.value
    assert a.value != c.value


def test_encrypt_range_checked():
    with pytest.raises(PlaintextOutOfRange):
        paillier.encrypt(PK15, 15)
    with pytest.raises(PlaintextOutOfRange):
        paillier.encrypt(PK15, -1)


def test_encrypt_with_nonce_known_answers():
    assert paillier.encrypt_with_nonce(PK15, 3, 1).value == 46
    assert paillier.encrypt_with_nonce(PK15, 4, 1).value == 61
    assert paillier.encrypt_with_nonce(PK15, 0, 1).value == 1


def test_encrypt_with_nonce_rejects_non_unit():
    with pytest.raises(NotInvertible):
        paillier.encrypt_with_nonce(PK15, 3, 5)
    with pytest.raises(NotInvertible):
        paillier.encrypt_with_nonce(PK15, 3, 0)


def test_encrypt_with_nonce_rejects_a_nonce_not_below_n():
    # 17 is coprime to 15 and would encrypt as 2 does (83 for m = 7)
    with pytest.raises(NotInvertible):
        paillier.encrypt_with_nonce(PK15, 7, 17)


def test_decrypt_known_answer_with_search_oracle():
    c = Ciphertext(83, PK15.fingerprint)
    assert paillier.decrypt(KEY15, c) == 7
    assert brute_force_class(15, 16, 83) == 7


def test_decrypt_one_is_zero():
    assert paillier.decrypt(KEY15, Ciphertext(1, PK15.fingerprint)) == 0


def test_decrypt_encrypt_roundtrip_exhaustive():
    for key in (KEY15, KEY35):
        pk = key.public
        for m in range(pk.n):
            for x in units(pk.n):
                c = paillier.encrypt_with_nonce(pk, m, x)
                assert paillier.decrypt(key, c) == m


def test_encryption_map_is_bijective_on_units():
    images = {
        paillier.encrypt_with_nonce(PK15, m, x).value
        for m in range(15)
        for x in units(15)
    }
    assert len(images) == 15 * 8
    assert images == set(units(225))


def test_decrypt_rejects_cross_key_ciphertext():
    c = paillier.encrypt(PK15, 7, random.Random(1))
    with pytest.raises(KeyMismatch):
        paillier.decrypt(KEY35, c)


@pytest.mark.parametrize("bad", [0, 15, 45, 225, 230])
def test_decrypt_rejects_non_units(bad):
    with pytest.raises(MalformedCiphertext):
        paillier.decrypt(KEY15, Ciphertext(bad, PK15.fingerprint))


def test_extract_class_known_answer():
    assert paillier.extract_class(KEY15, 83, 16) == 7


def test_extract_class_of_residues_is_zero():
    for y in units(15):
        residue = pow(y, 15, 225)
        assert paillier.extract_class(KEY15, residue, 16) == 0


def test_extract_class_additive_homomorphism():
    rng = random.Random(5)
    for _ in range(50):
        w1, w2 = rng.choice(units(225)), rng.choice(units(225))
        total = paillier.extract_class(KEY15, w1 * w2 % 225, 16)
        parts = (
            paillier.extract_class(KEY15, w1, 16)
            + paillier.extract_class(KEY15, w2, 16)
        ) % 15
        assert total == parts


def test_extract_class_change_of_base_formula():
    rng = random.Random(6)
    for key in (KEY15, KEY35):
        pk = key.public
        bases = [
            g
            for g in units(pk.n_squared)
            if textbook_is_residue_base(key.p, key.q, g)
        ]
        for _ in range(100):
            w = rng.choice(units(pk.n_squared))
            g1, g2 = rng.choice(bases), rng.choice(bases)
            lhs = paillier.extract_class(key, w, g2)
            rhs = (
                paillier.extract_class(key, w, g1)
                * paillier.extract_class(key, g1, g2)
                % pk.n
            )
            assert lhs == rhs


def test_extract_class_rejects_bad_inputs():
    with pytest.raises(DomainError):
        paillier.extract_class(KEY15, 83, 7)  # 7 is not a residue base
    with pytest.raises(DomainError):
        paillier.extract_class(KEY15, 15, 16)  # 15 is not a unit


def test_homomorphic_add_known_answer():
    c1 = paillier.encrypt_with_nonce(PK15, 3, 1)
    c2 = paillier.encrypt_with_nonce(PK15, 4, 1)
    total = paillier.homomorphic_add(PK15, c1, c2)
    assert total.value == 46 * 61 % 225 == 106
    assert paillier.decrypt(KEY15, total) == 7


def test_homomorphic_add_identity_and_commutativity():
    c = paillier.encrypt(PK15, 9, random.Random(3))
    zero = paillier.encrypt_with_nonce(PK15, 0, 1)
    assert paillier.homomorphic_add(PK15, c, zero).value == c.value
    c2 = paillier.encrypt(PK15, 5, random.Random(4))
    assert (
        paillier.homomorphic_add(PK15, c, c2).value
        == paillier.homomorphic_add(PK15, c2, c).value
    )


def test_homomorphic_add_law_exhaustive_n15():
    rng = random.Random(11)
    for a in range(15):
        for b in range(15):
            ca = paillier.encrypt(PK15, a, rng)
            cb = paillier.encrypt(PK15, b, rng)
            total = paillier.homomorphic_add(PK15, ca, cb)
            assert paillier.decrypt(KEY15, total) == (a + b) % 15


def test_homomorphic_add_cross_key_rejected():
    c15 = paillier.encrypt(PK15, 1, random.Random(0))
    c35 = paillier.encrypt(PK35, 1, random.Random(0))
    with pytest.raises(KeyMismatch):
        paillier.homomorphic_add(PK15, c15, c35)


def test_scalar_mul_known_answer():
    c = paillier.encrypt_with_nonce(PK15, 3, 1)
    scaled = paillier.scalar_mul(PK15, c, 4)
    assert scaled.value == pow(46, 4, 225) == 181
    assert paillier.decrypt(KEY15, scaled) == 12


def test_scalar_mul_edge_scalars():
    c = paillier.encrypt(PK15, 7, random.Random(2))
    assert paillier.scalar_mul(PK15, c, 1).value == c.value
    assert paillier.decrypt(KEY15, paillier.scalar_mul(PK15, c, 0)) == 0
    with pytest.raises(DomainError):
        paillier.scalar_mul(PK15, c, -1)


def test_scalar_mul_law_randomized():
    rng = random.Random(13)
    for _ in range(60):
        m = rng.randrange(35)
        k = rng.randrange(0, 200)
        c = paillier.encrypt(PK35, m, rng)
        assert paillier.decrypt(KEY35, paillier.scalar_mul(PK35, c, k)) == k * m % 35


def test_add_plaintext_known_answer():
    c = paillier.encrypt_with_nonce(PK15, 3, 1)
    shifted = paillier.add_plaintext(PK15, c, 4)
    assert shifted.value == 46 * pow(16, 4, 225) % 225 == 106
    assert paillier.decrypt(KEY15, shifted) == 7


def test_add_plaintext_matches_homomorphic_add():
    c = paillier.encrypt(PK15, 6, random.Random(17))
    for m2 in range(15):
        via_plain = paillier.add_plaintext(PK15, c, m2)
        via_cipher = paillier.homomorphic_add(
            PK15, c, paillier.encrypt_with_nonce(PK15, m2, 1)
        )
        assert via_plain.value == via_cipher.value
    assert paillier.add_plaintext(PK15, c, 0).value == c.value
    with pytest.raises(PlaintextOutOfRange):
        paillier.add_plaintext(PK15, c, 15)


def test_rerandomize_forced_nonces():
    c = Ciphertext(83, PK15.fingerprint)
    for x, expected in [(2, 169), (4, 92)]:
        fresh = paillier.rerandomize(PK15, c, ScriptedRandom([x]))
        assert fresh.value == 83 * pow(x, 15, 225) % 225 == expected
        assert paillier.decrypt(KEY15, fresh) == 7
    unchanged = paillier.rerandomize(PK15, c, ScriptedRandom([1]))
    assert unchanged.value == 83


def test_rerandomize_changes_value_for_every_nontrivial_unit():
    c = Ciphertext(83, PK15.fingerprint)
    for x in units(15):
        if x == 1:
            continue
        fresh = paillier.rerandomize(PK15, c, ScriptedRandom([x]))
        assert fresh.value != c.value


@pytest.mark.parametrize("mode", ["unit-power", None, 0])
def test_rerandomize_rejects_a_mode_that_is_not_a_member(mode):
    c = Ciphertext(83, PK15.fingerprint)
    with pytest.raises(DomainError, match="SelfBlindMode"):
        paillier.rerandomize(PK15, c, random.Random(1), mode)


def test_rerandomize_decryption_invariant_both_modes():
    rng = random.Random(23)
    for mode in SelfBlindMode:
        for _ in range(40):
            m = rng.randrange(15)
            c = paillier.encrypt(PK15, m, rng)
            fresh = paillier.rerandomize(PK15, c, rng, mode)
            assert paillier.decrypt(KEY15, fresh) == m


def test_ciphertext_expansion_bounded_small_keys():
    rng = random.Random(29)
    for key in (KEY15, KEY35):
        pk = key.public
        for _ in range(100):
            c = paillier.encrypt(pk, rng.randrange(pk.n), rng)
            assert c.value.bit_length() <= 2 * pk.n.bit_length()
