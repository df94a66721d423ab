import hashlib
import random

import pytest

from p3p import keyfile, paillier, signature
from p3p.errors import DomainError, NotInvertible, NotSignable
from p3p.signature import BlindingSecret, Signature

from conftest import KEY15, KEY35, ScriptedRandom
from oracles import brute_force_class, egcd_inverse, units

PK15 = KEY15.public


def test_sign_raw_known_answer_with_step_oracle():
    sig = signature.sign_raw(KEY15, 83)
    assert (sig.s1, sig.s2) == (7, 2)
    # recompute both parts independently
    s1 = brute_force_class(15, 16, 83)
    reduced = 83 * egcd_inverse(pow(16, s1, 225), 225) % 225 % 15
    s2 = pow(reduced, egcd_inverse(15, 4), 15)
    assert (s1, s2) == (7, 2)
    assert pow(16, 7, 225) * pow(2, 15, 225) % 225 == 83


def test_sign_raw_of_base_is_one_one():
    assert signature.sign_raw(KEY15, 16) == Signature(1, 1)


def test_sign_raw_verify_roundtrip_samples():
    rng = random.Random(3)
    for _ in range(100):
        m = rng.choice(units(225))
        assert signature.verify(PK15, m, signature.sign_raw(KEY15, m))
    sk = paillier.keygen(32, rng=random.Random(12))
    for _ in range(10):
        m = rng.randrange(2, sk.public.n_squared)
        if m % sk.p == 0 or m % sk.q == 0:
            continue
        assert signature.verify(sk.public, m, signature.sign_raw(sk, m))


@pytest.mark.parametrize("bad", [0, 15, 45, 225, 226])
def test_sign_raw_rejects_non_units(bad):
    with pytest.raises(NotSignable):
        signature.sign_raw(KEY15, bad)


def test_verify_known_answers():
    assert signature.verify(PK15, 83, Signature(7, 2))
    assert not signature.verify(PK15, 83, Signature(7, 3))
    assert not signature.verify(PK15, 84, Signature(7, 2))


def test_verify_malformed_inputs_are_false_not_errors():
    assert not signature.verify(PK15, 83, Signature(15, 2))  # s1 >= n
    assert not signature.verify(PK15, 83, Signature(7, 15))  # s2 >= n
    assert not signature.verify(PK15, 83, Signature(-1, 2))
    assert not signature.verify(PK15, 0, Signature(0, 1))
    assert not signature.verify(PK15, 225, Signature(7, 2))


def test_hash_to_signable_regression_and_postconditions():
    assert signature.hash_to_signable(PK15, b"") == 203
    assert signature.hash_to_signable(PK15, b"abc") == 23
    rng = random.Random(9)
    import math

    for _ in range(50):
        message = rng.randbytes(rng.randrange(0, 64))
        value = signature.hash_to_signable(PK15, message)
        assert 0 < value < 225
        assert math.gcd(value, 225) == 1
        assert value == signature.hash_to_signable(PK15, message)


def test_hash_to_signable_pinned_on_a_512_bit_key():
    # n^2 takes 128 bytes here, so the digest is expanded over four blocks
    pk = paillier.keygen(256, rng=random.Random(0)).public
    assert pk.n.bit_length() == 512
    pinned = {
        b"": "f8833e4e7fef939ef3794f2507ebb4a87c8aeba2640f9e7aa4ce95d55af2dd7f",
        b"abc": "93e8c12ff079c6e303e6426ea5f77ab6c56dd021ffc3428b3b703f2ac3b87a3e",
    }
    for message, digest in pinned.items():
        value = signature.hash_to_signable(pk, message)
        assert hashlib.sha256(value.to_bytes(128, "big")).hexdigest() == digest


def test_sign_verify_message_roundtrip():
    sk = paillier.keygen(32, rng=random.Random(7))
    message = b"attack at dawn"
    sig = signature.sign(sk, message)
    assert signature.verify_message(sk.public, message, sig)
    assert not signature.verify_message(sk.public, b"attack at dusk", sig)
    other = paillier.keygen(32, rng=random.Random(8))
    assert not signature.verify_message(other.public, message, sig)


def test_blind_known_answer():
    blinded, secret = signature.blind(PK15, 83, ScriptedRandom([2]))
    assert blinded == 83 * pow(2, 15, 225) % 225 == 169
    assert secret.x == 2


def test_blind_with_unit_one_is_identity():
    blinded, _ = signature.blind(PK15, 83, ScriptedRandom([1]))
    assert blinded == 83


def test_blind_output_is_unit():
    rng = random.Random(14)
    import math

    for _ in range(30):
        m = rng.choice(units(225))
        blinded, _ = signature.blind(PK15, m, rng)
        assert math.gcd(blinded, 225) == 1


def test_blind_rejects_non_unit():
    with pytest.raises(NotSignable):
        signature.blind(PK15, 15)


def test_unblind_known_chain():
    blinded_sig = signature.sign_raw(KEY15, 169)
    assert (blinded_sig.s1, blinded_sig.s2) == (7, 4)
    secret = BlindingSecret(x=2)
    unblinded = signature.unblind(blinded_sig, secret, 15)
    assert unblinded == Signature(7, 2)
    assert unblinded == signature.sign_raw(KEY15, 83)


@pytest.mark.parametrize("n", [0, 1, -15])
def test_unblind_rejects_a_modulus_below_2(n):
    with pytest.raises(DomainError, match="modulus must be at least 2"):
        signature.unblind(Signature(7, 8), BlindingSecret(2), n)


def test_unblind_needs_x_to_be_a_unit_modulo_n():
    with pytest.raises(NotInvertible):
        signature.unblind(Signature(7, 4), BlindingSecret(x=3), 15)


def test_a_negative_signature_field_is_not_serialized():
    with pytest.raises(DomainError):
        keyfile.serialize_signature(Signature(-1, 2))


def test_unblind_with_unit_one_is_identity():
    sig = Signature(7, 4)
    assert signature.unblind(sig, BlindingSecret(1), 15) == sig


def test_blind_sign_unblind_equals_direct_signature():
    rng = random.Random(21)
    for _ in range(100):
        m = rng.choice(units(225))
        blinded, secret = signature.blind(PK15, m, rng)
        unblinded = signature.unblind(signature.sign_raw(KEY15, blinded), secret, 15)
        direct = signature.sign_raw(KEY15, m)
        assert unblinded == direct
        assert signature.verify(PK15, m, unblinded)


def test_blind_sign_unblind_at_real_key_size():
    sk = paillier.keygen(64, rng=random.Random(31))
    pk = sk.public
    rng = random.Random(32)
    for _ in range(20):
        m = rng.randrange(2, pk.n_squared)
        if m % sk.p == 0 or m % sk.q == 0:
            continue
        blinded, secret = signature.blind(pk, m, rng)
        unblinded = signature.unblind(signature.sign_raw(sk, blinded), secret, pk.n)
        assert unblinded == signature.sign_raw(sk, m)
        assert signature.verify(pk, m, unblinded)


def test_signer_sees_the_message_class():
    # blinding hides the residue part only: s1 of the blinded message
    # equals s1 of the original, and the signer can observe it
    rng = random.Random(37)
    for _ in range(40):
        m = rng.choice(units(225))
        blinded, _ = signature.blind(PK15, m, rng)
        assert (
            signature.sign_raw(KEY15, blinded).s1
            == signature.sign_raw(KEY15, m).s1
        )


def test_cross_key_signature_fails():
    sig = signature.sign_raw(KEY15, 83)
    assert not signature.verify(KEY35.public, 83, sig)


def test_signing_a_ciphertext_decrypts_it():
    # sign_raw's s1 is decrypt's class, so a key that signs must never decrypt
    for w in units(225):
        c = paillier.Ciphertext(w, PK15.fingerprint)
        assert signature.sign_raw(KEY15, c.value).s1 == paillier.decrypt(KEY15, c)
    sk = paillier.keygen(256, rng=random.Random(11))
    rng = random.Random(12)
    for _ in range(20):
        m = rng.randrange(sk.public.n)
        c = paillier.encrypt(sk.public, m, rng)
        assert signature.sign_raw(sk, c.value).s1 == paillier.decrypt(sk, c) == m
