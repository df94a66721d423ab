"""The CRT private-key core against the textbook lambda formulas.

Every private-key operation goes through ``paillier.split_residue`` or its
class half; ``oracles`` computes the same values with c^lambda mod n^2 and
v^(1/n mod lambda) mod n.
"""

import copy
import random

import pytest

from p3p import paillier, signature, threepass, trapdoor
from p3p.paillier import Ciphertext

from oracles import (
    egcd_inverse,
    textbook_class,
    textbook_root,
    textbook_split,
    units,
)


def _other_base(p, q, avoid):
    """Smallest residue base of n = p*q that is not ``avoid``."""
    n = p * q
    for g in units(n * n):
        if g == avoid:
            continue
        try:
            textbook_class(p, q, g, g)
        except AssertionError:  # L(g^lambda) is not invertible
            continue
        return g
    raise AssertionError("no other residue base")


TOY_KEYS = [paillier.from_primes(p, q) for p, q in ((3, 5), (5, 7))]


@pytest.mark.parametrize("sk", TOY_KEYS, ids=lambda k: f"n{k.public.n}-g{k.public.g}")
def test_crt_fields_match_their_definitions(sk):
    n, n2, g = sk.public.n, sk.public.n_squared, sk.public.g
    assert [h.r for h in sk.halves] == [sk.p, sk.q]
    for h in sk.halves:
        r = h.r
        assert h.r_squared == r * r
        assert h.h == egcd_inverse((pow(g, r - 1, r * r) - 1) // r, r)
        assert (h.d, h.e) == (egcd_inverse(n, r - 1), n % (r - 1))
        assert h.u2 % (r * r) == 1 and 0 <= h.u2 < n2
    half_p, half_q = sk.halves
    assert (half_p.u2 + half_q.u2) % n2 == 1
    assert half_p.u2 * half_q.u2 % n2 == 0
    assert sk.mu == egcd_inverse((pow(g, sk.lam, n * n) - 1) // n, n)


@pytest.mark.parametrize("sk", TOY_KEYS, ids=lambda k: f"n{k.public.n}-g{k.public.g}")
def test_crt_core_exhaustive_small_modulus(sk):
    p, q = sk.p, sk.q
    pk = sk.public
    n, n2, g = pk.n, pk.n_squared, pk.g
    other = _other_base(p, q, g)
    for w in units(n2):
        s1, s2 = paillier.split_residue(sk, w)
        assert (s1, s2) == textbook_split(p, q, g, w)
        assert w == pow(g, s1, n2) * pow(s2, n, n2) % n2
        assert paillier.decrypt(sk, Ciphertext(w, pk.fingerprint)) == s1
        assert paillier.extract_class(sk, w, g) == s1
        assert paillier.extract_class(sk, w, other) == textbook_class(p, q, other, w)
        assert paillier.extract_residue(sk, w) == pow(s2, n, n2)
        assert paillier.principal_root(sk, w) == textbook_root(p, q, w)
        assert signature.sign_raw(sk, w) == signature.Signature(s1, s2)


@pytest.mark.parametrize("sk", TOY_KEYS, ids=lambda k: f"n{k.public.n}-g{k.public.g}")
def test_key_owner_nth_power_exhaustive_small_modulus(sk):
    n, n2 = sk.public.n, sk.public.n_squared
    assert sk.halves[0].u2 == sk.q**2 * egcd_inverse(sk.q**2, sk.p**2)
    for x in range(n2):  # Z*_n and every other residue
        assert paillier._nth_power(sk, x) == pow(x, n, n2)
        assert paillier._nth_power(sk.public, x) == pow(x, n, n2)


def test_key_owner_encryption_matches_public_on_512_bit_keys():
    rng = random.Random("lift-BaseStrategy.SAFE_DEFAULT")  # its seed from when keygen took a base
    sk = paillier.keygen(256, rng)
    pk = sk.public
    for _ in range(5):
        x = rng.randrange(1, pk.n)
        assert paillier._nth_power(sk, x) == pow(x, pk.n, pk.n_squared)
        m, seed = rng.randrange(pk.n), rng.getrandbits(64)
        assert paillier.encrypt(sk, m, random.Random(seed)) == paillier.encrypt(
            pk, m, random.Random(seed)
        )


def test_crt_core_matches_textbook_on_512_bit_keys():
    rng = random.Random("crt-BaseStrategy.SAFE_DEFAULT")  # its seed from when keygen took a base
    for _ in range(2):
        sk = paillier.keygen(256, rng)
        p, q = sk.p, sk.q
        pk = sk.public
        n, n2, g = pk.n, pk.n_squared, pk.g
        other = rng.randrange(2, n2)  # a residue base but for odds of ~2^-255
        for _ in range(3):
            m = rng.randrange(n)
            c = paillier.encrypt(pk, m, rng)
            assert paillier.decrypt(sk, c) == textbook_class(p, q, g, c.value) == m
            w = rng.randrange(1, n2)
            s1, s2 = textbook_split(p, q, g, w)
            assert paillier.split_residue(sk, w) == (s1, s2)
            assert paillier.extract_class(sk, w, g) == s1
            assert paillier.extract_class(sk, w, other) == textbook_class(p, q, other, w)
            assert paillier.extract_residue(sk, w) == pow(s2, n, n2)
            v = rng.randrange(1, n)
            assert paillier.principal_root(sk, v) == textbook_root(p, q, v)
            assert signature.sign_raw(sk, w) == signature.Signature(s1, s2)
            wide = rng.randrange(1, n) * n + rng.randrange(n)
            ct = trapdoor.tp_encrypt(pk, wide)
            low, high = textbook_split(p, q, g, ct.value)
            assert trapdoor.tp_decrypt(sk, ct) == high * n + low == wide


def test_derived_fields_stay_out_of_repr_and_equality():
    sk = paillier.keygen(64, rng=random.Random(3))
    assert repr(sk) == f"<PrivateKey for {sk.public!r}>"
    assert str(sk.lam) not in repr(sk) and str(sk.mu) not in repr(sk)
    assert list(vars(sk)) == ["p", "q", "g", "public", "lam", "mu", "halves"]
    with pytest.raises(TypeError):  # the constructor takes p, q and g alone
        paillier.PrivateKey(sk.p, sk.q, sk.g, sk.public)
    for name in ("public", "lam", "mu", "halves"):
        twin = copy.copy(sk)
        vars(twin)[name] = None
        assert twin == sk and hash(twin) == hash(sk), name


def test_no_secret_in_any_repr():
    sk = paillier.keygen(64, rng=random.Random(5))
    _, secret = signature.blind(sk.public, 2, random.Random(6))
    responder = threepass.PaillierResponderSession(sk.public)
    responder.step2_respond(2, random.Random(7))
    party = threepass.shamir_keygen(2**127 - 1, random.Random(8))
    secrets = [sk.p, sk.q, sk.lam, sk.mu, secret.x, responder._m2, party.e, party.d]
    secrets += [value for h in sk.halves for value in (h.h, h.d)]
    shown = [repr(sk), repr(sk.halves), *map(str, sk.halves), repr(secret), repr(responder)]
    shown += [repr(party)]
    for text in shown:
        for value in secrets:
            assert str(value) not in text and f"{value:x}" not in text.lower(), text
