import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3p import numtheory as nt
from p3p.errors import DomainError, NotInvertible

from conftest import ScriptedRandom
from oracles import egcd_inverse, trial_division_is_prime


def test_mod_inv_known_values():
    assert nt.mod_inv(4, 15) == 4
    assert nt.mod_inv(106, 225) == 121


def test_mod_inv_shared_factor():
    with pytest.raises(NotInvertible):
        nt.mod_inv(3, 15)


@given(
    a=st.integers(min_value=1, max_value=10**9),
    modulus=st.integers(min_value=2, max_value=10**9),
)
@settings(deadline=None)
def test_mod_inv_matches_euclid_oracle(a, modulus):
    if math.gcd(a, modulus) != 1:
        with pytest.raises(NotInvertible):
            nt.mod_inv(a, modulus)
    else:
        inv = nt.mod_inv(a, modulus)
        assert inv == egcd_inverse(a, modulus)
        assert a * inv % modulus == 1


def test_l_function_known_values():
    assert nt.l_function(61, 15) == 4
    for n in (2, 15, 225, 10**9 + 7):
        assert nt.l_function(1, n) == 0


def test_l_function_rejects_non_root():
    with pytest.raises(DomainError):
        nt.l_function(62, 15)
    with pytest.raises(DomainError):
        nt.l_function(5, 1)


@given(
    k=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=2, max_value=10**6),
)
def test_l_function_inverts_linear_form(k, n):
    u = 1 + k * n
    assert nt.l_function(u, n) * n + 1 == u


def test_primality_known_values():
    assert nt.is_probable_prime(7, 20)
    assert not nt.is_probable_prime(15, 20)
    assert nt.is_probable_prime(2, 20)


def test_primality_agrees_with_trial_division_below_2000():
    for n in range(2000):
        assert nt.is_probable_prime(n, 20) == trial_division_is_prime(n), n


def test_primality_large_known_values():
    assert nt.is_probable_prime(2**127 - 1, 20)  # Mersenne prime
    assert not nt.is_probable_prime(2**128 - 1, 20)
    assert not nt.is_probable_prime((2**61 - 1) * (2**31 - 1), 20)


def test_primality_rounds_validated():
    with pytest.raises(DomainError):
        nt.is_probable_prime(7, 0)


def test_gen_prime_two_bits():
    draws = {nt.gen_prime(2, random.Random(i)) for i in range(12)}
    assert draws and draws <= {2, 3}


def test_gen_prime_seeded_regression():
    value = nt.gen_prime(16, random.Random(2024))
    assert value == 63473
    assert trial_division_is_prime(value)


@pytest.mark.parametrize("bits", [2, 3, 8, 16, 48])
def test_gen_prime_bit_length_and_primality(bits):
    value = nt.gen_prime(bits, random.Random(bits))
    assert value.bit_length() == bits
    assert nt.is_probable_prime(value, 40)


def test_gen_prime_rejects_one_bit():
    with pytest.raises(DomainError):
        nt.gen_prime(1)


def test_random_unit_smallest_modulus():
    assert nt.random_unit(2, random.Random(0)) == 1


def test_random_unit_postcondition():
    rng = random.Random(99)
    for _ in range(200):
        value = nt.random_unit(15, rng)
        assert 1 <= value < 15
        assert math.gcd(value, 15) == 1


def test_random_unit_seeded_sequence_regression():
    rng = random.Random(7)
    assert [nt.random_unit(15, rng) for _ in range(3)] == [7, 11, 1]


def test_random_unit_rejects_non_units_until_one_fits():
    # 5 and 10 share a factor with 15 and must be rejected, not returned
    assert nt.random_unit(15, ScriptedRandom([5, 10, 8])) == 8


def test_random_unit_modulus_validated():
    with pytest.raises(DomainError):
        nt.random_unit(1)
