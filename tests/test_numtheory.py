import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p3p import cli, paillier, threepass
from p3p import numtheory as nt
from p3p.errors import DomainError, NotInvertible, P3PError

from conftest import ScriptedRandom
from oracles import (
    egcd_inverse,
    strong_probable_prime,
    textbook_gen_prime,
    trial_division_is_prime,
)

SIEVE_LIMIT = 2**16
# The primes the gcd sieve divides out: those in (1000, 2^16).
SIEVE_PRIMES = [n for n in range(1001, SIEVE_LIMIT, 2) if trial_division_is_prime(n)]


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
    # before any shortcut: small primes, trial division and the sieve gcd
    for n in (7, 0, 1, 2, 15, 1009, 1009 * 1013, 65537, 2**127 - 1, 2**128 - 1):
        for rounds in (0, -1):
            with pytest.raises(DomainError):
                nt.is_probable_prime(n, rounds)


def test_primality_agrees_with_trial_division_across_the_sieve_limit():
    for n in range(SIEVE_LIMIT - 2000, SIEVE_LIMIT + 2001):
        assert nt.is_probable_prime(n, 20) == trial_division_is_prime(n), n


def test_primes_dividing_the_sieve_product_are_still_prime():
    assert len(SIEVE_PRIMES) == 6374
    assert all(nt.is_probable_prime(p, 20) for p in SIEVE_PRIMES)


def test_semiprimes_of_sieve_primes_are_rejected():
    rng = random.Random(16)
    for _ in range(300):
        p, q = rng.choice(SIEVE_PRIMES), rng.choice(SIEVE_PRIMES)
        assert not nt.is_probable_prime(p * q, 20), (p, q)
        assert not nt.is_probable_prime(p * (2**127 - 1), 20), p


def test_base_2_round_matches_the_oracle_and_misses_only_pseudoprimes():
    passed = [n for n in range(20000) if nt.is_base2_probable_prime(n)]
    oracle = [2] + [n for n in range(3, 20000, 2) if strong_probable_prime(n, 2)]
    assert passed == oracle
    # the strong base-2 pseudoprimes below 20000 pass; every prime does
    pseudoprimes = [n for n in passed if not trial_division_is_prime(n)]
    assert pseudoprimes == [2047, 3277, 4033, 4681, 8321, 15841]
    assert len(passed) - len(pseudoprimes) == sum(map(trial_division_is_prime, range(20000)))
    assert nt.is_base2_probable_prime(2**127 - 1)
    assert not nt.is_base2_probable_prime(2**128 - 1)


def hac_448_bound(k, t):
    """HAC Fact 4.48(ii): average-case error of t Miller-Rabin rounds on a
    uniformly random odd k-bit integer (Damgard, Landrock, Pomerance)."""
    return k**1.5 * 2**t * t**-0.5 * 4 ** (2 - math.sqrt(t * k))


@pytest.mark.parametrize("bits, rounds", nt.KEYGEN_MR_ROUNDS_BY_BITS)
def test_keygen_round_table_meets_the_dlp_bound(bits, rounds):
    assert 3 <= rounds <= bits / 9  # where Fact 4.48(ii) holds
    assert hac_448_bound(bits, rounds) < 2**-128
    # the next smaller count would not do: the table is tight
    assert hac_448_bound(bits, rounds - 1) >= 2**-128


def test_keygen_rounds_by_prime_size():
    expected = {2: 40, 256: 40, 511: 40, 512: 12, 1023: 12, 1024: 6, 1535: 6,
                1536: 4, 4096: 4}
    assert {bits: nt._keygen_rounds(bits) for bits in expected} == expected


def test_outside_numbers_keep_the_default_rounds(primality_calls, capsys):
    paillier.from_primes(1019, 1021)
    assert len(primality_calls) == 2
    # shamir_keygen checks the prime, and so does the ShamirParty it builds
    threepass.shamir_keygen(1019, random.Random(0))
    assert len(primality_calls) == 4
    assert cli.main(["shamir-demo", "--prime", "1019", "--message", "3",
                     "--seed", "0"]) == 0
    assert "recovered 3" in capsys.readouterr().out
    assert len(primality_calls) == 8
    assert min(r for _, r in primality_calls) >= nt.DEFAULT_MR_ROUNDS


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_gen_prime_matches_the_textbook_search(bits):
    for seed in range(8):
        expected = textbook_gen_prime(bits, random.Random(seed))
        assert nt.gen_prime(bits, random.Random(seed)) == expected, seed


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


def test_keygen_modulus_is_often_one_bit_short():
    # gen_prime sets only the top bit, so p*q has 2b - 1 or 2b bits
    lengths = [paillier.keygen(64, rng=random.Random(seed)).public.n.bit_length()
               for seed in range(40)]
    assert set(lengths) == {127, 128}


# Python will not print an int of more than 4,300 digits, so a message that
# named one of these would raise ValueError in place of the P3PError.
HUGE = {"2^20000": 2**20000, "-2^20000": -(2**20000), "2^20000+1": 2**20000 + 1}
OUTSIDE_INTEGER_CALLS = {
    "mod_inv-value": lambda v: nt.mod_inv(v, 6),
    "mod_inv-modulus": lambda v: nt.mod_inv(2, v),
    "l_function-value": lambda v: nt.l_function(v, 3),
    "l_function-modulus": lambda v: nt.l_function(3, v),
    "random_unit": lambda v: nt.random_unit(v),
    "shamir_party": lambda v: threepass.shamir_party(v, 3),  # 641 divides 2^20000+1
    "from_primes": lambda v: paillier.from_primes(v, 5),
    "PublicKey": lambda v: paillier.PublicKey(v, 1),
}


@pytest.mark.parametrize("value", HUGE)
@pytest.mark.parametrize("call", OUTSIDE_INTEGER_CALLS)
def test_a_huge_outside_integer_raises_only_p3p_errors(call, value):
    try:
        OUTSIDE_INTEGER_CALLS[call](HUGE[value])
    except P3PError:
        pass  # any other exception fails the test
