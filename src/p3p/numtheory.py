"""Number-theoretic primitives on Python's arbitrary-precision integers.

All functions are pure and total over validated inputs; randomness is
always injected through a ``RandomSource`` so callers control determinism.
None of the arithmetic here is constant-time -- see the README for the
side-channel caveat.
"""

import functools
import math
import random
from typing import Protocol

from .errors import DomainError, NotInvertible

# Miller-Rabin round counts. Numbers that come from outside get
# DEFAULT_MR_ROUNDS and the worst-case error bound 4**-rounds. gen_prime
# tests uniformly random candidates, whose average-case error Damgard,
# Landrock and Pomerance bound far lower (HAC Fact 4.48(ii)): each entry
# (least bits, rounds) of KEYGEN_MR_ROUNDS_BY_BITS keeps that error below
# 2**-128 for every prime size from its bit length up. The sieve in
# is_probable_prime removes only composites, so it can only lower that
# error. Smaller primes get KEYGEN_MR_ROUNDS (worst case 4**-40 = 2**-80).
KEYGEN_MR_ROUNDS = 40
KEYGEN_MR_ROUNDS_BY_BITS = ((1536, 4), (1024, 6), (512, 12))
DEFAULT_MR_ROUNDS = 20


class RandomSource(Protocol):
    """Uniform integer source; ``random.Random`` and ``random.SystemRandom`` fit.

    Seeded ``random.Random`` instances give reproducible sequences for
    tests; the system default draws from OS entropy. Instances are
    single-owner: do not share one across threads without locking.
    """

    def randrange(self, start: int, stop: int | None = None) -> int: ...


_SYSTEM = random.SystemRandom()


def system_random() -> RandomSource:
    """OS-entropy source used whenever no rng is injected."""
    return _SYSTEM


def _rng(rng: RandomSource | None) -> RandomSource:
    return _SYSTEM if rng is None else rng


def mod_inv(a: int, modulus: int) -> int:
    """Multiplicative inverse of a modulo modulus."""
    if modulus < 2:
        raise DomainError("modulus must be at least 2")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertible("value has no inverse modulo the modulus") from None


def l_function(u: int, n: int) -> int:
    """(u - 1) / n, defined only when u = 1 mod n.

    The quotient is exact; a non-divisible u signals that the caller fed a
    value that is not a root of unity modulo n (a violated Carmichael
    precondition upstream).
    """
    if n < 2:
        raise DomainError("modulus must be at least 2")
    quotient, remainder = divmod(u - 1, n)
    if remainder:
        raise DomainError("value is not 1 modulo the modulus")
    return quotient


# Width of _pow_mod_square's sliding window; 6 ran within 1% of it at 2048 bits.
_WINDOW = 5


def _pow_mod_square(x: int, e: int, m: int) -> int:
    """x^e mod m^2 for e >= 0 and m >= 1, on the m-adic digits of each residue.

    A residue y is held as (y mod m, y div m), so a product mod m^2 needs
    half-size products and two divisions by m, not one division by m^2
    (Takagi, CRYPTO '98, with p-adic digits). The window pattern follows
    the bits of e, as the built-in ``pow``'s does.
    """

    def mul(a, b):
        carry, lo = divmod(a[0] * b[0], m)
        return lo, (carry + a[0] * b[1] + a[1] * b[0]) % m

    def square(a):
        carry, lo = divmod(a[0] * a[0], m)
        return lo, (carry + 2 * a[0] * a[1]) % m

    bits = bin(e)[2:]
    width = min(_WINDOW, len(bits))
    hi, lo = divmod(x, m)
    # odd_powers[k] is x^(2k + 1)
    odd_powers = [(lo, hi % m)]
    x_squared = square(odd_powers[0])
    for _ in range(1, 1 << (width - 1)):
        odd_powers.append(mul(odd_powers[-1], x_squared))
    acc, i = (1 % m, 0), 0
    while i < len(bits):
        if bits[i] == "0":
            acc = square(acc)
            i += 1
            continue
        # the longest window from i that ends in a 1
        end = bits.rfind("1", i, i + width) + 1
        for _ in range(end - i):
            acc = square(acc)
        acc = mul(acc, odd_powers[int(bits[i:end], 2) >> 1])
        i = end
    return acc[0] + acc[1] * m


def _sieve(limit: int) -> bytearray:
    """flags[i] is 1 exactly when i <= limit is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


_SMALL_PRIMES = [i for i, f in enumerate(_sieve(1000)) if f]
_SIEVE_LIMIT = 1 << 16


@functools.cache
def _sieve_product() -> int:
    """Product of the primes in (1000, 2^16), built on first use (~20 ms).

    The primes are streamed from the flags, never held in a list, so
    building it adds nothing to the peak memory of a keygen.
    """
    flags = _sieve(_SIEVE_LIMIT)
    return math.prod(i for i in range(1001, _SIEVE_LIMIT, 2) if flags[i])


def is_probable_prime(candidate: int, rounds: int = DEFAULT_MR_ROUNDS) -> bool:
    """Miller-Rabin with ``rounds`` random witnesses.

    False positives occur with probability below 4**-rounds. Composites
    with a factor under 2^16 are rejected before any witness is drawn: by
    trial division below 1000, then, above 2^16, by one gcd with the
    product of the primes in (1000, 2^16).
    """
    if rounds < 1:
        raise DomainError("rounds must be >= 1")
    if candidate < 2:
        return False
    for p in _SMALL_PRIMES:
        if candidate == p:
            return True
        if candidate % p == 0:
            return False
    # candidate is odd and > 1000 here, so below 1000**2 it is prime; the
    # gcd would reject the primes in (1000, 2^16), so it starts above them
    if candidate > _SIEVE_LIMIT and math.gcd(candidate, _sieve_product()) != 1:
        return False
    witnesses = (_SYSTEM.randrange(2, candidate - 1) for _ in range(rounds))
    return all(_strong_round(candidate, a) for a in witnesses)


def require_prime(candidate: int, name: str) -> None:
    """The check of a prime from outside: DEFAULT_MR_ROUNDS Miller-Rabin
    rounds, else DomainError naming the argument, never its value."""
    if not is_probable_prime(candidate, DEFAULT_MR_ROUNDS):
        raise DomainError(f"{name} is not prime")


def _strong_round(candidate: int, a: int) -> bool:
    """One Miller-Rabin round: is the odd candidate > 2 a strong probable
    prime to the base a?"""
    d = candidate - 1
    s = (d & -d).bit_length() - 1  # 2^s is the largest power of 2 dividing d
    x = pow(a, d >> s, candidate)
    if x in (1, candidate - 1):
        return True
    for _ in range(s - 1):
        x = x * x % candidate
        if x == candidate - 1:
            return True
    return False


def is_base2_probable_prime(candidate: int) -> bool:
    """One Miller-Rabin round to the base 2, without the sieve: it catches a
    corrupted prime cheaply, not a crafted pseudoprime (2047 = 23 * 89)."""
    if candidate < 3 or candidate % 2 == 0:
        return candidate == 2
    return _strong_round(candidate, 2)


def _keygen_rounds(bits: int) -> int:
    for least, rounds in KEYGEN_MR_ROUNDS_BY_BITS:
        if bits >= least:
            return rounds
    return KEYGEN_MR_ROUNDS


def gen_prime(bits: int, rng: RandomSource | None = None) -> int:
    """Random probable prime with exactly ``bits`` bits (top bit set).

    The round count assumes ``rng`` draws uniformly; see
    ``KEYGEN_MR_ROUNDS_BY_BITS``. Witnesses come from the system source,
    so the primes found depend on ``rng`` alone.
    """
    if bits < 3:
        raise DomainError("primes need at least 3 bits")
    rng = _rng(rng)
    rounds = _keygen_rounds(bits)
    while True:
        candidate = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_probable_prime(candidate, rounds):
            return candidate


def random_unit(modulus: int, rng: RandomSource | None = None) -> int:
    """Uniform draw from Z*_modulus by rejection sampling.

    Rejection keeps the distribution exactly uniform over the units, which
    a modular reduction of a wider draw would not.
    """
    if modulus < 2:
        raise DomainError("modulus must be at least 2")
    rng = _rng(rng)
    while True:
        x = rng.randrange(1, modulus)
        if math.gcd(x, modulus) == 1:
            return x
