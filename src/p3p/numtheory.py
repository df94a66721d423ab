"""Number-theoretic primitives on Python's arbitrary-precision integers.

All functions are pure and total over validated inputs; randomness is
always injected through a ``RandomSource`` so callers control determinism.
None of the arithmetic here is constant-time -- see the README for the
side-channel caveat.
"""

import math
import random
from typing import Protocol

from .errors import DomainError, NotInvertible

# Miller-Rabin round counts: 40 for key material, 20 for utility checks.
KEYGEN_MR_ROUNDS = 40
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
        raise DomainError(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertible(f"{a} has no inverse modulo {modulus}") from None


def l_function(u: int, n: int) -> int:
    """(u - 1) / n, defined only when u = 1 mod n.

    The quotient is exact; a non-divisible u signals that the caller fed a
    value that is not a root of unity modulo n (a violated Carmichael
    precondition upstream).
    """
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    quotient, remainder = divmod(u - 1, n)
    if remainder:
        raise DomainError(f"{u} is not 1 modulo {n}")
    return quotient


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve(1000)


def is_probable_prime(candidate: int, rounds: int = DEFAULT_MR_ROUNDS) -> bool:
    """Miller-Rabin with ``rounds`` random witnesses.

    False positives occur with probability below 4**-rounds. Composites
    with a factor under 1000 are rejected by trial division first.
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
    # candidate is odd and > 1000 here; write candidate - 1 = d * 2^s
    d = candidate - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = _SYSTEM.randrange(2, candidate - 1)
        x = pow(a, d, candidate)
        if x == 1 or x == candidate - 1:
            continue
        for _ in range(s - 1):
            x = x * x % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def gen_prime(bits: int, rng: RandomSource | None = None) -> int:
    """Random probable prime with exactly ``bits`` bits (top bit set)."""
    if bits < 2:
        raise DomainError("primes need at least 2 bits")
    rng = _rng(rng)
    while True:
        candidate = rng.randrange(1 << (bits - 1), 1 << bits)
        if bits > 2:
            candidate |= 1
        if is_probable_prime(candidate, KEYGEN_MR_ROUNDS):
            return candidate


def random_unit(modulus: int, rng: RandomSource | None = None) -> int:
    """Uniform draw from Z*_modulus by rejection sampling.

    Rejection keeps the distribution exactly uniform over the units, which
    a modular reduction of a wider draw would not.
    """
    if modulus < 2:
        raise DomainError(f"modulus must be >= 2, got {modulus}")
    rng = _rng(rng)
    while True:
        x = rng.randrange(1, modulus)
        if math.gcd(x, modulus) == 1:
            return x
