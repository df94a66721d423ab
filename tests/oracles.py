"""Independent reference computations used to cross-check the package.

Deliberately naive textbook algorithms (repeated multiplication, extended
Euclid, trial division, exhaustive search) sharing no code with the
implementation under test.
"""

import math
import random


def egcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


def egcd_inverse(a, m):
    g, x, _ = egcd(a % m, m)
    assert g == 1, f"{a} not invertible mod {m}"
    return x % m


def trial_division_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def strong_probable_prime(n, a):
    """One Miller-Rabin round: whether odd n > 2 passes for witness a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def textbook_gen_prime(bits, rng, rounds=40):
    """The prime search as first written: odd ``bits``-bit candidates from
    rng, trial division below 1000, then ``rounds`` Miller-Rabin rounds.
    Witnesses come from a source of their own, so the prime found depends
    on rng alone. Meant for bits well above 10."""
    small = [f for f in range(2, 1000) if trial_division_is_prime(f)]
    witnesses = random.Random(bits)
    while True:
        candidate = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if any(candidate % f == 0 for f in small):
            continue
        if all(
            strong_probable_prime(candidate, witnesses.randrange(2, candidate - 1))
            for _ in range(rounds)
        ):
            return candidate


def units(modulus):
    return [x for x in range(1, modulus) if math.gcd(x, modulus) == 1]


def brute_force_class(n, g, w):
    """The unique exponent m with w = g^m * x^n mod n^2, by full search."""
    n2 = n * n
    found = {
        m
        for m in range(n)
        for x in units(n)
        if pow(g, m, n2) * pow(x, n, n2) % n2 == w
    }
    assert len(found) == 1, f"search found {sorted(found)} for {w}"
    return found.pop()


def textbook_encrypt(n, m, x):
    """Paillier's g^m * x^n mod n^2 for the base g = n + 1, by the built-in pow."""
    n2 = n * n
    return pow(n + 1, m, n2) * pow(x, n, n2) % n2


def textbook_class(p, q, g, w):
    """Class of w relative to base g through the Carmichael value:
    L(w^lambda mod n^2) * L(g^lambda mod n^2)^-1 mod n. With the key's
    base this is textbook decryption, L(c^lambda) * mu mod n."""
    n = p * q
    n2 = n * n
    lam = (p - 1) * (q - 1) // egcd(p - 1, q - 1)[0]
    return (
        (pow(w, lam, n2) - 1) // n * egcd_inverse((pow(g, lam, n2) - 1) // n, n) % n
    )


def textbook_root(p, q, v):
    """Principal n-th root of v: v^(1/n mod lambda) mod n."""
    n = p * q
    lam = (p - 1) * (q - 1) // egcd(p - 1, q - 1)[0]
    return pow(v % n, egcd_inverse(n, lam), n)


def textbook_split(p, q, g, w):
    """(class, principal root of w * g^-class) by the two formulas above."""
    n = p * q
    s1 = textbook_class(p, q, g, w)
    return s1, textbook_root(p, q, w * egcd_inverse(pow(g, s1, n * n), n * n))


def textbook_is_residue_base(p, q, g):
    """Whether g generates the residue classes of n = p*q: g is a unit
    modulo n^2 and L(g^lambda mod n^2) is a unit modulo n."""
    n = p * q
    n2 = n * n
    if not 0 < g < n2 or math.gcd(g, n2) != 1:
        return False
    lam = (p - 1) * (q - 1) // egcd(p - 1, q - 1)[0]
    return math.gcd((pow(g, lam, n2) - 1) // n, n) == 1
