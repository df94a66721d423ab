"""Independent reference computations used to cross-check the package.

Deliberately naive textbook algorithms (repeated multiplication, extended
Euclid, trial division, exhaustive search) sharing no code with the
implementation under test.
"""

import math


def naive_mod_pow(base, exp, modulus):
    result = 1 % modulus
    for _ in range(exp):
        result = result * base % modulus
    return result


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
