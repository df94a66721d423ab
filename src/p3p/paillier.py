"""Paillier keys, the probabilistic scheme, and its homomorphic operations.

Encryption maps (m, x) to g^m * x^n mod n^2. Every private-key operation
is one split of a unit w into its class s1 and the principal n-th root s2
of its residue part, w = g^s1 * s2^n mod n^2, computed modulo p^2, q^2, p
and q and recombined by CRT (Paillier, EUROCRYPT '99, section 7).
Ciphertexts multiply to add their plaintexts, exponentiate to scale them,
and can be re-randomized without the private key (self-blinding). Keys and
ciphertexts are immutable; every operation is pure.
"""

import enum
import math

# SHA-256 from the interpreter's built-in module, the way the stdlib's random
# takes sha512; the OpenSSL-backed constructor would map libcrypto into every
# process (about 3.5 MB of RSS).
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import numtheory as nt
from ._record import Record
from .errors import (
    DomainError,
    KeyMismatch,
    MalformedCiphertext,
    NotInvertible,
    PlaintextOutOfRange,
)


class SelfBlindMode(enum.Enum):
    """Which blinding factor rerandomize multiplies in."""

    UNIT_POWER = "unit-power"  # x^n for a fresh unit x


def fingerprint_modulus(n: int) -> bytes:
    """Digest identifying a modulus, carried by ciphertexts for key checks."""
    return sha256(n.to_bytes((n.bit_length() + 7) // 8, "big")).digest()


class PublicKey(Record):
    """Everything a sender or verifier needs: the modulus and residue base.

    The base is g = n + 1: the class problem is random-self-reducible over
    g (Paillier, EUROCRYPT '99, section 3), so no other base is harder.
    Key files and key announces carry g. Construction is the one check of
    a public key: it raises DomainError unless n >= 2 and g = n + 1. It
    derives ``n_squared`` and ``fingerprint``.
    """

    _fields = ("n", "g")

    def __init__(self, n: int, g: int):
        super().__init__(n, g)
        if n < 2:
            raise DomainError("modulus is too small: n must be at least 2")
        if g != n + 1:
            raise DomainError("base must be n + 1")
        self._set_derived(n_squared=n * n, fingerprint=fingerprint_modulus(n))

    def __repr__(self):
        return (
            f"<PublicKey {self.n.bit_length()}-bit "
            f"{self.fingerprint.hex()[:12]}>"
        )


class _Half(Record):
    """A private key's arithmetic modulo one of its primes r and r^2.

    Each private-key operation applies one method to both halves and sums
    the results times u2, mod n or n^2; that sum is the CRT recombination
    (Paillier, EUROCRYPT '99, section 7). No repr: a half holds r.
    """

    _fields = (
        "r",
        "r_squared",
        "h",  # L_r(g^(r-1) mod r^2)^-1 mod r
        "d",  # n^-1 mod (r-1)
        "e",  # n mod (r-1)
        "u2",  # 1 mod r^2, 0 mod the other square; so 1 mod r, 0 mod the other prime
    )
    __repr__ = object.__repr__

    def class_(self, w: int) -> int:
        """Class of w mod r: Z*_{r^2} has order r(r-1), so w = g^s1 * x^n
        gives w^(r-1) = g^(s1(r-1))."""
        return nt.l_function(pow(w, self.r - 1, self.r_squared), self.r) * self.h % self.r

    def nth_power(self, x: int) -> int:
        """x^n mod r^2, by the Teichmueller lift.

        Z*_{r^2} is Z_r x Z*_r, and its n-th powers form the factor of order
        r - 1, so x^n mod r^2 depends only on x mod r: it is c^r mod r^2 for
        c = (x mod r)^(n mod (r-1)) mod r (Paillier, EUROCRYPT '99, section 3).
        """
        return pow(pow(x % self.r, self.e, self.r), self.r, self.r_squared)

    def root(self, v: int) -> int:
        """The n-th root of v mod r; gcd(n, lambda) = 1, so x -> x^n permutes Z*_r."""
        return pow(v % self.r, self.d, self.r)


class PrivateKey(Record):
    """The primes p, q and base g = n + 1; all other fields derive from them.

    Construction is the one derivation and check of a private key. It raises
    DomainError if p = q, gcd(n, lambda) != 1, or PublicKey(p*q, g) does
    (so unless g = n + 1); p and q are trusted to be prime. It derives
    ``public``, ``lam`` = lcm(p-1, q-1), ``mu`` = L(g^lam mod n^2)^-1 mod n
    and the two ``halves``.
    """

    _fields = ("p", "q", "g")

    def __init__(self, p: int, q: int, g: int):
        super().__init__(p, q, g)
        if p == q:
            raise DomainError("primes must be distinct")
        public = PublicKey(n=p * q, g=g)
        n, n_squared = public.n, public.n_squared
        lam = math.lcm(p - 1, q - 1)
        if math.gcd(n, lam) != 1:
            raise DomainError("gcd(n, lambda) != 1; key unusable")
        # The CRT coefficient of p; q's follows from it without an inverse.
        # u^2 (3 - 2u) lifts an idempotent u mod n to one mod n^2.
        u_p = q * nt.mod_inv(q, p)
        u2_p = u_p * u_p * (3 - 2 * u_p) % n_squared
        # L(g^lam mod n^2) = l * k / other (mod r) for l = L_r(g^(r-1) mod r^2)
        # and k = lam/(r-1), a unit as gcd(n, lam) = 1. One inverse of l*k
        # gives both h = l^-1 and mu modulo r. For g = n + 1, l = -other mod
        # r, a unit, so the inverse always exists.
        halves, mu = [], 0
        for r, other, u2 in ((p, q, u2_p), (q, p, (1 - u2_p) % n_squared)):
            l_value = nt.l_function(pow(g, r - 1, r * r), r)
            k = lam // (r - 1)
            inverse = nt.mod_inv(l_value * k, r)
            halves.append(
                _Half(r, r * r, inverse * k % r, nt.mod_inv(n, r - 1), n % (r - 1), u2)
            )
            mu += inverse * other % r * u2
        self._set_derived(public=public, lam=lam, mu=mu % n, halves=tuple(halves))

    def __repr__(self):
        return f"<PrivateKey for {self.public!r}>"


class Ciphertext(Record):
    """Element of Z*_{n^2} tagged with the fingerprint of its key's modulus."""

    _fields = ("value", "key_fingerprint")
    _shown = ("value",)


def _is_unit(pk: PublicKey, w: int) -> bool:
    # gcd(w, n) = 1 iff gcd(w, n^2) = 1, and the smaller gcd is about twice as fast
    return 0 < w < pk.n_squared and math.gcd(w, pk.n) == 1


def keygen(bits: int, rng: nt.RandomSource | None = None) -> PrivateKey:
    """Generate a fresh key with two distinct ``bits``-bit primes.

    Redraws both primes only if they are equal. Primes of the same bit
    length always give gcd(n, lambda) = 1: a prime q < 2p cannot be
    1 mod p, so the principal n-th root exponent 1/n mod lambda that the
    trapdoor permutation and the signature need always exists.
    """
    if bits < 4:
        raise DomainError("need at least 4 bits per prime")
    p = q = 0
    while p == q:
        p = nt.gen_prime(bits, rng)
        q = nt.gen_prime(bits, rng)
    return PrivateKey(p, q, p * q + 1)


def from_primes(p: int, q: int) -> PrivateKey:
    """Key from explicit primes; meant for toy moduli in tests and demos.

    Raises DomainError unless p and q pass ``numtheory.require_prime`` and
    PrivateKey accepts them (p=3, q=7 it does not).
    """
    nt.require_prime(p, "p")
    nt.require_prime(q, "q")
    return PrivateKey(p, q, p * q + 1)


def _check_plaintext(pk: PublicKey, m: int) -> None:
    if not 0 <= m < pk.n:
        raise PlaintextOutOfRange("plaintext must be in [0, n)")


def _check_key(pk: PublicKey, *ciphertexts: Ciphertext) -> None:
    for c in ciphertexts:
        if c.key_fingerprint != pk.fingerprint:
            raise KeyMismatch("ciphertext was created under a different key")


def _pow_g(pk: PublicKey, exp: int) -> int:
    # (1 + n)^e = 1 + e*n mod n^2, so the base never needs pow().
    return (1 + exp % pk.n * pk.n) % pk.n_squared


def _public(key: PublicKey | PrivateKey) -> PublicKey:
    return key.public if isinstance(key, PrivateKey) else key


def _nth_power(key: PublicKey | PrivateKey, x: int) -> int:
    """x^n mod n^2; with the private key, by CRT and the Teichmueller lift
    (``_Half.nth_power``). Both paths give the same value for every x."""
    if isinstance(key, PublicKey):
        return pow(x, key.n, key.n_squared)
    return sum(h.nth_power(x) * h.u2 for h in key.halves) % key.public.n_squared


def _raw_encrypt(key: PublicKey | PrivateKey, s1: int, s2: int) -> int:
    """g^s1 * s2^n mod n^2, the map that split_residue inverts.

    Encryption (s1 = m, s2 = x), the trapdoor permutation (the n-adic
    digits of a wide message) and signature verification all evaluate it.
    The key owner may pass its private key, which makes s2^n cheaper.
    """
    pk = _public(key)
    return _pow_g(pk, s1) * _nth_power(key, s2) % pk.n_squared


def encrypt(
    key: PublicKey | PrivateKey, m: int, rng: nt.RandomSource | None = None
) -> Ciphertext:
    """Randomized encryption: g^m * x^n mod n^2 for a fresh unit x.

    Under the private key the result is the same, computed faster.
    """
    pk = _public(key)
    _check_plaintext(pk, m)
    x = nt.random_unit(pk.n, rng)
    return Ciphertext(_raw_encrypt(key, m, x), pk.fingerprint)


def encrypt_with_nonce(pk: PublicKey, m: int, x: int) -> Ciphertext:
    """Deterministic form of encrypt with the unit x supplied by the caller."""
    _check_plaintext(pk, m)
    if not 1 <= x < pk.n or math.gcd(x, pk.n) != 1:
        raise NotInvertible("nonce is not a unit in [1, n)")
    return Ciphertext(_raw_encrypt(pk, m, x), pk.fingerprint)


def _check_ciphertext_value(pk: PublicKey, value: int) -> None:
    if not _is_unit(pk, value):
        raise MalformedCiphertext("ciphertext is not a unit modulo n^2")


def _class(sk: PrivateKey, w: int) -> int:
    return sum(h.class_(w) * h.u2 for h in sk.halves) % sk.public.n


def _power_mod_n(sk: PrivateKey, w: int, k: int) -> int:
    """w^k mod n for a unit w, by CRT: one pow mod each prime r, with the
    exponent reduced mod r - 1."""
    return sum(pow(w % h.r, k % (h.r - 1), h.r) * h.u2 for h in sk.halves) % sk.public.n


def decrypt(sk: PrivateKey, c: Ciphertext) -> int:
    """Recover m, the class of c relative to the key's base."""
    pk = sk.public
    _check_key(pk, c)
    _check_ciphertext_value(pk, c.value)
    return _class(sk, c.value)


def extract_class(sk: PrivateKey, w: int, base: int) -> int:
    """Residue class of w relative to ``base``: the unique exponent in
    w = base^class * (n-th power of a unit)."""
    pk = sk.public
    if not _is_unit(pk, w):
        raise DomainError("w is not a unit modulo n^2")
    if base == pk.g:
        return _class(sk, w)
    if not _is_unit(pk, base):
        raise DomainError("base is not a unit modulo n^2")
    # change of base: class_base(w) = class_g(w) / class_g(base)
    try:
        denominator_inv = nt.mod_inv(_class(sk, base), pk.n)
    except NotInvertible:
        raise DomainError("base is not a valid residue base") from None
    return _class(sk, w) * denominator_inv % pk.n


def extract_residue(sk: PrivateKey, w: int) -> int:
    """The n-th-power part left after dividing out the key base's class:
    s2^n mod n^2 for the root s2 that split_residue finds."""
    return _nth_power(sk, split_residue(sk, w)[1])


def principal_root(sk: PrivateKey, value: int) -> int:
    """The unique n-th root below n of an n-residue.

    ``value`` may be given modulo n^2 or larger; only its residues modulo
    p and q are used. Meaningful only when it is a unit modulo n.
    """
    return sum(h.root(value) * h.u2 for h in sk.halves) % sk.public.n


def split_residue(sk: PrivateKey, w: int) -> tuple[int, int]:
    """The pair (s1, s2) with w = g^s1 * s2^n mod n^2 for a unit w.

    s1 is the class of w relative to the key's base and s2 < n the
    principal n-th root of its residue part w * g^-s1. The root needs that
    part only modulo p and q, where g = n + 1 is 1, so it is w itself.
    """
    s1 = extract_class(sk, w, sk.public.g)
    return s1, principal_root(sk, w)


def homomorphic_add(pk: PublicKey, c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    """Ciphertext of m1 + m2 mod n, by multiplying the ciphertexts."""
    _check_key(pk, c1, c2)
    return Ciphertext(c1.value * c2.value % pk.n_squared, pk.fingerprint)


def scalar_mul(pk: PublicKey, c: Ciphertext, k: int) -> Ciphertext:
    """Ciphertext of k * m mod n, by raising the ciphertext to k >= 0."""
    _check_key(pk, c)
    if k < 0:
        raise DomainError("scalar must be non-negative")
    return Ciphertext(pow(c.value, k, pk.n_squared), pk.fingerprint)


def add_plaintext(pk: PublicKey, c: Ciphertext, m2: int) -> Ciphertext:
    """Ciphertext of m1 + m2 mod n, by multiplying in g^m2."""
    _check_key(pk, c)
    _check_plaintext(pk, m2)
    return Ciphertext(c.value * _pow_g(pk, m2) % pk.n_squared, pk.fingerprint)


def rerandomize(
    pk: PublicKey,
    c: Ciphertext,
    rng: nt.RandomSource | None = None,
    mode: SelfBlindMode = SelfBlindMode.UNIT_POWER,
) -> Ciphertext:
    """Fresh-looking ciphertext of the same plaintext (self-blinding).

    UNIT_POWER multiplies by x^n for a fresh unit x.
    """
    _check_key(pk, c)
    if not isinstance(mode, SelfBlindMode):  # a member, not its value or a look-alike
        raise DomainError("expected a SelfBlindMode member")
    factor = _nth_power(pk, nt.random_unit(pk.n, rng))
    return Ciphertext(c.value * factor % pk.n_squared, pk.fingerprint)
