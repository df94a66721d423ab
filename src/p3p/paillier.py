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
import hashlib
import math
from dataclasses import dataclass, field

from . import numtheory as nt
from .errors import (
    DomainError,
    InternalError,
    KeyMismatch,
    MalformedCiphertext,
    NotInvertible,
    PlaintextOutOfRange,
)


class BaseStrategy(enum.Enum):
    """How keygen picks the residue base g."""

    SAFE_DEFAULT = "safe-default"  # g = n + 1, always valid, cheapest to use
    RANDOM = "random"  # drawn from Z*_{n^2} and validated

    def __str__(self):
        return self.value


class SelfBlindMode(enum.Enum):
    """Which blinding factor rerandomize multiplies in."""

    UNIT_POWER = "unit-power"  # x^n for a fresh unit x
    BASE_POWER = "base-power"  # g^(n*r) for a fresh r


_RANDOM_BASE_ATTEMPTS = 128


def fingerprint_modulus(n: int) -> bytes:
    """Digest identifying a modulus, carried by ciphertexts for key checks."""
    return hashlib.sha256(n.to_bytes((n.bit_length() + 7) // 8, "big")).digest()


@dataclass(frozen=True)
class PublicKey:
    """Everything a sender or verifier needs: the modulus and residue base.

    Construction is the one check of a public key: it raises DomainError
    unless n >= 2 and g is a unit modulo n^2.
    """

    n: int
    g: int
    n_squared: int = field(init=False, repr=False)
    fingerprint: bytes = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"modulus {self.n} is too small")
        object.__setattr__(self, "n_squared", self.n * self.n)
        if not _is_unit(self, self.g):
            raise DomainError("base is not a unit modulo n^2")
        object.__setattr__(self, "fingerprint", fingerprint_modulus(self.n))

    def __repr__(self):
        return (
            f"<PublicKey {self.n.bit_length()}-bit "
            f"{self.fingerprint.hex()[:12]}>"
        )


@dataclass(frozen=True)
class PrivateKey:
    """The primes p, q and residue base g; all other fields derive from them.

    Construction is the one derivation and check of a private key. It raises
    DomainError if p = q, gcd(n, lambda) != 1, g is no residue base, or
    PublicKey(p*q, g) does; p and q are trusted to be prime.
    """

    p: int = field(repr=False)
    q: int = field(repr=False)
    g: int = field(repr=False)
    public: PublicKey = field(init=False, repr=False, compare=False)
    lam: int = field(init=False, repr=False, compare=False)  # lcm(p-1, q-1)
    mu: int = field(init=False, repr=False, compare=False)  # L(g^lam mod n^2)^-1 mod n
    p_squared: int = field(init=False, repr=False, compare=False)
    q_squared: int = field(init=False, repr=False, compare=False)
    # h_p = L_p(g^(p-1) mod p^2)^-1 mod p, and h_q the same modulo q
    h_p: int = field(init=False, repr=False, compare=False)
    h_q: int = field(init=False, repr=False, compare=False)
    p_inv: int = field(init=False, repr=False, compare=False)  # p^-1 mod q
    # p^-2 mod q^2, for recombining halves modulo p^2 and q^2
    p_squared_inv: int = field(init=False, repr=False, compare=False)
    d_p: int = field(init=False, repr=False, compare=False)  # n^-1 mod (p-1)
    d_q: int = field(init=False, repr=False, compare=False)  # n^-1 mod (q-1)

    def __post_init__(self):
        p, q, g = self.p, self.q, self.g
        if p == q:
            raise DomainError("primes must be distinct")
        public = PublicKey(n=p * q, g=g)
        n = public.n
        lam = math.lcm(p - 1, q - 1)
        common = math.gcd(n, lam)
        if common != 1:
            raise DomainError(f"gcd(n, lambda) = {common} != 1; key unusable")
        p_inv = nt.mod_inv(p, q)
        # L(g^lam mod n^2) = l * k / other (mod prime) for l = L_prime(g^(prime-1)
        # mod prime^2) and k = lam/(prime-1), a unit as gcd(n, lam) = 1. One
        # inverse of l*k gives both h = l^-1 and mu modulo prime.
        h, mu_parts = [], []
        for prime, other in ((p, q), (q, p)):
            l_value = nt.l_function(pow(g, prime - 1, prime * prime), prime)
            k = lam // (prime - 1)
            try:
                inverse = nt.mod_inv(l_value * k, prime)
            except NotInvertible:
                raise DomainError(f"{g} is not a residue base for n={n}") from None
            h.append(inverse * k % prime)
            mu_parts.append(inverse * other % prime)
        # one Newton step lifts p^-1 from mod q to mod q^2
        p_inv_lifted = p_inv * (2 - p * p_inv) % (q * q)
        derived = {
            "public": public,
            "lam": lam,
            "mu": _crt(p, q, p_inv, *mu_parts),
            "p_squared": p * p,
            "q_squared": q * q,
            "h_p": h[0],
            "h_q": h[1],
            "p_inv": p_inv,
            "p_squared_inv": p_inv_lifted * p_inv_lifted % (q * q),
            "d_p": nt.mod_inv(n, p - 1),
            "d_q": nt.mod_inv(n, q - 1),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __repr__(self):
        return f"<PrivateKey for {self.public!r}>"


@dataclass(frozen=True)
class Ciphertext:
    """Element of Z*_{n^2} tagged with the fingerprint of its key's modulus."""

    value: int
    key_fingerprint: bytes = field(repr=False)


def _is_unit(pk: PublicKey, w: int) -> bool:
    # gcd(w, n) = 1 iff gcd(w, n^2) = 1, and the smaller gcd is about twice as fast
    return 0 < w < pk.n_squared and math.gcd(w, pk.n) == 1


def _crt(p: int, q: int, p_inv: int, r_p: int, r_q: int) -> int:
    """The value below p*q that is r_p mod p and r_q mod q."""
    return r_p + p * ((r_q - r_p) * p_inv % q)


def keygen(
    bits: int,
    base_strategy: BaseStrategy = BaseStrategy.SAFE_DEFAULT,
    rng: nt.RandomSource | None = None,
) -> PrivateKey:
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
    n = p * q
    if base_strategy is BaseStrategy.SAFE_DEFAULT:
        return PrivateKey(p, q, n + 1)
    for _ in range(_RANDOM_BASE_ATTEMPTS):
        try:
            return PrivateKey(p, q, nt.random_unit(n * n, rng))
        except DomainError:
            continue
    raise InternalError(f"no residue base found in {_RANDOM_BASE_ATTEMPTS} draws")


def from_primes(p: int, q: int, g: int | None = None) -> PrivateKey:
    """Key from explicit primes; meant for toy moduli in tests and demos.

    ``g`` defaults to n + 1. Raises DomainError unless p and q pass
    ``is_probable_prime`` and PrivateKey accepts them (p=3, q=7 it does not).
    """
    for candidate in (p, q):
        if not nt.is_probable_prime(candidate, nt.DEFAULT_MR_ROUNDS):
            raise DomainError(f"{candidate} is not prime")
    return PrivateKey(p, q, p * q + 1 if g is None else g)


def _check_plaintext(pk: PublicKey, m: int) -> None:
    if not 0 <= m < pk.n:
        raise PlaintextOutOfRange(f"plaintext must be in [0, {pk.n}), got {m}")


def _check_key(pk: PublicKey, *ciphertexts: Ciphertext) -> None:
    for c in ciphertexts:
        if c.key_fingerprint != pk.fingerprint:
            raise KeyMismatch("ciphertext was created under a different key")


def _pow_g(pk: PublicKey, exp: int) -> int:
    # (1 + n)^e = 1 + e*n mod n^2, so the default base never needs pow().
    if pk.g == pk.n + 1:
        return (1 + exp % pk.n * pk.n) % pk.n_squared
    return pow(pk.g, exp, pk.n_squared)


def _public(key: PublicKey | PrivateKey) -> PublicKey:
    return key.public if isinstance(key, PrivateKey) else key


def _nth_power(key: PublicKey | PrivateKey, x: int) -> int:
    """x^n mod n^2; with the private key, by CRT and the Teichmueller lift.

    Z*_{p^2} is Z_p x Z*_p, and its n-th powers form the factor of order
    p - 1, so x^n mod p^2 depends only on x mod p: it is c^p mod p^2 for
    c = (x mod p)^(n mod (p-1)) mod p (Paillier, EUROCRYPT '99, section 3).
    The same holds modulo q^2. Both paths give the same value for every x.
    """
    if isinstance(key, PublicKey):
        return pow(x, key.n, key.n_squared)
    p, q, n = key.p, key.q, key.public.n
    return _crt(
        key.p_squared,
        key.q_squared,
        key.p_squared_inv,
        pow(pow(x % p, n % (p - 1), p), p, key.p_squared),
        pow(pow(x % q, n % (q - 1), q), q, key.q_squared),
    )


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
    if x < 1 or math.gcd(x, pk.n) != 1:
        raise NotInvertible(f"nonce {x} is not a unit modulo {pk.n}")
    return Ciphertext(_raw_encrypt(pk, m, x), pk.fingerprint)


def _check_ciphertext_value(pk: PublicKey, value: int) -> None:
    if not _is_unit(pk, value):
        raise MalformedCiphertext(f"{value} is not a unit modulo n^2")


def _class(sk: PrivateKey, w: int) -> int:
    # Z*_{p^2} has order p(p-1), so w = g^s1 * x^n gives w^(p-1) = g^(s1(p-1)).
    p, q = sk.p, sk.q
    return _crt(
        p,
        q,
        sk.p_inv,
        nt.l_function(pow(w, p - 1, sk.p_squared), p) * sk.h_p % p,
        nt.l_function(pow(w, q - 1, sk.q_squared), q) * sk.h_q % q,
    )


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
        raise DomainError(f"{w} is not a unit modulo n^2")
    if base == pk.g:
        return _class(sk, w)
    if not _is_unit(pk, base):
        raise DomainError("base is not a unit modulo n^2")
    # change of base: class_base(w) = class_g(w) / class_g(base)
    try:
        denominator_inv = nt.mod_inv(_class(sk, base), pk.n)
    except NotInvertible:
        raise DomainError(f"{base} is not a valid residue base") from None
    return _class(sk, w) * denominator_inv % pk.n


def extract_residue(sk: PrivateKey, w: int) -> int:
    """The n-th-power part left after dividing out the key base's class."""
    pk = sk.public
    cls = extract_class(sk, w, pk.g)
    return w * nt.mod_inv(_pow_g(pk, cls), pk.n_squared) % pk.n_squared


def principal_root(sk: PrivateKey, value: int) -> int:
    """The unique n-th root below n of an n-residue.

    ``value`` may be given modulo n^2 or larger; only its residues modulo
    p and q are used. Meaningful only when it is a unit modulo n.
    """
    # gcd(n, lambda) = 1, so x -> x^n permutes Z*_p and Z*_q.
    p, q = sk.p, sk.q
    return _crt(p, q, sk.p_inv, pow(value % p, sk.d_p, p), pow(value % q, sk.d_q, q))


def split_residue(sk: PrivateKey, w: int) -> tuple[int, int]:
    """The pair (s1, s2) with w = g^s1 * s2^n mod n^2 for a unit w.

    s1 is the class of w relative to the key's base and s2 < n the
    principal n-th root of its residue part w * g^-s1, which the root
    needs only modulo p and q.
    """
    pk = sk.public
    s1 = extract_class(sk, w, pk.g)
    if pk.g != pk.n + 1:  # the default base is 1 mod n, so it divides out for free
        p, q = sk.p, sk.q
        g_p, g_q = pow(pk.g, -s1 % (p - 1), p), pow(pk.g, -s1 % (q - 1), q)
        w *= _crt(p, q, sk.p_inv, g_p, g_q)
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

    UNIT_POWER multiplies by x^n for a fresh unit x; BASE_POWER multiplies
    by g^(n*r) for a fresh r. Note that with the default base g = n + 1
    the BASE_POWER factor is always 1, so only UNIT_POWER actually changes
    the ciphertext there.
    """
    _check_key(pk, c)
    rng = rng if rng is not None else nt.system_random()
    if mode is SelfBlindMode.UNIT_POWER:
        factor = _nth_power(pk, nt.random_unit(pk.n, rng))
    else:
        r = rng.randrange(1, pk.n)
        factor = _pow_g(pk, pk.n * r)
    return Ciphertext(c.value * factor % pk.n_squared, pk.fingerprint)
