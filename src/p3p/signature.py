"""Signatures over Z*_{n^2}, hash-then-sign, and Chaum-style blinding.

A signature (s1, s2) of m satisfies m = g^s1 * s2^n mod n^2: s1 is the
message's residue class, s2 the principal root of what remains. Blinding
multiplies the message by x^n before signing; since an n-th power has
class 0, the signer's s1 equals the s1 of the original message --
blindness here covers the residue part only, not the class.
"""

from . import numtheory as nt
from ._record import Record
from .errors import InternalError, NotSignable
from .paillier import PrivateKey, PublicKey, _is_unit, _nth_power, _raw_encrypt, split_residue
from .paillier import sha256

_HASH_ATTEMPTS = 256


class Signature(Record):
    _fields = ("s1", "s2")


class BlindingSecret(Record):
    """Unit x used to blind; unblinding divides it back out.

    Sensitive: keep single-owner and drop the reference as soon as the
    signature is unblinded (Python offers no reliable zeroization).
    """

    _fields = ("x",)
    _shown = ()


def _check_signable(pk: PublicKey, m: int) -> None:
    if not _is_unit(pk, m):
        raise NotSignable("message must be a unit modulo n^2")


def sign_raw(sk: PrivateKey, m: int) -> Signature:
    """Sign a unit m in Z*_{n^2} directly, without hashing."""
    pk = sk.public
    _check_signable(pk, m)
    s1, s2 = split_residue(sk, m)
    return Signature(s1=s1, s2=s2)


def verify(pk: PublicKey, m: int, sig: Signature) -> bool:
    """True iff m = g^s1 * s2^n mod n^2; malformed inputs give False."""
    if not 0 <= sig.s1 < pk.n or not 0 <= sig.s2 < pk.n:
        return False
    if not 0 < m < pk.n_squared:
        return False
    return _raw_encrypt(pk, sig.s1, sig.s2) == m


def hash_to_signable(pk: PublicKey, message: bytes) -> int:
    """Map arbitrary bytes into Z*_{n^2} deterministically.

    The SHA-256 digest is expanded in counter mode to twice the modulus width,
    reduced mod n^2, and the attempt counter bumped until the result is a
    nonzero unit. Hitting a non-unit means factoring n, so in practice the
    first attempt wins.
    """
    target_bytes = (2 * pk.n.bit_length() + 7) // 8
    for attempt in range(_HASH_ATTEMPTS):
        buf = bytearray()
        block = 0
        while len(buf) < target_bytes:
            h = sha256()
            h.update(attempt.to_bytes(4, "big"))
            h.update(block.to_bytes(4, "big"))
            h.update(message)
            buf.extend(h.digest())
            block += 1
        candidate = int.from_bytes(buf[:target_bytes], "big") % pk.n_squared
        if _is_unit(pk, candidate):
            return candidate
    raise InternalError(f"no signable digest in {_HASH_ATTEMPTS} attempts")


def sign(sk: PrivateKey, message: bytes) -> Signature:
    """Hash-then-sign; use this for real messages, sign_raw for residues."""
    return sign_raw(sk, hash_to_signable(sk.public, message))


def verify_message(pk: PublicKey, message: bytes, sig: Signature) -> bool:
    return verify(pk, hash_to_signable(pk, message), sig)


def blind(
    pk: PublicKey, m: int, rng: nt.RandomSource | None = None
) -> tuple[int, BlindingSecret]:
    """Multiply m by a fresh x^n so a signer never sees m itself."""
    _check_signable(pk, m)
    x = nt.random_unit(pk.n, rng)
    blinded = m * _nth_power(pk, x) % pk.n_squared
    return blinded, BlindingSecret(x=x)


def unblind(sig_blinded: Signature, secret: BlindingSecret, n: int) -> Signature:
    """Turn a signature of the blinded message into one of the original.

    Only the public modulus is needed, so the blinding party can unblind
    without any signer key material. Raises DomainError for n < 2 and
    NotInvertible if x is not a unit modulo n.
    """
    return Signature(s1=sig_blinded.s1, s2=sig_blinded.s2 * nt.mod_inv(secret.x, n) % n)
