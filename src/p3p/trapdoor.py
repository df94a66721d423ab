"""Deterministic trapdoor permutation over wide messages in Z_{n^2}.

A message m < n^2 splits n-adically into (low, high) = (m mod n, m div n)
and encrypts as g^low * high^n mod n^2. The map is a permutation only on
the admissible domain {m : m div n >= 1, gcd(m div n, n) = 1}; everything
else is rejected up front with the failing condition named, rather than
silently producing garbage. Being deterministic, this variant is not
semantically secure -- it trades randomness for a halved expansion factor.
"""

import math

from .errors import DomainError, InadmissibleMessage
from .paillier import Ciphertext, PrivateKey, PublicKey, _raw_encrypt, split_residue
from .paillier import _check_ciphertext_value, _check_key

REASON_ZERO_QUOTIENT = "zero-quotient"
REASON_NOT_COPRIME = "quotient-not-coprime"


def tp_encrypt(pk: PublicKey, m: int) -> Ciphertext:
    """Deterministic ciphertext g^low * high^n mod n^2 of an admissible m."""
    if not 0 <= m < pk.n_squared:
        raise DomainError("message must be in [0, n^2)")
    high, low = divmod(m, pk.n)
    if high == 0:
        reason = REASON_ZERO_QUOTIENT
    elif math.gcd(high, pk.n) != 1:
        reason = REASON_NOT_COPRIME
    else:
        return Ciphertext(_raw_encrypt(pk, low, high), pk.fingerprint)
    raise InadmissibleMessage(f"inadmissible message: {reason}", reason)


def tp_decrypt(sk: PrivateKey, c: Ciphertext) -> int:
    """Invert tp_encrypt: class gives the low digit, the residue's principal
    root gives the high digit. The principal root of a unit is a unit, so
    every accepted ciphertext decrypts into the admissible domain."""
    pk = sk.public
    _check_key(pk, c)
    _check_ciphertext_value(pk, c.value)
    low, high = split_residue(sk, c.value)
    return high * pk.n + low
