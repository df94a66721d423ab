"""Deterministic trapdoor permutation over wide messages in Z_{n^2}.

A message m < n^2 splits n-adically into (low, high) = (m mod n, m div n)
and encrypts as g^low * high^n mod n^2. The map is a permutation only on
the admissible domain {m : m div n >= 1, gcd(m div n, n) = 1}; everything
else is rejected up front with the failing condition named, rather than
silently producing garbage. Being deterministic, this variant is not
semantically secure -- it trades randomness for a halved expansion factor.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, InadmissibleMessage, MalformedCiphertext
from .paillier import Ciphertext, PrivateKey, PublicKey, _raw_encrypt, split_residue
from .paillier import _check_ciphertext_value, _check_key

REASON_ZERO_QUOTIENT = "zero-quotient"
REASON_NOT_COPRIME = "quotient-not-coprime"


@dataclass(frozen=True)
class WideMessage:
    """n-adic split of a candidate message: value = high * n + low."""

    value: int
    low: int  # value mod n
    high: int  # value div n
    inadmissible_reason: str | None  # None when encryptable

    @property
    def admissible(self) -> bool:
        return self.inadmissible_reason is None


def decompose(m: int, n: int) -> WideMessage:
    """Split m < n^2 into its n-adic digits and flag admissibility."""
    if not 0 <= m < n * n:
        raise DomainError(f"message must be in [0, n^2), got {m}")
    high, low = divmod(m, n)
    if high == 0:
        reason = REASON_ZERO_QUOTIENT
    elif math.gcd(high, n) != 1:
        reason = REASON_NOT_COPRIME
    else:
        reason = None
    return WideMessage(value=m, low=low, high=high, inadmissible_reason=reason)


def tp_encrypt(pk: PublicKey, m: int) -> Ciphertext:
    """Deterministic ciphertext g^low * high^n mod n^2 of an admissible m."""
    wide = decompose(m, pk.n)
    if wide.inadmissible_reason == REASON_ZERO_QUOTIENT:
        raise InadmissibleMessage(
            f"message {m} is below n; its n-adic quotient is zero",
            REASON_ZERO_QUOTIENT,
        )
    if wide.inadmissible_reason == REASON_NOT_COPRIME:
        raise InadmissibleMessage(
            f"n-adic quotient {wide.high} shares a factor with n",
            REASON_NOT_COPRIME,
        )
    return Ciphertext(_raw_encrypt(pk, wide.low, wide.high), pk.fingerprint)


def tp_decrypt(sk: PrivateKey, c: Ciphertext) -> int:
    """Invert tp_encrypt: class gives the low digit, the residue's principal
    root gives the high digit."""
    pk = sk.public
    _check_key(pk, c)
    _check_ciphertext_value(pk, c.value)
    low, high = split_residue(sk, c.value)
    if high == 0 or math.gcd(high, pk.n) != 1:
        raise MalformedCiphertext(
            f"recovered quotient {high} is outside the admissible domain"
        )
    return high * pk.n + low
