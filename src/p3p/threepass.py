"""Two three-pass (no-key) protocols as explicit two-role state machines.

The exponentiation variant commutes encryption keys modulo a shared prime.
The homomorphic variant needs keys on one side only: the initiator sends a
ciphertext of its message, the responder raises it to a secret exponent
(scaling the hidden plaintext), the initiator checks that the reply is a
power of its ciphertext, decrypts it and returns the product, and the
responder divides its exponent back out. Both run
unauthenticated: an active man-in-the-middle can substitute messages, so
pair them with an authentication layer before trusting the result.

Sessions enforce strict step order because replaying or reordering steps
is the natural misuse; every violation raises instead of desynchronizing.
"""

import enum
import math

from . import numtheory as nt
from ._record import Record
from .errors import DomainError, MalformedMessage, NotInvertible, ProtocolOrderViolation
from .paillier import PrivateKey, PublicKey, _check_plaintext, _class, _is_unit
from .paillier import _power_mod_n, encrypt


class InitiatorState(enum.Enum):
    CREATED = "created"
    SENT_M1 = "sent-m1"
    DONE = "done"


class ResponderState(enum.Enum):
    CREATED = "created"
    SENT_M2 = "sent-m2"
    DONE = "done"


def _require(role: str, state: enum.Enum, needed: enum.Enum) -> None:
    """The one order check: a step runs only from the state it needs."""
    if state is not needed:
        raise ProtocolOrderViolation(
            f"{role} is {state.value}, step needs {needed.value}"
        )


class PaillierInitiatorSession:
    """Sender role: owns the keypair and the message to deliver."""

    def __init__(self, sk: PrivateKey, message: int):
        _check_plaintext(sk.public, message)
        self.sk = sk
        self.message = message
        self.state = InitiatorState.CREATED
        self.first_pass = None

    def step1_send(self, rng: nt.RandomSource | None = None) -> int:
        """First pass: a fresh ciphertext of the message."""
        _require("initiator", self.state, InitiatorState.CREATED)
        self.state = InitiatorState.SENT_M1
        self.first_pass = encrypt(self.sk, self.message, rng).value
        return self.first_pass

    def step3_reveal(self, second_pass: int) -> int:
        """Third pass: decrypt the responder's exponent-scaled ciphertext.

        The result is message * m2 mod n, a blinding of the message by the
        responder's secret m2. This step ends the initiator's session.

        Only a power c^k of the first pass c with k < n is revealed, or
        whoever answers could have any ciphertext under this key decrypted.
        The class gives k = class / message mod n, and a unit w of that
        class is c^k * y^n. So w = c^k mod n forces y^n = 1 mod n, then
        y = 1 mod n as gcd(n, lambda) = 1, and y^n = 1 mod n^2. A message
        of 0 needs class 0; one that shares a factor with n is not checked,
        as only the key owner can pick it.
        """
        _require("initiator", self.state, InitiatorState.SENT_M1)
        sk, m = self.sk, self.message
        n = sk.public.n
        if not _is_unit(sk.public, second_pass):
            raise MalformedMessage("second pass is not a unit modulo n^2")
        product = _class(sk, second_pass)
        if m == 0:
            honest = product == 0
        elif math.gcd(m, n) == 1:
            k = product * nt.mod_inv(m, n) % n
            honest = second_pass % n == _power_mod_n(sk, self.first_pass, k)
        else:
            honest = True
        if not honest:
            raise MalformedMessage("second pass is not a power of the first")
        self.state = InitiatorState.DONE
        return product


class PaillierResponderSession:
    """Receiver role: holds no long-term keys, only a per-run secret.

    The secret exponent m2 is a uniform unit x modulo n, drawn in step 2
    once the first pass has been checked; nothing is drawn or computed
    before, so a key announce costs the responder only its PublicKey.
    ``hardened=True`` takes m2 = x^n mod n instead, kept for the worked
    example: every key PrivateKey accepts has gcd(n, lambda) = 1, so
    x -> x^n mod n permutes the units modulo n and both samplers give a
    uniform unit. They differ only in which unit a given draw maps to.
    """

    def __init__(self, pk: PublicKey, hardened: bool = False):
        self.pk = pk
        self.hardened = hardened
        self.state = ResponderState.CREATED
        self._m2 = None

    def step2_respond(self, first_pass: int, rng: nt.RandomSource | None = None) -> int:
        """Second pass: raise the initiator's ciphertext to the secret m2,
        drawn here from ``rng``."""
        _require("responder", self.state, ResponderState.CREATED)
        pk = self.pk
        if not _is_unit(pk, first_pass):
            raise MalformedMessage("first pass is not a unit modulo n^2")
        x = nt.random_unit(pk.n, rng)
        self._m2 = pow(x, pk.n, pk.n) if self.hardened else x
        self.state = ResponderState.SENT_M2
        return nt._pow_mod_square(first_pass, self._m2, pk.n)

    def step4_recover(self, third_pass: int) -> int:
        """Divide the secret back out of the revealed product."""
        _require("responder", self.state, ResponderState.SENT_M2)
        if not 0 <= third_pass < self.pk.n:
            raise MalformedMessage("third pass must be below n")
        recovered = third_pass * nt.mod_inv(self._m2, self.pk.n) % self.pk.n
        self.state = ResponderState.DONE
        return recovered


def _check_prime(prime: int) -> None:
    if prime < 3:
        raise DomainError("the shared prime must be at least 3")
    nt.require_prime(prime, "the shared prime")


class ShamirParty(Record):
    """Per-conversation exponent pair modulo a shared public prime, checked
    when it is built."""

    _fields = (
        "prime",
        "e",  # encryption exponent, coprime to prime - 1
        "d",  # decryption exponent, e^-1 mod prime - 1
    )
    _shown = ("prime",)

    def __init__(self, prime: int, e: int, d: int):
        super().__init__(prime, e, d)
        _check_prime(prime)
        if e * d % (prime - 1) != 1:
            raise DomainError("d does not invert e modulo prime - 1")


class ShamirTranscript(Record):
    _fields = ("pass1", "pass2", "pass3", "recovered")


def shamir_keygen(prime: int, rng: nt.RandomSource | None = None) -> ShamirParty:
    """Draw an exponent coprime to prime - 1 and invert it; below 3 there is
    nothing to draw from, and shamir_party rejects the prime."""
    rng = nt._rng(rng)
    e = 1
    while prime > 2:
        e = rng.randrange(1, prime - 1)
        if math.gcd(e, prime - 1) == 1:
            break
    return shamir_party(prime, e)


def shamir_party(prime: int, e: int) -> ShamirParty:
    """The party with encryption exponent e. ShamirParty tests the prime;
    if e has no inverse modulo prime - 1, a bad prime is named first."""
    try:
        d = nt.mod_inv(e, prime - 1)
    except (DomainError, NotInvertible):
        _check_prime(prime)
        raise
    return ShamirParty(prime=prime, e=e, d=d)


def shamir_exchange(a: ShamirParty, b: ShamirParty, message: int) -> ShamirTranscript:
    """Run the commuting-exponent exchange: a sends, b recovers."""
    if a.prime != b.prime:
        raise DomainError("parties must share the same prime")
    p = a.prime
    if not 1 <= message < p:
        raise DomainError("message must be in [1, p)")
    pass1 = pow(message, a.e, p)
    pass2 = pow(pass1, b.e, p)
    pass3 = pow(pass2, a.d, p)
    return ShamirTranscript(
        pass1=pass1, pass2=pass2, pass3=pass3, recovered=pow(pass3, b.d, p)
    )
