"""Two three-pass (no-key) protocols as explicit two-role state machines.

The exponentiation variant commutes encryption keys modulo a shared prime.
The homomorphic variant needs keys on one side only: the initiator sends a
ciphertext of its message, the responder raises it to a secret exponent
(scaling the hidden plaintext), the initiator decrypts and returns the
product, and the responder divides its exponent back out. Both run
unauthenticated: an active man-in-the-middle can substitute messages, so
pair them with an authentication layer before trusting the result.

Sessions enforce strict step order because replaying or reordering steps
is the natural misuse; every violation raises instead of desynchronizing.
"""

import enum
import math
from dataclasses import dataclass

from . import numtheory as nt
from .errors import DomainError, MalformedMessage, ProtocolOrderViolation
from .paillier import PrivateKey, PublicKey, _check_plaintext, _class, _is_unit, encrypt


class InitiatorState(enum.Enum):
    CREATED = "created"
    SENT_M1 = "sent-m1"
    SENT_M3 = "sent-m3"
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

    def step1_send(self, rng: nt.RandomSource | None = None) -> int:
        """First pass: a fresh ciphertext of the message."""
        _require("initiator", self.state, InitiatorState.CREATED)
        self.state = InitiatorState.SENT_M1
        return encrypt(self.sk, self.message, rng).value

    def step3_reveal(self, second_pass: int) -> int:
        """Third pass: decrypt the responder's exponent-scaled ciphertext.

        The result is message * m2 mod n, a blinding of the message by the
        responder's secret m2.
        """
        _require("initiator", self.state, InitiatorState.SENT_M1)
        if not _is_unit(self.sk.public, second_pass):
            raise MalformedMessage("second pass is not a unit modulo n^2")
        self.state = InitiatorState.SENT_M3
        return _class(self.sk, second_pass)

    def mark_done(self) -> None:
        """Record that the third pass was delivered (transport's call)."""
        _require("initiator", self.state, InitiatorState.SENT_M3)
        self.state = InitiatorState.DONE


class PaillierResponderSession:
    """Receiver role: holds no long-term keys, only a per-run secret.

    In hardened mode (the default) the secret exponent is sampled as
    x^n mod n for a random unit x, so the third pass the initiator later
    reveals is itself a blinded value. Plain mode draws the exponent
    uniformly from the units, matching the unhardened protocol exactly.
    """

    def __init__(self, pk: PublicKey, hardened: bool = True):
        self.pk = pk
        self.hardened = hardened
        self.state = ResponderState.CREATED
        self._m2 = None
        self._m2_inv = None

    def choose_secret(self, rng: nt.RandomSource | None = None) -> None:
        """Draw the secret m2; it depends only on the key, not on the first pass."""
        _require("responder", self.state, ResponderState.CREATED)
        if self._m2 is not None:
            raise ProtocolOrderViolation("responder secret is already chosen")
        pk = self.pk
        if self.hardened:
            x = nt.random_unit(pk.n, rng)
            self._m2 = pow(x, pk.n, pk.n)
        else:
            self._m2 = nt.random_unit(pk.n, rng)
        self._m2_inv = nt.mod_inv(self._m2, pk.n)

    def step2_respond(self, first_pass: int, rng: nt.RandomSource | None = None) -> int:
        """Second pass: raise the initiator's ciphertext to the secret m2,
        drawn here from ``rng`` unless choose_secret already drew it."""
        _require("responder", self.state, ResponderState.CREATED)
        if not _is_unit(self.pk, first_pass):
            raise MalformedMessage("first pass is not a unit modulo n^2")
        if self._m2 is None:
            self.choose_secret(rng)
        self.state = ResponderState.SENT_M2
        return pow(first_pass, self._m2, self.pk.n_squared)

    def step4_recover(self, third_pass: int) -> int:
        """Divide the secret back out of the revealed product."""
        _require("responder", self.state, ResponderState.SENT_M2)
        if not 0 <= third_pass < self.pk.n:
            raise MalformedMessage(
                f"third pass must be below n, got {third_pass}"
            )
        recovered = third_pass * self._m2_inv % self.pk.n
        self.state = ResponderState.DONE
        return recovered


@dataclass(frozen=True)
class ShamirParty:
    """Per-conversation exponent pair modulo a shared public prime."""

    prime: int
    e: int  # encryption exponent, coprime to prime - 1
    d: int  # decryption exponent, e^-1 mod prime - 1


@dataclass(frozen=True)
class ShamirTranscript:
    pass1: int
    pass2: int
    pass3: int
    recovered: int


def shamir_keygen(prime: int, rng: nt.RandomSource | None = None) -> ShamirParty:
    """Draw an exponent coprime to prime - 1 and invert it."""
    if prime < 3 or not nt.is_probable_prime(prime, nt.DEFAULT_MR_ROUNDS):
        raise DomainError(f"{prime} is not a usable prime")
    rng = rng if rng is not None else nt.system_random()
    while True:
        e = rng.randrange(1, prime - 1)
        if math.gcd(e, prime - 1) == 1:
            break
    return ShamirParty(prime=prime, e=e, d=nt.mod_inv(e, prime - 1))


def shamir_exchange(a: ShamirParty, b: ShamirParty, message: int) -> ShamirTranscript:
    """Run the commuting-exponent exchange: a sends, b recovers."""
    if a.prime != b.prime:
        raise DomainError("parties must share the same prime")
    p = a.prime
    if not 1 <= message < p:
        raise DomainError(f"message must be in [1, {p}), got {message}")
    pass1 = pow(message, a.e, p)
    pass2 = pow(pass1, b.e, p)
    pass3 = pow(pass2, a.d, p)
    return ShamirTranscript(
        pass1=pass1, pass2=pass2, pass3=pass3, recovered=pow(pass3, b.d, p)
    )
