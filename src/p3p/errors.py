"""Exception taxonomy shared across the package.

Everything raised on purpose derives from P3PError, so callers (and the
CLI) can catch a single type and map it to an exit code.
"""


class P3PError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(P3PError, ValueError):
    """An argument lies outside the domain of the operation; also a
    ValueError, the builtin for a value an operation does not accept."""


class NotInvertible(P3PError):
    """Modular inverse requested for a non-unit."""


class PlaintextOutOfRange(P3PError):
    """Plaintext is not in Z_n for the key in use."""


class KeyMismatch(P3PError):
    """Ciphertext presented to a key other than the one it was created under."""


class MalformedCiphertext(P3PError):
    """Ciphertext value outside Z*_{n^2} or otherwise undecryptable."""


class NotSignable(P3PError):
    """Message is not a unit modulo n^2, so it cannot be signed or blinded."""


class InadmissibleMessage(P3PError):
    """Wide message rejected by the trapdoor permutation's domain check.

    ``reason`` is one of ``"zero-quotient"`` (the n-adic quotient is zero,
    i.e. the message fits below n) or ``"quotient-not-coprime"``.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class ProtocolOrderViolation(P3PError):
    """Session step called out of order or more than once."""


class MalformedMessage(P3PError):
    """Protocol message fails validation against the session's key."""


class ParseError(P3PError):
    """Serialized material cannot be parsed.

    ``offset`` is the byte position of the fault, counted within the
    decoded body for enveloped formats and within the frame for wire
    messages. ``None`` when no position applies.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class RangeError(ParseError):
    """Frame payload violates the modulus bound for its message type."""


class ProtocolTimeout(P3PError):
    """Peer did not produce the next frame in time."""


class ProtocolError(P3PError):
    """Conversation broke: unexpected frame, peer-reported error, or lost link."""


class InternalError(P3PError):
    """A bounded retry loop was exhausted; practically unreachable."""
