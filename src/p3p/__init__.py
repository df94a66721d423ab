"""Paillier cryptosystem with blind signatures and a three-pass protocol.

The core scheme lives in :mod:`p3p.paillier`; :mod:`p3p.trapdoor` adds the
deterministic wide-message permutation, :mod:`p3p.signature` the (blind)
signatures, :mod:`p3p.threepass` both no-key protocols, and
:mod:`p3p.keyfile` / :mod:`p3p.wire` / :mod:`p3p.net` the serialization
and transport around them. Nothing here is constant-time or
authenticated; see the README before pointing it at anything real.
"""

from .errors import P3PError
from .paillier import (
    BaseStrategy,
    Ciphertext,
    PrivateKey,
    PublicKey,
    SelfBlindMode,
    add_plaintext,
    decrypt,
    encrypt,
    encrypt_with_nonce,
    extract_class,
    extract_residue,
    from_primes,
    homomorphic_add,
    keygen,
    rerandomize,
    scalar_mul,
    split_residue,
    validate_residue_base,
)
from .signature import Signature, blind, sign, sign_raw, unblind, verify, verify_message
from .threepass import (
    PaillierInitiatorSession,
    PaillierResponderSession,
    ShamirParty,
    shamir_exchange,
    shamir_keygen,
)
from .trapdoor import WideMessage, decompose, tp_decrypt, tp_encrypt

__version__ = "0.1.0"

__all__ = [
    "BaseStrategy",
    "Ciphertext",
    "P3PError",
    "PaillierInitiatorSession",
    "PaillierResponderSession",
    "PrivateKey",
    "PublicKey",
    "SelfBlindMode",
    "ShamirParty",
    "Signature",
    "WideMessage",
    "add_plaintext",
    "blind",
    "decompose",
    "decrypt",
    "encrypt",
    "encrypt_with_nonce",
    "extract_class",
    "extract_residue",
    "from_primes",
    "homomorphic_add",
    "keygen",
    "rerandomize",
    "scalar_mul",
    "shamir_exchange",
    "shamir_keygen",
    "sign",
    "sign_raw",
    "split_residue",
    "tp_decrypt",
    "tp_encrypt",
    "unblind",
    "validate_residue_base",
    "verify",
    "verify_message",
]
