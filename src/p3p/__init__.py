"""Paillier cryptosystem with blind signatures and a three-pass protocol.

The core scheme lives in :mod:`p3p.paillier`; :mod:`p3p.trapdoor` adds the
deterministic wide-message permutation, :mod:`p3p.signature` the (blind)
signatures, :mod:`p3p.threepass` both no-key protocols, and
:mod:`p3p.keyfile` / :mod:`p3p.wire` / :mod:`p3p.net` the serialization
and transport around them. Nothing here is constant-time or
authenticated; see the README before pointing it at anything real.

The names below are re-exported lazily (PEP 562): a module is imported on
the first access to one of its names, so ``import p3p.cli`` loads only
what a command runs. Each access reads the home module's attribute, so
``p3p.decrypt is p3p.paillier.decrypt`` holds even after the attribute
is replaced.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("P3PError",),
    "paillier": (
        "BaseStrategy",
        "Ciphertext",
        "PrivateKey",
        "PublicKey",
        "SelfBlindMode",
        "add_plaintext",
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
        "split_residue",
    ),
    "signature": ("Signature", "blind", "sign", "sign_raw", "unblind", "verify", "verify_message"),
    "threepass": (
        "PaillierInitiatorSession",
        "PaillierResponderSession",
        "ShamirParty",
        "shamir_exchange",
        "shamir_keygen",
    ),
    "trapdoor": ("WideMessage", "decompose", "tp_decrypt", "tp_encrypt"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
