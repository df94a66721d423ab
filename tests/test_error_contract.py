"""The library's one error contract: an argument from outside either works
or raises a P3PError, never a bare ValueError, ZeroDivisionError or
OverflowError.

Every callable in ``p3p.__all__`` and every public function of
``numtheory`` is called with each hostile integer in each integer
position, the others held at valid values of the n = 15 key. Python will
not print an int of more than 4,300 digits, so a message that named one of
the huge values would itself raise ValueError. Size arguments, and the
positions where a valid-looking huge value would start a 20,000-bit
exponentiation, get only the values that are not huge. The TCP entry points
get only ports and timeouts that they must reject, and no call may bind or
connect a socket.
"""

import inspect
import math
import random

import pytest

import p3p
from p3p import net, paillier, signature, threepass, trapdoor
from p3p import numtheory as nt
from p3p.errors import P3PError
from p3p.paillier import Ciphertext
from p3p.signature import BlindingSecret, Signature

from conftest import KEY15

SK = KEY15
PK = SK.public
N = PK.n
C = paillier.encrypt(PK, 7, random.Random(1))
SIG = signature.sign_raw(SK, C.value)
SECRET = BlindingSecret(x=2)
PARTY = threepass.shamir_party(23, 3)

HOSTILE = {
    "0": 0, "1": 1, "-1": -1, "2": 2, "n": N, "n^2": N * N,
    "2^20000": 2**20000, "-2^20000": -(2**20000), "2^20000+1": 2**20000 + 1,
}
SMALL = {name: v for name, v in HOSTILE.items() if v < 2**20000}
BAD_PORTS = {"-1": -1, "65536": 65536, "70000": 70000, "2^70": 2**70,
             "2^20000": 2**20000, "-2^20000": -(2**20000)}
BAD_TIMEOUTS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                "-1.0": -1.0, "0.0": 0.0, "0": 0, "-2^20000": -(2**20000)}


def ct(value):
    return Ciphertext(value, PK.fingerprint)


def responder_at_step_4():
    responder = p3p.PaillierResponderSession(PK)
    responder.step2_respond(C.value, random.Random(2))
    return responder


def initiator_at_step_3():
    initiator = p3p.PaillierInitiatorSession(SK, 7)
    initiator.step1_send(random.Random(1))
    return initiator


def send(port=1, timeout=1.0):
    return net.send_over_tcp("127.0.0.1", port, p3p.PaillierInitiatorSession(SK, 7),
                             timeout=timeout)


# name -> (probe, values): each probe takes the hostile value in one position.
SWEEP = {
    "Ciphertext": [(lambda v: Ciphertext(v, PK.fingerprint), HOSTILE)],
    "PaillierInitiatorSession": [
        (lambda v: p3p.PaillierInitiatorSession(SK, v), HOSTILE),
        (lambda v: initiator_at_step_3().step3_reveal(v), HOSTILE),
    ],
    "PaillierResponderSession": [
        (lambda v: p3p.PaillierResponderSession(PK).step2_respond(v, random.Random(2)), HOSTILE),
        (lambda v: responder_at_step_4().step4_recover(v), HOSTILE),
    ],
    "PrivateKey": [  # a huge prime-looking p or q starts a 20,000-bit pow
        (lambda v: paillier.PrivateKey(v, 5, 16), SMALL),
        (lambda v: paillier.PrivateKey(3, v, 16), SMALL),
        (lambda v: paillier.PrivateKey(3, 5, v), HOSTILE),
        # g = n + 1, so a hostile p or q reaches key derivation
        (lambda v: paillier.PrivateKey(v, 5, 5 * v + 1), SMALL),
        (lambda v: paillier.PrivateKey(3, v, 3 * v + 1), SMALL),
    ],
    "PublicKey": [
        (lambda v: paillier.PublicKey(v, 16), HOSTILE),
        (lambda v: paillier.PublicKey(N, v), HOSTILE),
        (lambda v: paillier.PublicKey(v, v + 1), HOSTILE),  # squaring, fingerprint
    ],
    "ShamirParty": [
        (lambda v: threepass.ShamirParty(v, 3, 15), HOSTILE),
        (lambda v: threepass.ShamirParty(23, v, 15), HOSTILE),
        (lambda v: threepass.ShamirParty(23, 3, v), HOSTILE),
    ],
    "Signature": [(lambda v: Signature(v, 2), HOSTILE), (lambda v: Signature(2, v), HOSTILE)],
    "add_plaintext": [
        (lambda v: paillier.add_plaintext(PK, ct(v), 1), HOSTILE),
        (lambda v: paillier.add_plaintext(PK, C, v), HOSTILE),
    ],
    "blind": [(lambda v: signature.blind(PK, v, random.Random(1)), HOSTILE)],
    "decrypt": [(lambda v: paillier.decrypt(SK, ct(v)), HOSTILE)],
    "encrypt": [(lambda v: paillier.encrypt(PK, v, random.Random(1)), HOSTILE)],
    "encrypt_with_nonce": [
        (lambda v: paillier.encrypt_with_nonce(PK, v, 2), HOSTILE),
        (lambda v: paillier.encrypt_with_nonce(PK, 7, v), HOSTILE),
    ],
    "extract_class": [
        (lambda v: paillier.extract_class(SK, v, PK.g), HOSTILE),
        (lambda v: paillier.extract_class(SK, C.value, v), HOSTILE),
    ],
    "from_primes": [
        (lambda v: paillier.from_primes(v, 5), HOSTILE),
        (lambda v: paillier.from_primes(3, v), HOSTILE),
    ],
    "homomorphic_add": [
        (lambda v: paillier.homomorphic_add(PK, ct(v), C), HOSTILE),
        (lambda v: paillier.homomorphic_add(PK, C, ct(v)), HOSTILE),
    ],
    "keygen": [(lambda v: paillier.keygen(v, rng=random.Random(1)), SMALL)],
    "rerandomize": [
        (lambda v, mode=mode: paillier.rerandomize(PK, ct(v), random.Random(1), mode), HOSTILE)
        for mode in paillier.SelfBlindMode
    ],
    "scalar_mul": [
        (lambda v: paillier.scalar_mul(PK, ct(v), 3), HOSTILE),
        (lambda v: paillier.scalar_mul(PK, C, v), HOSTILE),
    ],
    "shamir_exchange": [(lambda v: threepass.shamir_exchange(PARTY, PARTY, v), HOSTILE)],
    "shamir_keygen": [(lambda v: threepass.shamir_keygen(v, random.Random(1)), HOSTILE)],
    "sign_raw": [(lambda v: signature.sign_raw(SK, v), HOSTILE)],
    "split_residue": [(lambda v: paillier.split_residue(SK, v), HOSTILE)],
    "tp_decrypt": [(lambda v: trapdoor.tp_decrypt(SK, ct(v)), HOSTILE)],
    "tp_encrypt": [(lambda v: trapdoor.tp_encrypt(PK, v), HOSTILE)],
    "unblind": [
        (lambda v: signature.unblind(Signature(v, 2), SECRET, N), HOSTILE),
        (lambda v: signature.unblind(Signature(2, v), SECRET, N), HOSTILE),
        (lambda v: signature.unblind(SIG, BlindingSecret(v), N), HOSTILE),
        (lambda v: signature.unblind(SIG, SECRET, v), HOSTILE),
    ],
    "verify": [
        (lambda v: signature.verify(PK, v, SIG), HOSTILE),
        (lambda v: signature.verify(PK, C.value, Signature(v, 2)), HOSTILE),
        (lambda v: signature.verify(PK, C.value, Signature(2, v)), HOSTILE),
    ],
    "verify_message": [
        (lambda v: signature.verify_message(PK, b"m", Signature(v, 2)), HOSTILE),
        (lambda v: signature.verify_message(PK, b"m", Signature(2, v)), HOSTILE),
    ],
    "nt.gen_prime": [(lambda v: nt.gen_prime(v, random.Random(1)), SMALL)],
    "nt.is_base2_probable_prime": [(nt.is_base2_probable_prime, SMALL)],
    "nt.is_probable_prime": [
        (lambda v: nt.is_probable_prime(v, 2), HOSTILE),
        (lambda v: nt.is_probable_prime(1009, v), SMALL),
    ],
    "nt.l_function": [(lambda v: nt.l_function(v, 3), HOSTILE),
                      (lambda v: nt.l_function(4, v), HOSTILE)],
    "nt.mod_inv": [(lambda v: nt.mod_inv(v, 6), HOSTILE), (lambda v: nt.mod_inv(5, v), HOSTILE)],
    "nt.random_unit": [(lambda v: nt.random_unit(v, random.Random(1)), HOSTILE)],
    "nt.require_prime": [(lambda v: nt.require_prime(v, "p"), HOSTILE)],
    "net.send_over_tcp": [(lambda v: send(port=v), BAD_PORTS | {"0": 0}),
                          (lambda v: send(timeout=v), BAD_TIMEOUTS)],
    "net.serve_three_pass": [(lambda v: net.serve_three_pass(port=v), BAD_PORTS),
                             (lambda v: net.serve_three_pass(timeout=v), BAD_TIMEOUTS)],
}
# Integers pass only through an enum's value, an error's message, or a
# message's bytes here, or not at all.
NO_INTEGER_POSITION = {"P3PError", "SelfBlindMode", "sign", "nt.system_random"}


def test_the_sweep_covers_every_public_callable():
    public = {name for name in p3p.__all__ if callable(getattr(p3p, name))}
    public |= {
        f"nt.{name}" for name, obj in vars(nt).items()
        if inspect.isfunction(obj) and obj.__module__ == nt.__name__
        and not name.startswith("_")
    }
    public |= {"net.send_over_tcp", "net.serve_three_pass"}  # the TCP entry points
    assert set(SWEEP) | NO_INTEGER_POSITION == public
    assert not set(SWEEP) & NO_INTEGER_POSITION


@pytest.mark.parametrize("name", SWEEP)
def test_hostile_integers_raise_only_p3p_errors(name, no_sockets):
    escaped = []
    for position, (probe, values) in enumerate(SWEEP[name]):
        for label, value in values.items():
            try:
                probe(value)
            except P3PError:
                pass
            except Exception as exc:  # name the type only: its message may not print
                escaped.append(f"position {position}, {label}: {type(exc).__name__}")
    assert escaped == []
