"""Exponentiation budgets: how many ``pow`` calls each operation makes, and
modulo what, at a seeded 512-bit key; and at n = 15 and n = 35, the ordered
list of those calls with their exponents' bit lengths. A recording ``pow``
is set in the globals of the modules that exponentiate, the way the
benchmark's tracer shadows the builtin. It counts and never times, so every
budget is exact. A change that predicts fewer or other exponentiations
edits exactly the budgets it predicts."""

import builtins
import collections
import random

import pytest

from p3p import net, paillier, threepass, wire
from p3p import numtheory as nt
from p3p.errors import ProtocolError

from conftest import KEY15, KEY35, ScriptedRandom

SK = paillier.keygen(256, rng=random.Random("cost-model"))
PK = SK.public
N = PK.n
C = paillier.encrypt(PK, 7, random.Random(1))
# r stands for either prime
MODULI = {N * N: "mod n^2", N: "mod n"}
for r in (SK.p, SK.q):
    MODULI.update({r * r: "mod r^2", r: "mod r"})


@pytest.fixture
def pows(monkeypatch):
    """Counts of the modular pow calls made in numtheory, paillier and
    threepass; a negative exponent counts as an inverse, whatever its modulus."""
    counts = collections.Counter()

    def counting_pow(base, exp, mod=None):
        if mod is not None:
            counts["inverse" if exp < 0 else MODULI.get(mod, "mod other")] += 1
        return builtins.pow(base, exp, mod)

    for module in (nt, paillier, threepass):
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    return counts


def test_private_key_derivation(pows):
    paillier.PrivateKey(SK.p, SK.q, N + 1)
    assert pows == {"mod r^2": 2, "inverse": 5}


def test_encrypt_under_the_public_key(pows):
    paillier.encrypt(PK, 7, random.Random(1))
    assert pows == {"mod n^2": 1}


def test_encrypt_under_the_private_key(pows):
    paillier.encrypt(SK, 7, random.Random(1))
    assert pows == {"mod r": 2, "mod r^2": 2}


def test_decrypt(pows):
    assert paillier.decrypt(SK, C) == 7
    assert pows == {"mod r^2": 2}


def test_split_residue(pows):
    paillier.split_residue(SK, C.value)
    assert pows == {"mod r^2": 2, "mod r": 2}


@pytest.mark.parametrize("options, budget", [
    ({}, {"mod n^2": 1, "inverse": 1}),  # the default draws m2 with no pow mod n
    ({"hardened": True}, {"mod n": 1, "mod n^2": 1, "inverse": 1}),
], ids=["default", "hardened"])
def test_responder_steps_2_and_4(pows, options, budget):
    responder = threepass.PaillierResponderSession(PK, **options)
    responder.step2_respond(C.value, random.Random(2))
    responder.step4_recover(1)
    assert pows == budget


def test_initiator_step_3(pows):
    # the class, then c^k mod n by CRT for k = class / message mod n
    initiator = threepass.PaillierInitiatorSession(SK, 7)
    second_pass = builtins.pow(initiator.step1_send(random.Random(1)), 3, N * N)
    pows.clear()
    assert initiator.step3_reveal(second_pass) == 21
    assert pows == {"mod r^2": 2, "mod r": 2, "inverse": 1}


def test_a_key_announce_alone_costs_the_responder_no_pow(pows):
    initiator, responder = net.memory_channel_pair(timeout=5.0)
    initiator.send(wire.encode_msg(wire.key_announce(N, PK.g)))
    initiator.close()
    with pytest.raises(ProtocolError, match="closed"):
        net.run_responder(responder, random.Random(2))
    assert pows == {}


@pytest.fixture
def pow_calls(monkeypatch):
    """The modular pow calls made in the same modules, in order:
    (modulus, exponent bit length), or "inverse" for a negative exponent."""
    calls = []

    def recording_pow(base, exp, mod=None):
        if mod is not None:
            calls.append("inverse" if exp < 0 else (mod, exp.bit_length()))
        return builtins.pow(base, exp, mod)

    for module in (nt, paillier, threepass):
        monkeypatch.setattr(module, "pow", recording_pow, raising=False)
    return calls


def named(sk, calls):
    """The calls with each modulus named after the key: n^2, n, p^2, p, q^2, q."""
    n, p, q = sk.public.n, sk.p, sk.q
    names = {n * n: "n^2", n: "n", p * p: "p^2", p: "p", q * q: "q^2", q: "q"}
    return [call if call == "inverse" else (names[call[0]], call[1]) for call in calls]


def derive(sk, c):
    paillier.PrivateKey(sk.p, sk.q, sk.public.n + 1)


def encrypt_public(sk, c):
    paillier.encrypt(sk.public, 7, ScriptedRandom([2]))


def encrypt_private(sk, c):
    paillier.encrypt(sk, 7, ScriptedRandom([2]))


def decrypt(sk, c):
    paillier.decrypt(sk, c)


def split(sk, c):
    paillier.split_residue(sk, c.value)


def respond(sk, c, **options):
    responder = threepass.PaillierResponderSession(sk.public, **options)
    responder.step2_respond(c.value, ScriptedRandom([2]))
    responder.step4_recover(1)


def respond_hardened(sk, c):
    respond(sk, c, hardened=True)


def announce_only(sk, c):
    initiator, responder = net.memory_channel_pair(timeout=5.0)
    initiator.send(wire.encode_msg(wire.key_announce(sk.public.n, sk.public.g)))
    initiator.close()
    with pytest.raises(ProtocolError, match="closed"):
        net.run_responder(responder, ScriptedRandom([]))


# Exponent bit lengths: p - 1 and q - 1 in the class; e = n mod (r - 1) and r
# in the Teichmueller lift; d = n^-1 mod (r - 1) in the root; the responder's
# m2 = 2 (x^n mod n = 8 at n = 15 and 18 at n = 35 when hardened).
POW_LISTS = {
    derive: {
        15: ["inverse", ("p^2", 2), "inverse", "inverse", ("q^2", 3), "inverse", "inverse"],
        35: ["inverse", ("p^2", 3), "inverse", "inverse", ("q^2", 3), "inverse", "inverse"],
    },
    encrypt_public: {15: [("n^2", 4)], 35: [("n^2", 6)]},
    encrypt_private: {
        15: [("p", 1), ("p^2", 2), ("q", 2), ("q^2", 3)],
        35: [("p", 2), ("p^2", 3), ("q", 3), ("q^2", 3)],
    },
    decrypt: {15: [("p^2", 2), ("q^2", 3)], 35: [("p^2", 3), ("q^2", 3)]},
    split: {
        15: [("p^2", 2), ("q^2", 3), ("p", 1), ("q", 2)],
        35: [("p^2", 3), ("q^2", 3), ("p", 2), ("q", 3)],
    },
    respond: {15: [("n^2", 2), "inverse"], 35: [("n^2", 2), "inverse"]},
    respond_hardened: {
        15: [("n", 4), ("n^2", 4), "inverse"],
        35: [("n", 6), ("n^2", 5), "inverse"],
    },
    announce_only: {15: [], 35: []},
}


# The class's exponents r - 1, an inverse of the message, then k mod (r - 1)
# for k = 2, the responder's exponent.
REVEAL_POW_LISTS = {
    15: [("p^2", 2), ("q^2", 3), "inverse", ("p", 0), ("q", 2)],
    35: [("p^2", 3), ("q^2", 3), "inverse", ("p", 2), ("q", 2)],
}


@pytest.mark.parametrize("sk", [KEY15, KEY35], ids=["n15", "n35"])
def test_reveal_pow_list_on_toy_keys(pow_calls, sk):
    initiator = threepass.PaillierInitiatorSession(sk, 2)  # 7 is no unit at n = 35
    second_pass = builtins.pow(initiator.step1_send(ScriptedRandom([2])), 2, sk.public.n_squared)
    pow_calls.clear()
    initiator.step3_reveal(second_pass)
    assert named(sk, pow_calls) == REVEAL_POW_LISTS[sk.public.n]


@pytest.mark.parametrize("sk", [KEY15, KEY35], ids=["n15", "n35"])
@pytest.mark.parametrize("operation", POW_LISTS, ids=lambda op: op.__name__)
def test_pow_list_on_toy_keys(pow_calls, operation, sk):
    c = paillier.encrypt_with_nonce(sk.public, 7, 2)
    pow_calls.clear()
    operation(sk, c)
    assert named(sk, pow_calls) == POW_LISTS[operation][sk.public.n]
