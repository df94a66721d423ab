"""Exponentiation budgets: how many ``pow`` calls each operation makes, and
modulo what, at a seeded 512-bit key. A counting ``pow`` is set in the
globals of the modules that exponentiate, the way the benchmark's tracer
shadows the builtin. It counts and never times, so every budget is exact.
A change that predicts fewer or other exponentiations edits exactly the
budgets it predicts."""

import builtins
import collections
import random

import pytest

from p3p import net, paillier, threepass, wire
from p3p import numtheory as nt
from p3p.errors import ProtocolError

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


def test_a_key_announce_alone_costs_the_responder_no_pow(pows):
    initiator, responder = net.memory_channel_pair(timeout=5.0)
    initiator.send(wire.encode_msg(wire.key_announce(N, PK.g)))
    initiator.close()
    with pytest.raises(ProtocolError, match="closed"):
        net.run_responder(responder, random.Random(2))
    assert pows == {}
