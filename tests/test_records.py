"""The contract of p3p's value types: how they are built, compared, hashed,
shown, frozen and copied.

One seeded instance per type, with an equal one built the other way
(positional against keyword arguments) and an unequal one. The reprs are
pinned strings; secret fields never appear in them."""

import copy
import pickle
import re

import pytest

from p3p import net, paillier, signature, threepass, trapdoor, wire
from p3p.paillier import Ciphertext, PrivateKey, PublicKey

SK15 = paillier.from_primes(3, 5)
PK15 = SK15.public
FP15 = PK15.fingerprint
PARTY_A = threepass.ShamirParty(23, 5, 9)
PARTY_B = threepass.ShamirParty(23, 7, 19)

# (instance, an equal one, an unequal one, its repr)
CASES = {
    "PublicKey": (
        PK15, PublicKey(15, 16), PublicKey(n=35, g=36), "<PublicKey 4-bit dc0e9c3658a1>",
    ),
    "_Half": (
        SK15.halves[0], paillier._Half(3, 9, 1, 1, 1, 100), SK15.halves[1],
        re.compile(r"<p3p\.paillier\._Half object at 0x[0-9a-f]+>"),
    ),
    "PrivateKey": (
        SK15, PrivateKey(p=3, q=5, g=16), PrivateKey(5, 3, 16),
        "<PrivateKey for <PublicKey 4-bit dc0e9c3658a1>>",
    ),
    "Ciphertext": (
        paillier.encrypt_with_nonce(PK15, 7, 2), Ciphertext(value=83, key_fingerprint=FP15),
        Ciphertext(83, bytes(32)), "Ciphertext(value=83)",
    ),
    "Signature": (
        signature.Signature(s1=7, s2=2), signature.Signature(7, 2), signature.Signature(7, 4),
        "Signature(s1=7, s2=2)",
    ),
    "BlindingSecret": (
        signature.BlindingSecret(x=2), signature.BlindingSecret(2),
        signature.BlindingSecret(x=4), "BlindingSecret()",
    ),
    "WideMessage": (
        trapdoor.decompose(100, 15), trapdoor.WideMessage(100, 10, 6, "quotient-not-coprime"),
        trapdoor.decompose(107, 15),
        "WideMessage(value=100, low=10, high=6, inadmissible_reason='quotient-not-coprime')",
    ),
    "WireMessage": (
        wire.pass_message(wire.MsgType.PASS1, 0x2A),
        wire.WireMessage(msg_type=wire.MsgType.PASS1, payload=b"*"),
        wire.WireMessage(wire.MsgType.PASS2, b"*"),
        "WireMessage(msg_type=<MsgType.PASS1: 1>, payload=b'*')",
    ),
    "ShamirParty": (
        PARTY_A, threepass.ShamirParty(prime=23, e=5, d=9), PARTY_B, "ShamirParty(prime=23)",
    ),
    "ShamirTranscript": (
        threepass.shamir_exchange(PARTY_A, PARTY_B, 3),
        threepass.ShamirTranscript(pass1=13, pass2=9, pass3=2, recovered=3),
        threepass.ShamirTranscript(13, 9, 2, 4),
        "ShamirTranscript(pass1=13, pass2=9, pass3=2, recovered=3)",
    ),
    "InitiatorOutcome": (
        net.InitiatorOutcome(pass1=1, pass2=2, pass3=3, frames=(b"a", b"b")),
        net.InitiatorOutcome(1, 2, 3, (b"a", b"b")),
        net.InitiatorOutcome(1, 2, 3, (b"a",)),
        "InitiatorOutcome(pass1=1, pass2=2, pass3=3, frames=(b'a', b'b'))",
    ),
    "ResponderOutcome": (
        net.ResponderOutcome(recovered=4, pass1=1, pass2=2, pass3=3, frames=(b"a",)),
        net.ResponderOutcome(4, 1, 2, 3, (b"a",)),
        net.ResponderOutcome(5, 1, 2, 3, (b"a",)),
        "ResponderOutcome(recovered=4, pass1=1, pass2=2, pass3=3, frames=(b'a',))",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_repr_is_pinned(name):
    value, _, _, shown = CASES[name]
    if isinstance(shown, str):
        assert repr(value) == shown
    else:
        assert shown.fullmatch(repr(value))


@pytest.mark.parametrize("name", CASES)
def test_equality_and_hash_follow_the_fields(name):
    value, equal, unequal, _ = CASES[name]
    assert value == equal and not value != equal
    assert hash(value) == hash(equal)
    assert value != unequal and not value == unequal
    assert value != (value.__class__.__name__, "not a record")


@pytest.mark.parametrize("name", CASES)
def test_assignment_and_deletion_raise_attribute_error(name):
    value = CASES[name][0]
    field = next(iter(vars(value)))  # the first constructor argument
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        setattr(value, "extra", 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before


@pytest.mark.parametrize("name", CASES)
def test_pickle_and_copy_round_trip(name):
    value = CASES[name][0]
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and type(twin) is type(value)
        assert vars(twin) == vars(value)  # derived fields come along


def test_derived_fields_survive_a_pickle_round_trip():
    sk = pickle.loads(pickle.dumps(SK15))
    assert sk.public == PK15 and sk.public.n_squared == 225
    assert paillier.decrypt(sk, paillier.encrypt_with_nonce(PK15, 7, 2)) == 7


def test_wrong_arguments_raise_type_error():
    for build in (
        lambda: Ciphertext(83),
        lambda: Ciphertext(83, FP15, 1),
        lambda: Ciphertext(83, value=83),
        lambda: Ciphertext(83, fingerprint=FP15),
        lambda: PublicKey(15),
    ):
        with pytest.raises(TypeError):
            build()


def test_properties_read_the_fields():
    assert not trapdoor.decompose(100, 15).admissible
    assert trapdoor.decompose(107, 15).admissible
    assert wire.pass_message(wire.MsgType.PASS3, 0x2A).value == 42
    assert wire.error_message("no").error_text == "no"
