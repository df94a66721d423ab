import math
import random

import pytest

from p3p import numtheory as nt, paillier
from p3p.errors import (
    DomainError,
    MalformedMessage,
    PlaintextOutOfRange,
    ProtocolOrderViolation,
)
from p3p.threepass import (
    InitiatorState,
    PaillierInitiatorSession,
    PaillierResponderSession,
    ResponderState,
    ShamirParty,
    shamir_exchange,
    shamir_keygen,
)

from conftest import KEY15, ScriptedRandom
from oracles import textbook_class, units

PK15 = KEY15.public


def run_paillier_protocol(sk, message, init_rng, resp_rng, hardened):
    initiator = PaillierInitiatorSession(sk, message)
    responder = PaillierResponderSession(sk.public, hardened=hardened)
    pass1 = initiator.step1_send(init_rng)
    pass2 = responder.step2_respond(pass1, resp_rng)
    pass3 = initiator.step3_reveal(pass2)
    recovered = responder.step4_recover(pass3)
    return pass1, pass2, pass3, recovered


def test_plain_transcript_known_answer():
    pass1, pass2, pass3, recovered = run_paillier_protocol(
        KEY15, 7, ScriptedRandom([2]), ScriptedRandom([4]), hardened=False
    )
    assert (pass1, pass2, pass3) == (83, 196, 13)
    assert pass2 == pow(83, 4, 225)
    assert pass3 == 7 * 4 % 15
    assert recovered == 7


def test_hardened_transcript_known_answer():
    pass1, pass2, pass3, recovered = run_paillier_protocol(
        KEY15, 7, ScriptedRandom([2]), ScriptedRandom([2]), hardened=True
    )
    # x = 2 gives exponent m2 = 2^15 mod 15 = 8
    assert (pass1, pass2, pass3) == (83, 166, 11)
    assert pass2 == pow(83, 8, 225)
    assert pass3 == 7 * 8 % 15
    assert recovered == 7


def test_trivial_exponent_passes_message_through():
    pass1, pass2, pass3, recovered = run_paillier_protocol(
        KEY15, 7, ScriptedRandom([2]), ScriptedRandom([1]), hardened=False
    )
    assert pass2 == pass1
    assert pass3 == 7
    assert recovered == 7


def test_recovery_exhaustive_over_all_message_exponent_pairs():
    rng = random.Random(43)
    for m1 in range(15):
        for m2 in units(15):
            _, _, _, recovered = run_paillier_protocol(
                KEY15, m1, rng, ScriptedRandom([m2]), hardened=False
            )
            assert recovered == m1


def test_hardened_recovery_for_every_root():
    rng = random.Random(44)
    for m1 in (0, 1, 7, 14):
        for x in units(15):
            _, _, _, recovered = run_paillier_protocol(
                KEY15, m1, rng, ScriptedRandom([x]), hardened=True
            )
            assert recovered == m1


def test_hardened_exponent_is_always_a_unit(monkeypatch):
    pk = paillier.keygen(32, rng=random.Random(44)).public
    drawn = []
    original = nt.random_unit

    def spy(modulus, rng=None):
        drawn.append(original(modulus, rng))
        return drawn[-1]

    monkeypatch.setattr(nt, "random_unit", spy)
    rng = random.Random(45)
    for _ in range(50):
        responder = PaillierResponderSession(pk, hardened=True)
        responder.step2_respond(83, rng)
        assert math.gcd(responder._m2, pk.n) == 1
        # x, whose n-th power is m2, is not kept once m2 is drawn
        assert drawn[-1] not in vars(responder).values()
        responder.step4_recover(1)


def test_both_samplers_draw_a_uniform_unit():
    # x -> x^n mod n permutes the units for every key PrivateKey accepts,
    # so m2 = x^n mod n is exactly as uniform as m2 = x.
    small_primes = [p for p in range(2, 80) if nt.is_probable_prime(p, 8)]
    moduli = []
    for i, p in enumerate(small_primes):
        for q in small_primes[i + 1:]:
            try:
                moduli.append(paillier.from_primes(p, q).public.n)
            except DomainError:
                continue  # PrivateKey rejects this pair
    assert {15, 35} <= set(moduli)
    for n in moduli:
        assert sorted(pow(x, n, n) for x in units(n)) == units(n)


def test_step2_homomorphic_identity():
    # the exponent step scales the hidden plaintext: D(E(m1)^m2) = m1*m2
    rng = random.Random(46)
    for m1 in range(15):
        for m2 in units(15):
            c = paillier.encrypt(PK15, m1, rng)
            scaled = paillier.scalar_mul(PK15, c, m2)
            assert paillier.decrypt(KEY15, scaled) == m1 * m2 % 15


def test_initiator_state_machine_rejects_misuse():
    session = PaillierInitiatorSession(KEY15, 7)
    with pytest.raises(ProtocolOrderViolation):
        session.step3_reveal(83)
    session.step1_send(ScriptedRandom([2]))
    with pytest.raises(ProtocolOrderViolation):
        session.step1_send(ScriptedRandom([2]))
    session.step3_reveal(196)
    assert session.state is InitiatorState.DONE
    with pytest.raises(ProtocolOrderViolation):
        session.step3_reveal(196)
    with pytest.raises(ProtocolOrderViolation):
        session.step1_send(ScriptedRandom([2]))


def test_responder_state_machine_rejects_misuse():
    session = PaillierResponderSession(PK15, hardened=False)
    with pytest.raises(ProtocolOrderViolation):
        session.step4_recover(1)
    session.step2_respond(83, ScriptedRandom([4]))
    with pytest.raises(ProtocolOrderViolation):
        session.step2_respond(83, ScriptedRandom([4]))
    session.step4_recover(13)
    assert session.state is ResponderState.DONE
    with pytest.raises(ProtocolOrderViolation):
        session.step4_recover(13)


def test_message_range_validated_at_session_creation():
    with pytest.raises(PlaintextOutOfRange):
        PaillierInitiatorSession(KEY15, 15)
    with pytest.raises(PlaintextOutOfRange):
        PaillierInitiatorSession(KEY15, -1)


@pytest.mark.parametrize("bad", [0, 15, 225, 230])
def test_responder_rejects_non_unit_first_pass(bad):
    session = PaillierResponderSession(PK15)
    with pytest.raises(MalformedMessage):
        session.step2_respond(bad, ScriptedRandom([2]))


@pytest.mark.parametrize("bad", [0, 45, 225])
def test_initiator_rejects_non_unit_second_pass(bad):
    session = PaillierInitiatorSession(KEY15, 7)
    session.step1_send(ScriptedRandom([2]))
    with pytest.raises(MalformedMessage):
        session.step3_reveal(bad)


def test_initiator_reveals_only_powers_of_its_first_pass():
    # every message, unit x and unit second pass w at n = 15: w is revealed
    # iff it is c^k mod n^2 for the first pass c and some k < n. A message of
    # 0 needs a w of class 0; one sharing a factor with n is not checked.
    for m in range(15):
        for x in units(15):
            c = paillier.encrypt_with_nonce(PK15, m, x).value
            powers = {pow(c, k, 225) for k in range(15)}
            for w in units(225):
                session = PaillierInitiatorSession(KEY15, m)
                session.step1_send(ScriptedRandom([x]))
                if m == 0:
                    honest = textbook_class(3, 5, 16, w) == 0
                else:
                    honest = w in powers or math.gcd(m, 15) != 1
                if honest:
                    assert session.step3_reveal(w) == textbook_class(3, 5, 16, w)
                    continue
                with pytest.raises(MalformedMessage, match="not a power of the first"):
                    session.step3_reveal(w)
                assert session.state is InitiatorState.SENT_M1


def test_responder_rejects_oversized_third_pass():
    session = PaillierResponderSession(PK15, hardened=False)
    session.step2_respond(83, ScriptedRandom([4]))
    with pytest.raises(MalformedMessage):
        session.step4_recover(15)


def test_shamir_keygen_known_answers():
    party = shamir_keygen(23, ScriptedRandom([5]))
    assert (party.e, party.d) == (5, 9)
    assert 5 * 9 % 22 == 1
    trivial = shamir_keygen(23, ScriptedRandom([1]))
    assert (trivial.e, trivial.d) == (1, 1)


def test_shamir_keygen_skips_non_coprime_draws():
    party = shamir_keygen(23, ScriptedRandom([11, 4, 5]))
    assert party.e == 5  # 11 and 4 share a factor with 22


def test_shamir_keygen_postcondition():
    rng = random.Random(51)
    for prime in (23, 101, 65537):
        party = shamir_keygen(prime, rng)
        assert party.e * party.d % (prime - 1) == 1


def test_shamir_keygen_rejects_non_primes():
    with pytest.raises(DomainError):
        shamir_keygen(22)
    with pytest.raises(DomainError):
        shamir_keygen(2)


@pytest.mark.parametrize("prime, e, d", [
    (23, 2, 1),  # e shares a factor with 22
    (23, 5, 3),  # d does not invert e
    (21, 7, 3),  # 21 is composite, though 7 * 3 = 1 mod 20
    (2, 1, 1),  # below 3
])
def test_shamir_party_checks_itself(prime, e, d):
    with pytest.raises(DomainError):
        ShamirParty(prime=prime, e=e, d=d)


def test_shamir_exchange_pinned_transcript():
    a = ShamirParty(prime=23, e=5, d=9)
    b = ShamirParty(prime=23, e=7, d=19)
    transcript = shamir_exchange(a, b, 3)
    assert (transcript.pass1, transcript.pass2, transcript.pass3) == (13, 9, 2)
    assert transcript.recovered == 3


def test_shamir_exchange_identity_exponents():
    a = ShamirParty(prime=23, e=1, d=1)
    b = ShamirParty(prime=23, e=1, d=1)
    transcript = shamir_exchange(a, b, 9)
    assert (
        transcript.pass1,
        transcript.pass2,
        transcript.pass3,
        transcript.recovered,
    ) == (9, 9, 9, 9)


def test_shamir_exchange_exhaustive_at_23():
    rng = random.Random(52)
    a = shamir_keygen(23, rng)
    b = shamir_keygen(23, rng)
    for m in range(1, 23):
        assert shamir_exchange(a, b, m).recovered == m


def test_shamir_exponentiation_commutes():
    rng = random.Random(53)
    for _ in range(50):
        a = shamir_keygen(101, rng)
        b = shamir_keygen(101, rng)
        m = rng.randrange(1, 101)
        assert (
            pow(pow(m, a.e, 101), b.e, 101)
            == pow(pow(m, b.e, 101), a.e, 101)
        )


def test_shamir_exchange_validates_inputs():
    a = ShamirParty(prime=23, e=5, d=9)
    b = ShamirParty(prime=23, e=7, d=19)
    with pytest.raises(DomainError):
        shamir_exchange(a, b, 0)
    with pytest.raises(DomainError):
        shamir_exchange(a, b, 23)
    other = ShamirParty(prime=101, e=3, d=nt.mod_inv(3, 100))
    with pytest.raises(DomainError):
        shamir_exchange(a, other, 5)
