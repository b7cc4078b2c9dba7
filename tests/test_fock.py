import math

import pytest

from qfield import fock
from qfield.errors import NegativeNormError, NonFiniteInputError
from qfield.fock import (StateVector, a, a_dag, b, b_dag, apply_ladder,
                         apply_string, charge_conjugate_op,
                         charge_conjugate_state, charge_conjugate_string, vev)
from qfield.qcore import basic_number

Q_VALUES = [-1.0, -0.5, 0.3, 1.0, 1.2]


def number_state(n, mode=0, species=fock.PARTICLE):
    label = fock.ModeLabel(species, mode)
    state = fock._state_set(fock.VACUUM, label, n)
    return StateVector({state: 1.0 + 0.0j})


def test_ladder_examples():
    q = 0.7
    v = apply_ladder(a_dag(), StateVector.vacuum(), q)
    assert v.amplitude(((fock.ModeLabel(fock.PARTICLE, 0), 1),)) == pytest.approx(1.0)
    v = apply_ladder(a(), number_state(1), q)
    assert v.amplitude(fock.VACUUM) == pytest.approx(1.0)
    v = apply_ladder(a_dag(), number_state(1), q)
    two = ((fock.ModeLabel(fock.PARTICLE, 0), 2),)
    assert v.amplitude(two) == pytest.approx(math.sqrt(1 + q), rel=1e-12)


def test_annihilate_vacuum():
    v = apply_ladder(a(), StateVector.vacuum(), 0.5)
    assert v.terms == {}


def test_truncation_overflow_flag():
    v = number_state(3)
    out = apply_ladder(a_dag(), v, 0.5, n_max=3)
    assert out.overflowed
    assert out.terms == {}


def test_negative_norm_error():
    # q < -1 makes <2>_q = 1 + q < 0
    with pytest.raises(NegativeNormError):
        apply_ladder(a_dag(), number_state(1), -1.5)


@pytest.mark.parametrize("q", Q_VALUES)
def test_defining_relation_on_basis_states(q):
    # (a adag - q adag a)|n> = |n> for all representable n
    n_top = 14 if q > -1 else 1
    for n in range(n_top + 1):
        v = number_state(n)
        lhs1 = apply_string([a(), a_dag()], v, q)
        lhs2 = apply_string([a_dag(), a()], v, q)
        got = {s: lhs1.amplitude(s) - q * lhs2.amplitude(s)
               for s in set(lhs1.terms) | set(lhs2.terms)}
        for s, amp in got.items():
            expect = v.amplitude(s)
            assert amp == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("q", Q_VALUES)
def test_vev_examples(q):
    assert vev([a(), a_dag()], q) - q * vev([a_dag(), a()], q) == pytest.approx(1.0)
    assert vev([a_dag(), a()], q) == 0.0
    assert vev([a(), a(), a_dag(), a_dag()], q) == pytest.approx(1 + q, abs=1e-12)


def test_vev_independent_of_truncation():
    ops = [a(), a(), a(), a_dag(), a_dag(), a_dag()]
    ref = vev(ops, 0.7, n_max=3)
    for n_max in (4, 8, 16):
        assert vev(ops, 0.7, n_max=n_max) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("q", Q_VALUES)
def test_commutator_decomposition(q):
    # Commutator = q-commutator + (q-1) adag a, termwise on the vacuum
    comm = vev([a(), a_dag()], q) - vev([a_dag(), a()], q)
    qcomm = vev([a(), a_dag()], q) - q * vev([a_dag(), a()], q)
    assert comm == pytest.approx(qcomm + (q - 1) * vev([a_dag(), a()], q), abs=1e-12)


@pytest.mark.parametrize("q", Q_VALUES)
def test_anticommutator_matches_q_commutator_on_vacuum(q):
    anti = vev([a(), a_dag()], q) + vev([a_dag(), a()], q)
    qcomm = vev([a(), a_dag()], q) - q * vev([a_dag(), a()], q)
    assert anti == pytest.approx(qcomm, abs=1e-12)


def test_unbalanced_strings_vanish():
    q = 0.7
    assert vev([a_dag()], q) == 0.0
    assert vev([a(), a(), a_dag()], q) == 0.0
    assert vev([a(), a_dag(), b(), a_dag()], q) == 0.0


def test_vev_factorizes_over_disjoint_modes():
    q = 0.6
    s1 = [a(0), a(0), a_dag(0), a_dag(0)]
    s2 = [a(1), a_dag(1)]
    assert vev(s1 + s2, q) == pytest.approx(vev(s1, q) * vev(s2, q), rel=1e-12)
    # different species also commute and factorize
    s3 = [b(0), b_dag(0)]
    assert vev(s1 + s3, q) == pytest.approx(vev(s1, q) * vev(s3, q), rel=1e-12)


def test_distinct_mode_operators_commute():
    q = 0.4
    v = apply_string([a_dag(0), a_dag(1)], StateVector.vacuum(), q)
    w = apply_string([a_dag(1), a_dag(0)], StateVector.vacuum(), q)
    assert v.terms.keys() == w.terms.keys()
    for s in v.terms:
        assert v.terms[s] == pytest.approx(w.terms[s], abs=1e-14)


def test_charge_conjugation_vacuum_invariant():
    v = charge_conjugate_state(StateVector.vacuum(), epsilon=1j)
    assert v.amplitude(fock.VACUUM) == pytest.approx(1.0)


def test_charge_conjugation_operator_relabeling():
    eps = complex(math.cos(0.3), math.sin(0.3))
    phase, op = charge_conjugate_op(a_dag(2), eps)
    assert phase == pytest.approx(eps.conjugate())
    assert op == b_dag(2)
    phase, op = charge_conjugate_op(a(2), eps)
    assert phase == pytest.approx(eps)
    assert op == b(2)


def test_charge_conjugation_bad_phase():
    with pytest.raises(ValueError):
        charge_conjugate_op(a(), 2.0)


@pytest.mark.parametrize("q", Q_VALUES)
def test_conjugated_a_relation_gives_b_relation(q):
    # conjugating a adag - q adag a termwise reproduces the b-species VEVs
    eps = complex(math.cos(1.1), math.sin(1.1))
    p1, s1 = charge_conjugate_string([a(), a_dag()], eps)
    p2, s2 = charge_conjugate_string([a_dag(), a()], eps)
    lhs = p1 * vev(s1, q) - q * p2 * vev(s2, q)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert vev([b(), b_dag()], q) - q * vev([b_dag(), b()], q) == pytest.approx(1.0, abs=1e-12)


def test_charge_conjugation_state_involution():
    q = 0.7
    eps = complex(math.cos(0.4), math.sin(0.4))
    v = apply_string([a_dag(0), a_dag(0), b_dag(1)], StateVector.vacuum(), q)
    w = charge_conjugate_state(charge_conjugate_state(v, eps), eps)
    assert w.terms.keys() == v.terms.keys()
    for s in v.terms:
        assert w.terms[s] == pytest.approx(v.terms[s], abs=1e-12)


def test_prune_drops_tiny_amplitudes():
    v = StateVector({fock.VACUUM: 1e-16}).prune()
    assert v.terms == {}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vev_nonfinite_q_is_typed(bad):
    # a nan norm used to be pruned as if it were zero, giving 0j
    with pytest.raises(NonFiniteInputError):
        vev([a(), a_dag()], bad)
