import math

import pytest

from qfield import fock
from qfield.errors import (NegativeNormError, NonFiniteInputError,
                           NumericOverflowError)
from qfield.fock import (a, a_dag, b, b_dag, apply_string, charge_conjugate_op,
                         charge_conjugate_string, vev)
from qfield.qcore import basic_number
from qfield.wick import wick_vev

Q_VALUES = [-1.0, -0.5, 0.3, 1.0, 1.2]


def number_state(n, mode=0, species=fock.PARTICLE):
    return {fock.ModeLabel(species, mode): n} if n else {}


def test_mode_label_is_a_value_record():
    # construction, ==, hash, repr and ordering of the old dataclass
    # (repr text recorded from it)
    lab = fock.ModeLabel(fock.PARTICLE, 3)
    assert (lab.species, lab.mode) == (fock.PARTICLE, 3)
    assert fock.ModeLabel(species=fock.ANTIPARTICLE, mode=2).mode == 2
    assert fock.ModeLabel(fock.ANTIPARTICLE).mode == 0
    assert lab == fock.ModeLabel(fock.PARTICLE, 3)
    assert lab != fock.ModeLabel(fock.PARTICLE, 2)
    assert lab != fock.ModeLabel(fock.ANTIPARTICLE, 3)
    assert hash(lab) == hash(fock.ModeLabel(fock.PARTICLE, 3))
    assert len({lab, fock.ModeLabel(fock.PARTICLE, 3)}) == 1
    for bad in ({"species": "quark"}, {"species": fock.PARTICLE, "mode": -1}):
        with pytest.raises(ValueError):
            fock.ModeLabel(**bad)
    with pytest.raises(ValueError):  # _replace validates too
        lab._replace(mode=-1)
    with pytest.raises(AttributeError):
        lab.mode = 4
    assert repr(lab) == "ModeLabel(species='particle', mode=3)"
    assert (repr(fock.ModeLabel(fock.ANTIPARTICLE))
            == "ModeLabel(species='antiparticle', mode=0)")
    labels = [fock.ModeLabel(fock.PARTICLE, 2),
              fock.ModeLabel(fock.ANTIPARTICLE, 5),
              fock.ModeLabel(fock.PARTICLE, 0)]
    assert sorted(labels) == [labels[1], labels[2], labels[0]]
    assert fock.ModeLabel(fock.PARTICLE, 0) < fock.ModeLabel(fock.PARTICLE, 1)


def test_mode_label_rejects_non_integer_modes():
    # the same ValueError as a negative mode; integer types are taken
    # through operator.index
    for mode in (1.5, math.nan, math.inf, "1", None):
        with pytest.raises(ValueError, match="nonnegative integer"):
            fock.ModeLabel(fock.PARTICLE, mode)
    with pytest.raises(ValueError, match="nonnegative integer"):
        fock.ModeLabel(fock.PARTICLE, -1)
    for mode in (2, True):
        assert fock.ModeLabel(fock.PARTICLE, mode).mode == int(mode)


def test_fock_states_do_not_depend_on_label_order():
    # a basis state is a dict from label to occupation: the same state
    # whatever order its labels are filled in, with no zero occupation
    want = {fock.ModeLabel(fock.ANTIPARTICLE, 1): 1,
            fock.ModeLabel(fock.PARTICLE, 0): 1,
            fock.ModeLabel(fock.PARTICLE, 2): 1}
    for ops in ([b_dag(1), a_dag(2), a_dag(0)], [a_dag(0), a_dag(2), b_dag(1)],
                [a(3), a_dag(3), b_dag(1), a_dag(2), a_dag(0)]):
        assert apply_string(ops, {}, 0.5) == (want, 1.0)
    assert apply_string([a(0)], want, 0.5) == (
        {lab: n for lab, n in want.items() if lab != a(0).label}, 1.0)


def test_ladder_op_is_a_value_record():
    # construction, ==, hash and repr of the old dataclass (repr text
    # recorded from it)
    lab = fock.ModeLabel(fock.PARTICLE, 2)
    op = fock.LadderOp(fock.CREATE, lab)
    assert (op.kind, op.label, op.is_creator) == (fock.CREATE, lab, True)
    kw = fock.LadderOp(kind=fock.ANNIHILATE, label=lab)
    assert not kw.is_creator
    assert op == a_dag(2) and kw == a(2)
    assert op != kw and op != b_dag(2) and op != a_dag(1)
    assert hash(op) == hash(a_dag(2))
    assert len({op, a_dag(2), kw}) == 2
    with pytest.raises(ValueError):
        fock.LadderOp("destroy", lab)
    with pytest.raises(ValueError):
        op._replace(kind="destroy")
    with pytest.raises(AttributeError):
        op.kind = fock.ANNIHILATE
    assert [repr(x) for x in (a(0), a_dag(2), b(1), b_dag(4))] == [
        "a0", "a2+", "b1", "b4+"]
    assert repr((a(0), a_dag(0))) == "(a0, a0+)"


def test_labels_and_operators_equal_tuples_of_their_fields():
    # the one change from the dataclasses: as named tuples both compare
    # (and hash) equal to a plain tuple of their fields, and LadderOp is
    # ordered, by kind and then label
    lab = fock.ModeLabel(fock.PARTICLE, 1)
    assert lab == (fock.PARTICLE, 1) and hash(lab) == hash((fock.PARTICLE, 1))
    op = a_dag(1)
    assert op == (fock.CREATE, (fock.PARTICLE, 1))
    assert hash(op) == hash((fock.CREATE, (fock.PARTICLE, 1)))
    assert sorted([a_dag(1), a(2), a(0)]) == [a(0), a(2), a_dag(1)]
    assert a(1) < a_dag(0)  # "annihilate" < "create"


def test_ladder_examples():
    q = 0.7
    assert apply_string([a_dag()], {}, q) == (number_state(1), 1.0)
    assert apply_string([a()], number_state(1), q) == ({}, 1.0)
    state, amp = apply_string([a_dag()], number_state(1), q)
    assert state == number_state(2)
    assert amp == pytest.approx(math.sqrt(1 + q), rel=1e-12)
    # the argument is not modified
    one = number_state(1)
    apply_string([a(), a_dag(1)], one, q)
    assert one == number_state(1)


def test_annihilate_vacuum():
    assert apply_string([a()], {}, 0.5) is None


def test_negative_norm_error():
    # q < -1 makes <2>_q = 1 + q < 0, however close q is to -1: the sign
    # of basic_number is exact
    for q in (-1.5, -1.0 - 1e-13, -1.0 - 2.0 ** -52):
        with pytest.raises(NegativeNormError):
            apply_string([a_dag()], number_state(1), q)
    # at q = -1, <2>_q = 0: the state drops out
    assert apply_string([a_dag()], number_state(1), -1.0) is None


def test_vev_overflow_is_typed():
    # the amplitude overflows to inf; wick_vev raises on the same string
    ops = [a(), a(), a_dag(), a(), a_dag(), a_dag()]
    for q in (1e155, 1e300):
        with pytest.raises(NumericOverflowError):
            vev(ops, q)
        with pytest.raises(NumericOverflowError):
            wick_vev(ops, q)
    # an amplitude that overflows on a state that then drops out leaves
    # an exact 0: three labels at level 2 give (1e150)^3, then a3 finds
    # its mode empty
    ops = [a(3)] + [op for mode in range(3) for op in (a_dag(mode),) * 2]
    assert vev(ops, 1e300) == 0.0 and wick_vev(ops, 1e300) == 0.0
    # so does a weight <3>_q that overflows on a walk that ends above
    # the vacuum, or before an annihilator meets an empty label
    for ops in ([a_dag()] * 3, [a(1)] + [a_dag()] * 3,
                [a()] * 4 + [a_dag()] * 3):
        for q in (1e155, 1e300):
            assert vev(ops, q) == 0.0 and wick_vev(ops, q) == 0.0


@pytest.mark.parametrize("q", Q_VALUES)
def test_defining_relation_on_basis_states(q):
    # (a adag - q adag a)|n> = |n> for all representable n
    n_top = 14 if q > -1 else 1
    for n in range(n_top + 1):
        v = number_state(n)
        # each term maps |n> to a multiple of |n>, or to the zero vector
        amps = []
        for ops in ([a(), a_dag()], [a_dag(), a()]):
            image = apply_string(ops, v, q)
            assert image is None or image[0] == v
            amps.append(0.0 if image is None else image[1])
        assert amps[0] - q * amps[1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("q", Q_VALUES)
def test_vev_examples(q):
    assert vev([a(), a_dag()], q) - q * vev([a_dag(), a()], q) == pytest.approx(1.0)
    assert vev([a_dag(), a()], q) == 0.0
    assert vev([a(), a(), a_dag(), a_dag()], q) == pytest.approx(1 + q, abs=1e-12)


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
    v_state, v_amp = apply_string([a_dag(0), a_dag(1)], {}, q)
    w_state, w_amp = apply_string([a_dag(1), a_dag(0)], {}, q)
    assert v_state == w_state
    assert v_amp == pytest.approx(w_amp, abs=1e-14)


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
    # epsilon is checked at entry, not per operator: an empty string too
    with pytest.raises(ValueError):
        charge_conjugate_string((), 2.0)


def test_charge_conjugation_non_finite_phase():
    # a nan |epsilon| used to pass the unit-modulus check and give nan phases
    for eps in (math.nan, complex(math.nan, 0.0), complex(0.0, math.inf),
                -math.inf):
        with pytest.raises(NonFiniteInputError):
            charge_conjugate_op(a(), eps)
        with pytest.raises(NonFiniteInputError):
            charge_conjugate_string([a(), a_dag(1)], eps)
        with pytest.raises(NonFiniteInputError):
            charge_conjugate_string((), eps)


@pytest.mark.parametrize("q", Q_VALUES)
def test_conjugated_a_relation_gives_b_relation(q):
    # conjugating a adag - q adag a termwise reproduces the b-species VEVs
    eps = complex(math.cos(1.1), math.sin(1.1))
    p1, s1 = charge_conjugate_string([a(), a_dag()], eps)
    p2, s2 = charge_conjugate_string([a_dag(), a()], eps)
    lhs = p1 * vev(s1, q) - q * p2 * vev(s2, q)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert vev([b(), b_dag()], q) - q * vev([b_dag(), b()], q) == pytest.approx(1.0, abs=1e-12)


def test_vev_drops_only_exact_zeros():
    # (1 + q)^2 = 8.3e-25 near q = -1: a tolerance of 1e-15 on the
    # amplitudes dropped it to 0j
    ops = [a(0), a(0), a_dag(0), a_dag(0), a(1), a(1), a_dag(1), a_dag(1)]
    q = -1.0 + 2.0 ** -40
    want = wick_vev(ops, q)
    assert want == pytest.approx((1.0 + q) ** 2, rel=1e-12)
    assert vev(ops, q) == pytest.approx(want, rel=1e-12)
    # an exact 0 drops out: Pauli blocking at q = -1, and the underflow of
    # (1 + q)^21 = 2^-1092 at q = -1 + 2^-52
    assert apply_string(ops, {}, -1.0) is None
    assert apply_string(ops[:4] * 21, {}, -1.0 + 2.0 ** -52) is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vev_nonfinite_q_is_typed(bad):
    # a nan norm used to be dropped as if it were zero, giving 0j
    with pytest.raises(NonFiniteInputError):
        vev([a(), a_dag()], bad)
