import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qfield.errors import (NonFiniteInputError, NumericOverflowError,
                           OccupancyPoleError)
from qfield import propagator as prop, scattering as sc
from qfield.fock import a, a_dag, vev
from qfield.qcore import basic_number, q_occupancy
from qfield.wick import QPoly, normal_order, wick_vev

Q_VALUES = [-1.0, -0.5, 0.3, 1.0, 1.2]


def test_basic_number_examples():
    assert basic_number(1.0, 5) == 5.0
    assert basic_number(2.0, 3) == 7.0
    assert basic_number(0.5, 2) == 1.5
    assert basic_number(0.3, 0) == 0.0


def test_basic_number_limit_branch():
    # next to q = 1 the value is (q^7 - 1)/(q - 1), not the limit 7
    mp = pytest.importorskip("mpmath")
    q = 1.0 + 1e-13
    with mp.workdps(50):
        want = (mp.mpf(q) ** 7 - 1) / (mp.mpf(q) - 1)
    assert abs(basic_number(q, 7) - want) <= 4 * sys.float_info.epsilon * want


def test_basic_number_within_its_stated_tolerance():
    # a log grid in |q -+ 1| from 1e-15 to 1 on both sides of +1 and -1,
    # n up to 1e6; the old unity window was 5e-8 off at 1 + 1e-13, n = 1e6
    mp = pytest.importorskip("mpmath")
    rng = random.Random(11)
    tol = 4 * sys.float_info.epsilon
    for _ in range(20000):
        q = (rng.choice((-1.0, 1.0))
             + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15.0, 0.0))
        n = int(10.0 ** rng.uniform(0.0, 6.0))
        with mp.workdps(50):
            want = (mp.mpf(q) ** n - 1) / (mp.mpf(q) - 1)
        if abs(want) > sys.float_info.max:
            with pytest.raises(NumericOverflowError):
                basic_number(q, n)
            continue
        assert abs(basic_number(q, n) - want) <= tol * abs(want), (q, n)
    # zeros are +0.0
    for q in (-1.0, 0.0, 0.5, -1.0 - 1e-15):
        assert math.copysign(1.0, basic_number(q, 0)) == 1.0
    for n in (0, 2, 10):
        assert math.copysign(1.0, basic_number(-1.0, n)) == 1.0


def test_basic_number_past_the_overflow_of_q_to_the_n():
    # q^n overflows but <n>_q = (q^n - 1)/(q - 1) does not: log|q| is
    # drawn between log(max)/n and log(max)/(n - 1), both signs of q
    mp = pytest.importorskip("mpmath")
    assert basic_number(1e100, 4) == pytest.approx(1e300, rel=1e-15)
    assert basic_number(1e300, 2) == pytest.approx(1e300, rel=1e-15)
    rng = random.Random(23)
    tol = 4 * sys.float_info.epsilon
    log_max = math.log(sys.float_info.max)
    checked = 0
    for _ in range(2000):
        n = rng.choice((2, 3, 5, rng.randint(2, 60), rng.randint(60, 10 ** 6)))
        q = rng.choice((-1.0, 1.0)) * math.exp(
            rng.uniform(log_max / n, log_max / (n - 1)))
        with mp.workdps(50):
            want = (mp.mpf(q) ** n - 1) / (mp.mpf(q) - 1)
        if abs(want) > sys.float_info.max:
            with pytest.raises(NumericOverflowError):
                basic_number(q, n)
            continue
        assert abs(basic_number(q, n) - want) <= tol * abs(want), (q, n)
        checked += 1
    assert checked > 1000
    ops = (a(), a(), a_dag(), a_dag())
    assert wick_vev(ops, 1e300) == pytest.approx(1e300, rel=1e-15)
    assert vev(ops, 1e300) == pytest.approx(1e300, rel=1e-15)


def test_basic_number_of_a_numpy_q_warns_nowhere():
    # numpy float64 ** overflows to inf with a RuntimeWarning, where a
    # Python float raises; the values, and the typed error, are the float
    # ones, with warnings as errors
    import warnings
    cases = ((1e100, 4), (1e300, 2), (-1e100, 3), (-2.0, 3), (0.5, 7),
             (1.0 - 2.0 ** -30, 5), (1.5, 1700))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, n in cases:
            assert basic_number(np.float64(q), n) == basic_number(q, n)
        for q, n in ((1e300, 3), (1.5, 1749), (1.5, 1750)):
            with pytest.raises(NumericOverflowError):
                basic_number(np.float64(q), n)


def test_basic_number_negative_n_rejected():
    with pytest.raises(ValueError):
        basic_number(0.5, -1)


def test_basic_number_rejects_non_integer_n():
    # these returned nan or inf at q = 1 and raised NumericOverflowError or
    # TypeError elsewhere; n goes through operator.index, as ModeLabel's does
    for q in (1.0, 0.5, -0.5):
        for n in (math.nan, math.inf, 1.5, "1", None):
            with pytest.raises(ValueError, match="nonnegative integer"):
                basic_number(q, n)
    for q in (1.0, 0.5, -0.5, 2.0):
        assert basic_number(q, np.int64(7)) == basic_number(q, 7)


@given(st.sampled_from(Q_VALUES), st.integers(min_value=0, max_value=20))
def test_recursion_identity(q, n):
    # <n+1> - q <n> = 1: the identity behind the Fock representation
    assert basic_number(q, n + 1) - q * basic_number(q, n) == pytest.approx(1.0, abs=1e-12)


def test_exact_specializations():
    for n in range(10):
        assert basic_number(1.0, n) == float(n)
        assert basic_number(-1.0, n) == (1 - (-1) ** n) / 2
    # <1>_q = (q - 1)/(q - 1) is exactly 1 wherever q - 1 is finite and
    # nonzero; wick_vev takes the first level weight as 1.0 without a call
    big, tiny = sys.float_info.max, 5e-324
    for q in (big, -big, 1e300, -1e300, tiny, -tiny, -2.0, -1.0, -0.5, 0.0,
              0.5, 1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 2.0):
        assert basic_number(q, 1) == 1.0, q


def test_occupancy_limits():
    assert q_occupancy(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)
    assert q_occupancy(math.log(3.0), -1.0) == pytest.approx(0.25, rel=1e-14)
    for x in (0.2, 1.0, 3.0):
        assert q_occupancy(x, 0.0) == pytest.approx(math.exp(-x), rel=1e-14)


@given(st.floats(min_value=0.5, max_value=5.0),
       st.sampled_from([-1.0, -0.5, 0.3, 0.9]))
def test_occupancy_ratio_relation(x, q):
    # (1 + q y)/y = e^x with y the occupancy: the deformed Einstein relation
    y = q_occupancy(x, q)
    assert (1.0 + q * y) / y == pytest.approx(math.exp(x), rel=1e-12)


def test_occupancy_near_its_pole_against_mpmath():
    # e^x - q cancelled at the first two: 4.4e-5 and 8.3e-8 relative off;
    # expm1(x) + 1 cancels at the next three: a false pole at x = -40
    mp = pytest.importorskip("mpmath")
    for x, q in ((1e-12, 1.0 - 1e-12), (1e-10, 1.0), (1e-8, 0.999),
                 (-1e-9, 0.5), (-40.0, 0.0), (-30.0, 0.0), (-5.0, 0.001)):
        with mp.workdps(40):
            want = 1 / (mp.exp(mp.mpf(x)) - mp.mpf(q))
            assert abs(q_occupancy(x, q) - want) <= 4e-16 * abs(want), (x, q)


def test_occupancy_within_its_stated_tolerance():
    # both forms of e^x - q, on both sides of x = -ln 2 and next to q = e^x
    mp = pytest.importorskip("mpmath")
    rng = random.Random(5)
    eps = sys.float_info.epsilon
    for _ in range(400):
        x = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, 2.5)
        near = math.exp(x) * (1.0 + rng.choice((-1.0, 1.0))
                              * 10.0 ** rng.uniform(-12.0, -1.0))
        q = rng.choice((rng.uniform(-2.0, 2.0), near))
        with mp.workdps(40):
            ex, mq = mp.exp(mp.mpf(x)), mp.mpf(q)
            if x < -math.log(2.0):
                scale = ex + abs(mq)
            else:
                scale = abs(ex - 1) + abs(1 - mq)
            want = 1 / (ex - mq)
            rel_tol = 3 * eps * scale * abs(want)
            assert abs(q_occupancy(x, q) - want) <= rel_tol * abs(want), (x, q)


def test_occupancy_pole():
    with pytest.raises(OccupancyPoleError):
        q_occupancy(0.0, 1.0)


def test_occupancy_refused_only_at_the_pole_or_past_the_range():
    # 1/(e^x - 1) ~ 1/x - 1/2 near x = 0: ordinary floats down to the
    # reciprocal of the largest one, within the stated 3 eps S/|e^x - q|
    # (S = |e^x - 1| here, so 3 eps)
    mp = pytest.importorskip("mpmath")
    eps = sys.float_info.epsilon
    for x in (1e-301, 2e-300, 1e-250, 6e-309):
        with mp.workdps(40):
            want = 1 / mp.expm1(mp.mpf(x))
        assert abs(q_occupancy(x, 1.0) - want) <= 3 * eps * want, x
    for x in (1e-310, 5e-324):
        with pytest.raises(NumericOverflowError):
            q_occupancy(x, 1.0)
    with pytest.raises(OccupancyPoleError):
        q_occupancy(-0.0, 1.0)


def test_basic_number_overflow_is_typed():
    assert basic_number(2.0, 1000) == 2.0 ** 1000 - 1.0
    # (1.5, 1750): q^n is finite, the division by q - 1 overflows;
    # a numpy float64 overflows to inf where a float raises
    for q, n in ((2.0, 1100), (-2.0, 1101), (1e10, 40), (1.5, 1750),
                 (np.float64(2.0), 1100)):
        with pytest.raises(NumericOverflowError), np.errstate(over="ignore"):
            basic_number(q, n)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_occupancy_nonfinite_inputs_are_typed(bad):
    for x, q in ((bad, 0.5), (1.0, bad)):
        with pytest.raises(NonFiniteInputError):
            q_occupancy(x, q)
    # basic_number names a non-finite q where its result is not finite,
    # and wick_vev, which multiplies basic numbers, inherits the check
    for n in (1, 3):
        with pytest.raises(NonFiniteInputError):
            basic_number(bad, n)
    with pytest.raises(NonFiniteInputError):
        wick_vev((a(), a(), a_dag(), a_dag()), bad)


def test_occupancy_finite_at_large_x():
    # below the overflow of e^x the present formula is kept exactly
    for x, q in ((709.0, 0.5), (700.0, -1.0), (30.0, 1.0)):
        assert q_occupancy(x, q) == 1.0 / (math.exp(x) - q)
    for q in (-1.0, 0.0, 0.5, 1.0):
        edge = q_occupancy(709.78, q)
        assert q_occupancy(709.79, q) == pytest.approx(edge * math.exp(-0.01),
                                                       rel=1e-9)
        assert q_occupancy(1000.0, q) == 0.0


BIG = 10 ** 400  # an int that no float holds
LEG = (2.0, 0.0, 0.0, 3.0 ** 0.5)  # on shell at m = 1
K = (0.3, 0.2, 0.0, 0.1)
PAST_THE_FLOAT_RANGE = {
    "basic_number q": lambda: basic_number(BIG, 3),
    "wick_vev q": lambda: wick_vev((a(0), a_dag(0)), BIG),
    "normal_order q": lambda: normal_order((a(0), a_dag(0)), BIG),
    "QPoly.__call__ q": lambda: QPoly((1, 1))(BIG),
    "fock.vev q": lambda: vev((a(0), a_dag(0)), BIG),
    "q_occupancy x": lambda: q_occupancy(BIG, 0.5),
    "delta_plus_equal_time r": lambda: prop.delta_plus_equal_time(BIG, 1.0),
    "scalar q": lambda: prop.scalar_propagator_momentum(K, 1.0, BIG),
    "spinor q": lambda: prop.spinor_propagator_momentum(K, 1.0, BIG),
    "photon q": lambda: prop.photon_propagator_momentum(K, 1.0, BIG),
    "pole_residues q": lambda: prop.pole_residues(K[1:], 1.0, BIG),
    "Boost beta": lambda: sc.Boost((BIG, 0, 0)),
    "ProcessKinematics leg": lambda: sc.ProcessKinematics(
        ((BIG, 0, 0, 0), LEG), (LEG, LEG), (1.0,) * 4),
    "cm_elastic_kinematics E": lambda: sc.cm_elastic_kinematics(BIG, 1.0, 1.0),
    "cm_annihilation_kinematics E":
        lambda: sc.cm_annihilation_kinematics(BIG, 1.0, 1.0),
}


@pytest.mark.parametrize("name", PAST_THE_FLOAT_RANGE)
def test_int_past_the_float_range_is_typed(name):
    # float() and math.isfinite raise OverflowError for such an int
    with pytest.raises(NumericOverflowError, match="past the float range"):
        PAST_THE_FLOAT_RANGE[name]()


def test_basic_number_of_n_past_the_float_range():
    # q^n is below every float for |q| < 1, so <n>_q = 1/(1 - q); at
    # q = -1 the value is the parity of n; elsewhere it overflows
    for q in (0.5, -0.5, 0.0, 1.0 - 2.0 ** -53, -1.0 + 2.0 ** -53,
              np.float64(0.5)):
        assert basic_number(q, BIG) == 1.0 / (1.0 - float(q))
    assert basic_number(0.5, BIG) == 2.0
    assert basic_number(-1.0, BIG) == 0.0
    assert basic_number(-1.0, BIG + 1) == 1.0
    for q in (1.0, 2.0, -2.0, 1.0 + 2.0 ** -52, -1.0 - 2.0 ** -52):
        with pytest.raises(NumericOverflowError, match="n is past the float"):
            basic_number(q, BIG)
    for bad in (math.nan, math.inf):
        with pytest.raises(NonFiniteInputError):
            basic_number(bad, BIG)
