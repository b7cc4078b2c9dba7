import functools
import heapq
import math
import random
import sys
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import pytest

from qfield import wick
from qfield.errors import (NegativeNormError, NonFiniteInputError,
                           NumericOverflowError, QFieldError)
from qfield.fock import CREATE, a, a_dag, b, b_dag, apply_string, vev
from qfield.wick import (PairingDiagram, QPoly, WickReport, normal_order,
                         verify_wick, wick_expand, wick_vev)

Q_VALUES = [-1.0, -0.5, 0.3, 1.0, 1.2]


def is_normal_ordered(ops):
    """No creator stands right of an annihilator."""
    seen_annihilator = False
    for op in ops:
        if op.is_creator and seen_annihilator:
            return False
        if not op.is_creator:
            seen_annihilator = True
    return True


def all_single_mode_strings(length):
    yield from product((a(0), a_dag(0)), repeat=length)


def all_two_mode_strings(length):
    choices = (a(0), a_dag(0), a(1), a_dag(1))
    yield from product(choices, repeat=length)


def from_dict(by_exponent):
    """The QPoly whose coefficient of q^e is by_exponent.get(e, 0)."""
    coeffs = [0] * (max(by_exponent, default=-1) + 1)
    for e, c in by_exponent.items():
        coeffs[e] = c
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return QPoly(coeffs)


def q_power(p):
    return QPoly((0,) * p + (1,))


def shift(poly, p=1):
    """poly times q^p."""
    return QPoly((0,) * p + poly.coeffs)


def add(x, y):
    out = dict(enumerate(x.coeffs))
    for e, c in enumerate(y.coeffs):
        out[e] = out.get(e, 0) + c
    return from_dict(out)


def reference_normal_order(ops):
    """Rewriting without merging: each derivation is its own work item."""
    pending = [(tuple(ops), q_power(0))]
    done = {}
    while pending:
        string, poly = pending.pop()
        idx = next((i for i in range(len(string) - 1)
                    if not string[i].is_creator and string[i + 1].is_creator),
                   None)
        if idx is None:
            done[string] = add(done.get(string, QPoly()), poly)
            continue
        left, right = string[idx], string[idx + 1]
        swapped = string[:idx] + (right, left) + string[idx + 2:]
        if left.label == right.label:
            pending.append((swapped, shift(poly)))
            pending.append((string[:idx] + string[idx + 2:], poly))
        else:
            pending.append((swapped, poly))
    return {s: p for s, p in done.items() if p.coeffs}


@functools.lru_cache(maxsize=None)
def canonical_key(ops):
    """An operator's one key: its creators, then its annihilators, each
    ordered by label."""
    return tuple(sorted(ops, key=lambda op: (op.kind != CREATE, op.label)))


def canonical(terms):
    """terms summed per operator, each under its canonical_key."""
    out = {}
    for ops, poly in terms.items():
        key = canonical_key(ops)
        out[key] = add(out[key], poly) if key in out else poly
    return out


def heap_normal_order(ops):
    """Rewriting with merged strings, popped from a heap in decreasing
    (length, inversion count) order so each is expanded once, after all
    its contributions arrived.  Operators are coded as
    2 * (label index) + is_creator."""
    labels, decode = {}, {}
    codes = []
    for op in ops:
        code = 2 * labels.setdefault(op.label, len(labels)) + op.is_creator
        decode[code] = op
        codes.append(code)

    def inversions(string):
        count = creators = 0
        for c in reversed(string):
            if c & 1:
                creators += 1
            else:
                count += creators
        return count

    pending, done, heap = {}, {}, []

    def feed(string, n_inv, poly):
        # every poly is fed once, so a new entry takes it as it is
        target = pending if n_inv else done
        if string not in target:
            target[string] = poly
            if n_inv:
                heapq.heappush(heap, (-len(string), -n_inv, string))
            return
        target = target[string]
        for e, c in poly.items():
            target[e] = target.get(e, 0) + c

    start = tuple(codes)
    feed(start, inversions(start), {0: 1})
    while heap:
        _, neg_inv, string = heapq.heappop(heap)
        poly = pending.pop(string)
        for i in range(len(string) - 1):  # the leftmost redex
            if not string[i] & 1 and string[i + 1] & 1:
                break
        left, right = string[i], string[i + 1]
        swapped = string[:i] + (right, left) + string[i + 2:]
        if left >> 1 == right >> 1:
            feed(swapped, -neg_inv - 1, {e + 1: c for e, c in poly.items()})
            contracted = string[:i] + string[i + 2:]
            feed(contracted, inversions(contracted), poly)
        else:
            feed(swapped, -neg_inv - 1, poly)
    return {tuple(map(decode.__getitem__, s)): from_dict(p)
            for s, p in done.items()}


def reference_wick_expand(ops, q):
    """Every pairing diagram over the ``LadderOp``s themselves, with the
    crossings recounted over all pairs of pairs once a diagram is done."""
    ops = tuple(ops)
    n = len(ops)
    diagrams = []

    def recurse(avail, pairs):
        if not avail:
            paired = {k for p in pairs for k in p}
            free = tuple(i for i in range(n) if i not in paired)
            diagrams.append(make_diagram(pairs, free))
            return
        i, rest = avail[0], avail[1:]
        recurse(rest, pairs)
        for j in rest:
            if ops[i].label != ops[j].label:
                continue
            if ops[i].is_creator == ops[j].is_creator:
                continue
            recurse(tuple(k for k in rest if k != j), pairs + ((i, j),))

    def make_diagram(pairs, free):
        crossings = 0
        for (i, j), (k, l) in combinations(sorted(pairs), 2):
            if i < k < j < l and ops[i].label == ops[k].label:
                crossings += 1
        value = 1.0
        for i, j in pairs:
            if ops[i].is_creator:
                value = 0.0
                break
        return PairingDiagram(tuple(sorted(pairs)), free, crossings, value,
                              (q ** crossings) * value)

    recurse(tuple(range(n)), ())
    diagrams.sort(key=lambda d: d.pairs)
    return diagrams


def apply_normal_form(nf, state):
    """Evaluate a normal form on a basis state, term by term: a dict from
    each image state, as a sorted tuple of its items, to its amplitude."""
    out = {}
    for ops, poly in nf.terms.items():
        image = apply_string(ops, state, nf.q)
        if image is not None:
            key = tuple(sorted(image[0].items()))
            out[key] = out.get(key, 0.0) + poly(nf.q) * image[1]
    return out


def poly_mul(x, y):
    """Product of integer polynomials given as coefficient lists."""
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] += xi * yj
    return out


def q_integer(j):
    return [1] * j


def q_binomial(n, k):
    """Gaussian binomial [n, k]_q by [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k in (0, n):
        return [1]
    left, right = q_binomial(n - 1, k - 1), q_binomial(n - 1, k)
    out = [0] * max(len(left), k + len(right))
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[k + i] += c
    return out


def test_qpoly_basics():
    p = add(shift(q_power(0), 2), q_power(0))
    assert p(2.0) == 5.0
    # any real q is taken at its float value (whose denominator is 2^s)
    assert p(2) == 5.0 and p(Fraction(1, 3)) == p(1 / 3)
    assert p.pure_power() is None
    assert q_power(3).pure_power() == 3
    assert repr(p) == "1*q^0 + 1*q^2" and repr(QPoly()) == "0"


def test_qpoly_overflow_is_typed():
    # q ** 3 raises OverflowError at q = 1e300; at q = 1e154, q ** 2 is
    # finite and 3 q ** 2 is inf
    for q, coeffs in ((1e300, {0: 1, 3: 1}), (1e154, {0: 1, 2: 3}),
                      (-1e154, {1: 1, 2: 3})):
        with pytest.raises(NumericOverflowError, match="overflows at q="):
            from_dict(coeffs)(q)
    assert from_dict({0: 1, 2: 3})(1e153) == 1 + 3 * 1e153 ** 2


def test_qpoly_values_are_correctly_rounded():
    # Every coefficient of the normal form of a two-label string up to
    # length 6, and of a seeded sample of longer strings, at q offset
    # toward -1, 0 and 1 from both sides and at extreme q; the reference
    # is the exact rational sum, rounded once.
    rng = random.Random(26)
    strings = [ops for n in range(7) for ops in all_two_mode_strings(n)]
    strings += rng.sample([ops for n in (7, 8)
                           for ops in all_two_mode_strings(n)], 300)
    strings += rng.sample([ops for n in (10, 12)
                           for ops in all_single_mode_strings(n)], 100)
    polys = {repr(p): p for ops in strings
             for p in normal_order(ops, 0.5).terms.values()}
    q_grid = {c + m * 2.0 ** -k for c in (-1.0, 0.0, 1.0)
              for m in (0.7, -0.7, 0.9137, -0.9137)
              for k in (3, 10, 20, 30, 40, 52)}
    q_grid |= {0.0, -0.0, 1.0, -1.0, -1e300, -3.7, -0.7, 0.3, 1.2, 1e150,
               1e300}
    for poly in polys.values():
        coeffs = poly.coeffs
        assert type(coeffs) is tuple and coeffs[-1] != 0, poly
        assert all(type(c) is int for c in coeffs), poly
        for q in q_grid:
            exact, x = Fraction(0), Fraction(q)
            for c in reversed(coeffs):
                exact = exact * x + c
            try:
                want = float(exact)
            except OverflowError:
                with pytest.raises(NumericOverflowError):
                    poly(q)
                continue
            assert poly(q) == want, (poly, q)


def test_normal_form_is_a_value_record():
    # construction, ==, hash and repr of the old dataclass (repr text
    # recorded from it)
    terms = {(): q_power(0), (a_dag(0), a(0)): q_power(1)}
    nf = wick.NormalForm(terms, 0.5)
    assert (nf.terms, nf.q) == (terms, 0.5)
    kw = wick.NormalForm(terms=dict(terms), q=0.5)
    assert kw == nf == normal_order((a(0), a_dag(0)), 0.5)
    assert not kw != nf
    assert nf != wick.NormalForm(terms, 0.25) and nf != wick.NormalForm({}, 0.5)
    assert nf.__eq__((terms, 0.5)) is NotImplemented
    with pytest.raises(TypeError):
        hash(nf)
    assert repr(nf) == "NormalForm(terms={(): 1*q^0, (a0+, a0): 1*q^1}, q=0.5)"


def test_pairing_diagram_is_a_value_record():
    # construction, ==, hash and repr of the old dataclass (repr text
    # recorded from it)
    d = PairingDiagram(((0, 2), (1, 3)), (), 1, 1.0, 0.5)
    assert (d.pairs, d.unpaired, d.crossings, d.pair_value, d.coefficient,
            d.is_full) == (((0, 2), (1, 3)), (), 1, 1.0, 0.5, True)
    kw = PairingDiagram(pairs=((0, 2),), unpaired=(1, 3), crossings=0,
                        pair_value=1.0, coefficient=1.0)
    assert not kw.is_full
    assert kw == PairingDiagram(((0, 2),), (1, 3), 0, 1.0, 1.0)
    assert not kw != PairingDiagram(((0, 2),), (1, 3), 0, 1.0, 1.0)
    assert d != kw and d != PairingDiagram(((0, 2), (1, 3)), (), 1, 1.0, 0.25)
    assert d in wick_expand((a(0), a(0), a_dag(0), a_dag(0)), 0.5)
    assert d.__eq__((((0, 2), (1, 3)), (), 1, 1.0, 0.5)) is NotImplemented
    with pytest.raises(TypeError):
        hash(d)
    assert repr(d) == ("PairingDiagram(pairs=((0, 2), (1, 3)), unpaired=(), "
                       "crossings=1, pair_value=1.0, coefficient=0.5)")


def test_wick_report_is_a_value_record():
    # construction, ==, hash and repr of the old dataclass (repr text
    # recorded from it); both VEVs are floats
    ops = (a(0), a_dag(0))
    rep = wick.WickReport(ops, 0.5, 1.0, 1.0)
    assert (rep.ops, rep.q, rep.wick_vev, rep.fock_vev) == (ops, 0.5, 1.0, 1)
    assert rep.passed and rep.abs_diff == 0.0
    kw = wick.WickReport(ops=ops, q=0.5, wick_vev=1.0, fock_vev=1.0)
    assert kw == rep == verify_wick(ops, 0.5)
    assert not kw != rep
    assert rep != wick.WickReport(ops, 0.5, 1.0, 0.5)
    assert rep.__eq__((ops, 0.5, 1.0, 1.0)) is NotImplemented
    with pytest.raises(TypeError):
        hash(rep)
    assert repr(rep) == ("WickReport(ops=(a0, a0+), q=0.5, wick_vev=1.0, "
                         "fock_vev=1.0)")
    assert repr(verify_wick(ops, 0.5)) == repr(rep)


def test_normal_order_two_ops():
    q = 0.7
    nf = normal_order((a(0), a_dag(0)), q)
    assert nf.coefficient((a_dag(0), a(0))) == pytest.approx(q)
    assert nf.vacuum_projection() == pytest.approx(1.0)
    assert len(nf.terms) == 2


def test_normal_order_already_normal():
    nf = normal_order((a_dag(0), a(0)), 0.7)
    assert nf.terms == {(a_dag(0), a(0)): q_power(0)}


def test_normal_order_four_ops_oracle_confirmed():
    # a a adag adag -> q^4 [adag adag a a] + q(1+q)^2 [adag a] + (1+q) []
    # (coefficients confirmed against the Fock oracle; at q=1 this is the
    # textbook bosonic result with coefficients 1, 4, 2)
    ops = (a(0), a(0), a_dag(0), a_dag(0))
    for q in (0.3, 1.0, -0.5):
        nf = normal_order(ops, q)
        assert nf.coefficient((a_dag(0), a_dag(0), a(0), a(0))) == pytest.approx(q ** 4)
        assert nf.coefficient((a_dag(0), a(0))) == pytest.approx(q * (1 + q) ** 2)
        assert nf.vacuum_projection() == pytest.approx(1 + q)


@pytest.mark.parametrize("q", Q_VALUES)
def test_normal_order_matches_string_action_on_states(q):
    # evaluating the normal form on any state reproduces the raw string
    ops = (a(0), a_dag(0), a(0), a(1), a_dag(1), a_dag(0))
    nf = normal_order(ops, q)
    seed, amp = apply_string([a_dag(0), a_dag(1)], {}, q)
    assert amp == 1.0
    direct = apply_string(ops, seed, q)
    direct = {} if direct is None else {tuple(sorted(direct[0].items())):
                                        direct[1]}
    via_nf = apply_normal_form(nf, seed)
    for s in set(direct) | set(via_nf):
        assert via_nf.get(s, 0.0) == pytest.approx(direct.get(s, 0.0),
                                                   abs=1e-10)


def test_normal_order_idempotent():
    nf = normal_order((a(0), a(0), a_dag(0), a_dag(0)), 0.8)
    for term in nf.terms:
        assert is_normal_ordered(term)
        again = normal_order(term, 0.8)
        assert again.terms == {term: q_power(0)}


def test_normal_order_length_bound():
    too_long = tuple(a(0) for _ in range(wick.MAX_STRING_LEN + 1))
    with pytest.raises(ValueError):
        normal_order(too_long, 0.5)
    with pytest.raises(ValueError):
        wick_expand(too_long, 0.5)


def test_normal_order_matches_reference_rewriter():
    strings = [ops for length in range(9)
               for ops in all_single_mode_strings(length)]
    strings += [ops for length in range(1, 6)
                for ops in all_two_mode_strings(length)]
    for ops in strings:
        assert normal_order(ops, 0.5).terms == canonical(
            reference_normal_order(ops)), ops


def clear_memo():
    wick._label_form.cache_clear()
    wick._coefficients.cache_clear()


def memo_size():
    return wick._label_form.cache_info().currsize


def test_normal_order_matches_heap_rewriter():
    # each one-label string twice, from an empty memo: the first call
    # fills it (where no earlier string filled the core) and the second
    # reads it
    clear_memo()
    for length in range(9, 13):
        for ops in all_single_mode_strings(length):
            want = canonical(heap_normal_order(ops))
            assert normal_order(ops, 0.5).terms == want, ops
            assert normal_order(ops, 0.5).terms == want, ops
    strings = list(all_two_mode_strings(6))
    rng = random.Random(2024)
    choices = (a(0), a_dag(0), a(1), a_dag(1), b(0), b_dag(0))
    strings += [tuple(rng.choice(choices) for _ in range(rng.randint(7, 12)))
                for _ in range(500)]
    for ops in strings:
        assert normal_order(ops, 0.5).terms == canonical(
            heap_normal_order(ops)), ops


def test_normal_order_memo_is_bounded_and_shares_no_qpoly():
    # A core runs from an annihilator to a creator, so at most
    # 2^(MAX_STRING_LEN - 1) - 1 of them exist, whatever ran before.
    for length in range(wick.MAX_STRING_LEN + 1):
        for ops in all_single_mode_strings(length):
            first, second = normal_order(ops, 0.5), normal_order(ops, 0.5)
            assert first.terms == second.terms and first is not second
            assert not ({id(p) for p in first.terms.values()}
                        & {id(p) for p in second.terms.values()}), ops
    assert memo_size() <= 2 ** (wick.MAX_STRING_LEN - 1) - 1


def test_leading_creators_and_trailing_annihilators_keep_the_coefficients():
    def by_contractions(ops):
        return {(len(ops) - len(key)) // 2: poly
                for key, poly in normal_order(ops, 0.5).terms.items()}

    for length in range(7):
        for core in all_single_mode_strings(length):
            want = by_contractions(core)
            for lead, trail in product(range(4), repeat=2):
                ops = (a_dag(0),) * lead + core + (a(0),) * trail
                assert by_contractions(ops) == want, ops


def test_refused_calls_leave_the_memo_as_it_was():
    # each string's core is new to the emptied memo, and each call is
    # refused before any lookup
    clear_memo()
    square = (a(0), a(0), a_dag(0), a_dag(0))  # <2>_q < 0 below q = -1
    refused = (((a(0), a_dag(0)), math.nan, NonFiniteInputError),
               ((a(0), a_dag(0), a(0), a_dag(0)) * 3 + (a(0),), 0.5,
                ValueError),
               (square, -2.0, NegativeNormError))
    for ops, q, error in refused:
        with pytest.raises(error):
            normal_order(ops, q)
        assert memo_size() == 0
        assert wick._coefficients.cache_info().currsize == 0
    normal_order(square, 0.5)
    assert memo_size() == 1


def test_normal_order_has_one_key_per_operator():
    # Labels commute, so an operator may be written in many orders: each
    # has one key, in canonical order, holding the whole of its
    # coefficient.  Every string over two labels up to length 8 (87,381).
    # Swapping the labels maps a string's rewriting onto its mirror's step
    # for step, so the heap rewriter runs on the strings that start with
    # label 0, and its result, relabeled, stands for their mirrors'.
    assert math.factorial(wick.MAX_STRING_LEN) < 2 ** 32  # no field carries
    choices = (a(0), a_dag(0), a(1), a_dag(1))
    swap = dict(zip(choices, (a(1), a_dag(1), a(0), a_dag(0)))).__getitem__
    assert normal_order((), 0.5).terms == heap_normal_order(()) == {
        (): QPoly((1,))}
    for length in range(1, 9):
        for rest in product(choices, repeat=length - 1):
            for ops in ((a(0),) + rest, (a_dag(0),) + rest):
                terms = heap_normal_order(ops)
                mirrored = {tuple(map(swap, key)): poly
                            for key, poly in terms.items()}
                for s, t in ((ops, terms), (tuple(map(swap, ops)), mirrored)):
                    assert normal_order(s, 0.5).terms == canonical(t), s


def test_coefficient_takes_any_order_of_a_normal_ordered_operator():
    # a0 a0+ a1+ a0+ = 1.5 a0+ a1+ + 0.25 a0+ a0+ a1+ a0 at q = 0.5
    nf = normal_order((a(0), a_dag(0), a_dag(1), a_dag(0)), 0.5)
    assert nf.terms == {(a_dag(0), a_dag(1)): QPoly((1, 1)),
                        (a_dag(0), a_dag(0), a_dag(1), a(0)): q_power(2)}
    assert nf.coefficient((a_dag(0), a_dag(1))) == 1.5
    assert nf.coefficient((a_dag(1), a_dag(0))) == 1.5
    assert nf.coefficient((a_dag(0), a_dag(0), a(0), a_dag(1))) == 0.25
    assert nf.coefficient((a_dag(1), a_dag(0), a_dag(0), a(0))) == 0.25
    # a0 left of an a0+ is not normal-ordered, whatever stands between
    assert nf.coefficient((a_dag(0), a(0), a_dag(1), a_dag(0))) == 0.0
    assert nf.coefficient((a_dag(0), a(0), a_dag(0), a_dag(1))) == 0.0
    assert nf.coefficient((a_dag(1),)) == 0.0


@pytest.mark.parametrize("n", range(7))
def test_normal_order_closed_form(n):
    # a^n adag^n = sum_k q^((n-k)^2) [n, k]_q^2 [k]_q! adag^(n-k) a^(n-k);
    # at n = 6 its coefficients are the largest below the length cap.
    want = {}
    for k in range(n + 1):
        poly = [0] * (n - k) ** 2 + [1]
        for _ in range(2):
            poly = poly_mul(poly, q_binomial(n, k))
        for j in range(1, k + 1):
            poly = poly_mul(poly, q_integer(j))
        want[(a_dag(0),) * (n - k) + (a(0),) * (n - k)] = QPoly(poly)
    assert normal_order((a(0),) * n + (a_dag(0),) * n, 0.5).terms == want


def test_normal_order_coefficients_are_integers():
    for length in range(9):
        for ops in all_single_mode_strings(length):
            for poly in normal_order(ops, 0.5).terms.values():
                assert all(type(c) is int for c in poly.coeffs), ops


def test_wick_vev_matches_diagram_sum():
    # crossings and pair values do not depend on q: expand once per string
    strings = [ops for length in range(1, 11)
               for ops in all_single_mode_strings(length)]
    strings += [ops for length in range(1, 7)
                for ops in all_two_mode_strings(length)]
    for ops in strings:
        full = [(d.pair_value, d.crossings)
                for d in wick_expand(ops, 0.5) if d.is_full and d.pair_value]
        for q in (-1.0, -0.5, 0.0, 0.3, 1.0, 1.2):
            want = sum(v * q ** c for v, c in full)
            assert wick_vev(ops, q) == pytest.approx(want, rel=1e-12,
                                                     abs=1e-12), (ops, q)


def test_fock_vev_takes_any_length():
    # the oracle is linear in the length: <a^20 adag^20> = [20]_q! =
    # 302,816.554..., with [j]_q = (2^j - 1)/2^(j-1) at q = 1/2
    ops = (a(0),) * 20 + (a_dag(0),) * 20
    exact = prod(Fraction(2 ** j - 1, 2 ** (j - 1)) for j in range(1, 21))
    assert wick_vev(ops, 0.5) == pytest.approx(exact, rel=1e-12)
    assert vev(ops, 0.5) == pytest.approx(wick_vev(ops, 0.5), rel=1e-12)


@pytest.mark.parametrize("q", [-1.5, -2.0])
def test_wick_vev_shares_fock_domain(q):
    # below q = -1 even levels have <h>_q < 0: wick_vev and normal_order
    # both raise or agree with the oracle
    for length in range(1, 9):
        for ops in all_single_mode_strings(length):
            try:
                want = vev(ops, q)
            except NegativeNormError:
                with pytest.raises(NegativeNormError):
                    wick_vev(ops, q)
                with pytest.raises(NegativeNormError):
                    normal_order(ops, q)
                continue
            assert wick_vev(ops, q) == pytest.approx(want, rel=1e-12,
                                                     abs=1e-12), ops
            assert normal_order(ops, q).vacuum_projection() == pytest.approx(
                want, rel=1e-12, abs=1e-12), ops


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("q", [-0.7, 0.3, 1.5])
def test_wick_vev_touchard_riordan(n, q):
    # Sum over all words of length 2n (past the rewriters' length cap) is
    # the Touchard-Riordan moment; near q = 1 the closed form cancels.
    total = sum(wick_vev(ops, q) for ops in all_single_mode_strings(2 * n))
    want = (1 - q) ** -n * sum((-1) ** k * q ** (k * (k - 1) // 2)
                               * comb(2 * n, n + k) for k in range(-n, n + 1))
    assert total == pytest.approx(want, rel=1e-12)


def test_wick_expand_matches_reference():
    strings = [ops for length in range(9)
               for ops in all_single_mode_strings(length)]
    strings += [ops for length in range(7)
                for ops in all_two_mode_strings(length)]
    rng = random.Random(11)
    choices = (a(0), a_dag(0), a(1), a_dag(1), b(0), b_dag(0))
    strings += [tuple(rng.choice(choices) for _ in range(rng.randint(1, 10)))
                for _ in range(300)]
    for ops in strings:
        assert wick_expand(ops, 0.5) == reference_wick_expand(ops, 0.5), ops


def test_wick_expand_examples():
    q = 0.3
    # [a, adag, a, adag]: one surviving full contraction
    diagrams = wick_expand((a(0), a_dag(0), a(0), a_dag(0)), q)
    full = [d for d in diagrams if d.is_full]
    by_pairs = {d.pairs: d for d in full}
    assert by_pairs[((0, 1), (2, 3))].coefficient == pytest.approx(1.0)
    assert by_pairs[((0, 3), (1, 2))].coefficient == 0.0  # <adag a> pairing
    assert wick_vev((a(0), a_dag(0), a(0), a_dag(0)), q) == pytest.approx(1.0)

    # [a, a, adag, adag]: nested 1 + crossed q
    diagrams = wick_expand((a(0), a(0), a_dag(0), a_dag(0)), q)
    by_pairs = {d.pairs: d for d in diagrams if d.is_full}
    assert by_pairs[((0, 3), (1, 2))].crossings == 0
    assert by_pairs[((0, 3), (1, 2))].coefficient == pytest.approx(1.0)
    assert by_pairs[((0, 2), (1, 3))].crossings == 1
    assert by_pairs[((0, 2), (1, 3))].coefficient == pytest.approx(q)
    assert wick_vev((a(0), a(0), a_dag(0), a_dag(0)), q) == pytest.approx(1 + q)

    # [adag, a]: no valid full contraction
    assert wick_vev((a_dag(0), a(0)), q) == 0.0


def test_wick_expand_includes_no_pairing_diagram():
    diagrams = wick_expand((a(0), a_dag(0)), 0.5)
    empty = [d for d in diagrams if not d.pairs]
    assert len(empty) == 1
    assert empty[0].coefficient == pytest.approx(1.0)
    assert empty[0].unpaired == (0, 1)


def test_statistics_reduction_exact_integers():
    # q=1: all surviving coefficients exactly +1; q=-1: (-1)^crossings
    for ops in all_single_mode_strings(6):
        for d in wick_expand(ops, 1.0):
            if d.pair_value:
                assert d.coefficient == 1.0
        for d in wick_expand(ops, -1.0):
            if d.pair_value:
                assert d.coefficient == (-1.0) ** d.crossings


@pytest.mark.parametrize("q", Q_VALUES)
def test_oracle_equivalence_single_mode(q):
    for length in range(1, 7):
        for ops in all_single_mode_strings(length):
            rep = verify_wick(ops, q)
            assert rep.passed, (ops, q, rep.abs_diff)
            nf_vev = normal_order(ops, q).vacuum_projection()
            assert abs(nf_vev - rep.fock_vev) <= 1e-9 * max(1.0, abs(rep.fock_vev))


@pytest.mark.parametrize("q", [-0.5, 0.3, 1.2])
def test_oracle_equivalence_two_modes(q):
    for length in range(1, 5):
        for ops in all_two_mode_strings(length):
            rep = verify_wick(ops, q)
            assert rep.passed, (ops, q, rep.abs_diff)


def test_pauli_blocking_at_minus_one():
    rep = verify_wick((a(0), a(0), a_dag(0), a_dag(0)), -1.0)
    assert rep.fock_vev == pytest.approx(0.0, abs=1e-12)
    assert rep.wick_vev == pytest.approx(0.0, abs=1e-12)


def test_negative_norms_refused_by_all_three_engines_up_to_minus_one():
    # <2>_q = 1 + q < 0 for every float q < -1, down to the last one
    ops = (a(0), a(0), a_dag(0), a_dag(0))
    for k in range(1, 53):
        q = -1.0 - 2.0 ** -k
        for engine in (vev, wick_vev, normal_order, verify_wick):
            with pytest.raises(NegativeNormError):
                engine(ops, q)
    # at q = -1 itself <2>_q = 0: Pauli blocking, an exact 0 in all three
    assert vev(ops, -1.0) == 0.0 and wick_vev(ops, -1.0) == 0.0
    assert normal_order(ops, -1.0).vacuum_projection() == 0.0


def test_wick_report_has_no_absolute_floor():
    # both engines are exactly 0 on the same strings, so a value against
    # an exact 0, however small, is a failure
    ops = (a(0), a(0), a_dag(0), a_dag(0))
    q = -1.0 + 2.0 ** -40
    assert not WickReport(ops, q, 0.0, 8.27e-25).passed
    assert not WickReport(ops, q, 8.27e-25, 0.0).passed
    assert WickReport(ops, q, 0.0, 0.0).passed
    rep = verify_wick(ops, q)
    assert rep.passed and rep.fock_vev == pytest.approx(2.0 ** -40, rel=1e-15)


# -1 approached from below to the last float, -1 itself, -1 approached
# from above, far below it, ordinary q, large q where weights and products
# overflow, and 0 and 1 approached from both sides (down to +-5e-324 and
# 1 +- 2^-52), where <h>_q tends to 1 and to h
Q_EDGES = ([-1.0 - 2.0 ** -k for k in range(1, 53)]
           + [-1.0 + m * 2.0 ** -k for m in (0.7, 0.9137)
              for k in (3, 10, 20, 30, 40, 52)]
           + [-1.0, -1e300, 0.3, 1.2, 2.0, 1e155, 1e300]
           + [s * m * 2.0 ** -k for s in (1.0, -1.0) for m in (0.7, 0.9137)
              for k in (3, 10, 20, 30, 40, 52, 200, 1000)]
           + [1.0 + s * m * 2.0 ** -k for s in (1.0, -1.0)
              for m in (0.7, 0.9137) for k in (3, 10, 20, 30, 40, 52)]
           + [0.0, 1.0, 5e-324, -5e-324])


def outcome(engine, ops, q):
    """engine(ops, q), or the type of the QFieldError it raises."""
    try:
        return engine(ops, q)
    except QFieldError as exc:
        return type(exc)


def vacuum_projection(ops, q):
    return normal_order(ops, q).vacuum_projection()


def test_three_engines_agree_at_and_below_minus_one():
    strings = [ops for n in range(7) for ops in all_single_mode_strings(n)]
    strings += [ops for n in range(1, 6) for ops in all_two_mode_strings(n)]
    rng = random.Random(25)
    for _ in range(150):
        choices = (a(0), a_dag(0), a(1), a_dag(1))[:rng.choice((2, 4))]
        strings.append(tuple(rng.choice(choices)
                             for _ in range(rng.randint(7, 12))))
    cases = [(ops, Q_EDGES) for ops in strings]
    # at large q a level weight can overflow on a walk whose VEV is 0: a
    # height is left above 0, or an annihilator meets height 0
    rng = random.Random(7)
    for _ in range(2000):
        labels = rng.choice((1, 2))
        cases.append((tuple((a_dag if rng.random() < 0.5 else a)(
            rng.randrange(labels)) for _ in range(rng.randint(2, 12))),
            (1e155, 1e300)))
    for ops, qs in cases:
        # the normal form's terms do not depend on q, only its value does
        terms = normal_order(ops, 0.3).terms
        for q in qs:
            want = outcome(vev, ops, q)
            got = outcome(wick_vev, ops, q)
            if isinstance(want, type) or isinstance(got, type):
                assert got is want, (ops, q, got, want)
                nf = outcome(vacuum_projection, ops, q)
                assert nf is want, (ops, q, nf, want)
                continue
            assert abs(got - want) <= 1e-12 * abs(want), (ops, q, got, want)
            nf = wick.NormalForm(terms, q).vacuum_projection()
            assert abs(nf - want) <= 1e-12 * abs(want), (ops, q, nf, want)


def reaches_height(ops, label, height):
    """Whether label reaches height in the right-to-left walk before an
    annihilator meets an empty label (which ends it at 0)."""
    heights = {}
    for op in reversed(ops):
        h = heights.get(op.label, 0) + (1 if op.is_creator else -1)
        if h < 0:
            return False
        if op.label == label and h >= height:
            return True
        heights[op.label] = h
    return False


def dyck_string(rng, length, label):
    """A random string of one label, of even length, whose walk returns to
    the vacuum: its VEV is not 0."""
    ops, h = [], 0
    for left in range(length, 0, -1):  # built right to left
        up = h == 0 or (h < left and rng.random() < 0.5)
        h += 1 if up else -1
        ops.append(a_dag(label) if up else a(label))
    return ops[::-1]


def test_fock_and_wick_agree_past_height_16_and_32_operators():
    # the oracle has no cap on height or length: it and wick_vev give the
    # same value or raise the same typed error where a label passes height
    # 16 within 32 operators (a VEV of 0, or a weight that overflows on the
    # way) ...
    rng = random.Random(28)
    cases = []
    while len(cases) < 120:
        tokens = [op for m in range(rng.randint(1, 3))
                  for op in (a(m), a_dag(m))]
        block = [a_dag(0)] * rng.randint(17, 28)
        right = [rng.choice(tokens)
                 for _ in range(rng.randint(0, 32 - len(block)))]
        left = [rng.choice(tokens)
                for _ in range(rng.randint(0, 32 - len(block) - len(right)))]
        ops = tuple(left + block + right)
        if reaches_height(ops, a(0).label, 17):
            cases += [(ops, q) for q in (0.5, 2.0, 1e10, 1e20, 1e155, 1e300)]
    # ... and on strings of 33-200 operators on one and on two labels: most
    # with a VEV that is not 0, some with one operator changed or dropped
    for _ in range(40):
        length = 2 * rng.randint(17, 100)
        if rng.random() < 0.5:
            ops = dyck_string(rng, length, 0)
        else:  # two labels, interleaved at random
            other = dyck_string(rng, 2 * rng.randint(1, length // 2 - 1), 1)
            main = iter(dyck_string(rng, length - len(other), 0))
            at, other = set(rng.sample(range(length), len(other))), iter(other)
            ops = [next(other if i in at else main) for i in range(length)]
        if rng.random() < 0.25:
            ops[rng.randrange(length)] = rng.choice((a(0), a_dag(0), a(1)))
        if rng.random() < 0.25:
            del ops[rng.randrange(length)]
        cases += [(tuple(ops), q) for q in (-2.0, -1.0, -0.999, -0.5, 0.0, 0.5,
                                            0.9, 1.0, 1.2, 2.0, 1e10, 1e20)]
    for ops, q in cases:
        want = outcome(vev, ops, q)
        got = outcome(wick_vev, ops, q)
        if isinstance(want, type) or isinstance(got, type):
            assert got is want, (ops, q, got, want)
        else:
            assert abs(got - want) <= 1e-9 * abs(want), (ops, q, got, want)


STRING, F1 = (a(0), a(0), a_dag(0), a_dag(0)), (a(0),)
NON_FINITE_CALLS = {
    "normal_order": lambda x: normal_order(STRING, x),
    "wick_expand": lambda x: wick_expand(STRING, x),
    "wick_vev": lambda x: wick_vev(STRING, x),
    "wick_vev_empty": lambda x: wick_vev((), x),
    "wick_vev_unpaired": lambda x: wick_vev(F1, x),
    "qpoly_call": lambda x: QPoly((1,))(x),
    "normal_form_value": lambda x: wick.NormalForm(
        normal_order(STRING, 0.5).terms, x).vacuum_projection(),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(),
                         ids=NON_FINITE_CALLS.keys())
def test_non_finite_q_or_time_raises(call, bad):
    # as fock.vev does, rather than a nan, inf or q-independent value
    with pytest.raises(NonFiniteInputError):
        call(bad)


def test_deterministic_diagram_order():
    ops = (a(0), a(0), a_dag(0), a_dag(0))
    first = [d.pairs for d in wick_expand(ops, 0.3)]
    second = [d.pairs for d in wick_expand(ops, 0.3)]
    assert first == second == sorted(first)


def test_wick_vev_height_overflow_is_typed():
    ops = (a(0),) * 1030 + (a_dag(0),) * 1030
    with pytest.raises(NumericOverflowError):
        wick_vev(ops, 2.0)


def test_wick_vev_product_overflow_is_typed():
    # every <h>_q is finite up to h = 300; their product is not
    ops = (a(0),) * 300 + (a_dag(0),) * 300
    with pytest.raises(NumericOverflowError):
        wick_vev(ops, 2.0)


def test_wick_vev_of_long_strings_is_the_q_factorial():
    # a^n adag^n has the VEV [n]_q! = prod_k [k]_q, [k]_q = 1 + ... + q^(k-1),
    # taken as a running mpmath product at 200 bits.  fock.vev forms it
    # with, per operator, one basic_number (within 4 eps, halved by the
    # root), one square root (eps) and one product (eps/2): 2n operators
    # at u = 3.5 eps each give (1 + u)^2n - 1 <= 2nu (1 + 2nu)
    mp = pytest.importorskip("mpmath")
    eps, ns = 2.0 ** -52, (1, 2, 5, 17, 33, 100, 500, 1000, 3000, 10 ** 4)
    for q in (-1.0, -0.999, -0.9, -0.5, 0.0, 0.5, 0.9, 0.999999, 1.0, 1.0001,
              1.01, 2.0):
        with mp.workprec(200):
            power, basic, exact = mp.mpf(1), mp.mpf(0), mp.mpf(1)
            for k in range(1, ns[-1] + 1):
                basic += power
                power *= q
                exact *= basic
                if abs(exact) > sys.float_info.max and q >= 0.0:
                    # every [k]_q >= 1 at q >= 0: the product only grows
                    break
                if k not in ns:
                    continue
                ops = (a(0),) * k + (a_dag(0),) * k
                got = wick_vev(ops, q)
                if abs(exact) >= sys.float_info.min:
                    assert abs(got - exact) <= 4 * k * eps * abs(exact), (
                        k, q, got, exact)
                    err = 2 * k * 3.5 * eps
                    got = vev(ops, q)
                    assert abs(got - exact) <= err * (1 + err) * abs(exact), (
                        k, q, got, exact)
                else:  # 0, or so far below the float range that it rounds to 0
                    assert got == float(exact), (k, q, got, exact)
        if abs(exact) > sys.float_info.max:  # [n]_q! overflows for all n >= k
            for n in (n for n in ns if n >= k):
                ops = (a(0),) * n + (a_dag(0),) * n
                for engine in (wick_vev, vev):
                    with pytest.raises(NumericOverflowError):
                        engine(ops, q)
