"""q-deformed Wick machinery: normal ordering, vacuum values, pairing oracle.

Everything follows from the defining relation

    a adag -> q adag a + 1        (same label)
    a adag -> adag a              (distinct labels, factor 1)

along three paths:

* Rewrite (``normal_order``): labels commute at factor 1, so the normal
  form is the product of each label's own, built in one right-to-left
  sweep by a adag^j = q^j adag^j a + [j]_q adag^(j-1) (its coefficients
  are q-rook numbers, Varvak 2005).  Each operator has one key: its
  creators, then its annihilators, each ordered by ``ModeLabel``.  The
  coefficients are integer polynomials in q, packed in 32-bit fields of
  one int while they are built and unpacked to a ``QPoly``, a tuple of
  ints, whose value at a float q is the exact sum rounded once.  A
  label's packed coefficients depend only on its core, the kinds from
  its first annihilator to its last creator, and the sweep is memoized
  on it: under ``MAX_STRING_LEN`` at most 2^11 - 1 = 2,047 cores exist,
  so the memo is bounded with no size limit, and its values are tuples
  of ints that cannot be changed.  Lifting the length cap (ROADMAP item
  6) must keep the memo bounded.
* Path product (``wick_vev``): read right to left, the string is a
  lattice path per label.  A creator steps its label's height up; an
  annihilator steps it down from height h and contributes the level
  weight <h>_q, the sum of q^(crossings) over the h arcs it may close.
  The crossing sum over all diagrams is therefore the product of these
  weights (the Motzkin-path form of the sum, Flajolet 1980): linear in
  the string length, with no diagram built.
* Enumeration oracle (``wick_expand``): every pairing diagram, whose
  coefficient is q^(crossings) times the product of its pair values, where
  a pair <a adag> on one label is worth 1 and the reversed <adag a>
  pairing is worth 0.  Crossings and the pair value are counted as each
  pair is made, so a finished diagram is only recorded.  Summing the
  full-contraction diagrams gives the VEV again; the ``wick expand``
  command prints the diagrams, and the tests use the sum as the
  reference for the path product.

``verify_wick`` checks the path product against ``fock.vev``, which walks
the same heights with the same <h>_q: that checks rounding and the zero
set, not the algebra.  The independent references are ``normal_order``'s
polynomials, ``wick_expand``'s diagram sum, and the tests' heap rewriter
and 200-bit mpmath products.  Every path raises ``NonFiniteInputError``
for a nan or infinite q.
"""
from __future__ import annotations

import functools
import math
import struct
from operator import itemgetter
from typing import Dict, Iterable, List, Sequence, Tuple

from . import fock
from .errors import NumericOverflowError, Record, finite
from .fock import ANNIHILATE, CREATE, LadderOp, ModeLabel
from .qcore import _level_weight

OperatorString = Tuple[LadderOp, ...]

_KIND = itemgetter(0)  # a LadderOp's kind

# The longest string the two enumerators, normal_order and wick_expand,
# accept: their output can grow exponentially with the length.  wick_vev
# and fock.vev are linear in it and take any length.
MAX_STRING_LEN = 12

# _RUN[r] = [r]_q = 1 + q + ... + q^(r-1) packed as in _label_form: its
# value (q^r - 1)/(q - 1) at q = 2^32.
_RUN = [((1 << 32 * r) - 1) // 0xFFFFFFFF for r in range(MAX_STRING_LEN + 1)]

# _UNPACK[n] unpacks the n 32-bit fields of a packed coefficient.  A
# coefficient's degree counts (annihilator, creator) pairs that an
# annihilator passed, at most (MAX_STRING_LEN // 2)^2 of them.
_UNPACK = [struct.Struct(f"<{n}I").unpack
           for n in range((MAX_STRING_LEN // 2) ** 2 + 2)]


def _capped(ops: Sequence[LadderOp]) -> OperatorString:
    ops = tuple(ops)
    if len(ops) > MAX_STRING_LEN:
        raise ValueError(f"string length {len(ops)} exceeds {MAX_STRING_LEN}")
    return ops


class QPoly:
    """Polynomial in q with integer coefficients: ``coeffs[e]`` is the
    coefficient of q^e, and the last one is nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = tuple(coeffs)

    def __call__(self, q: float) -> float:
        """The value at q, correctly rounded: with q = n / 2^s exactly, it
        is N / 2^(s(D+1)) for the integer N = sum_e c_e n^e 2^(s(D+1-e)),
        D the degree, and CPython rounds an int / int division correctly."""
        n, d = float(finite(q, "q")).as_integer_ratio()  # d = 2^s
        s = d.bit_length() - 1
        numerator = 0
        for k, c in enumerate(reversed(self.coeffs), 1):  # Horner
            numerator = numerator * n + (c << s * k)
        try:
            return numerator / (1 << s * len(self.coeffs))
        except OverflowError:
            raise NumericOverflowError(
                f"a coefficient overflows at q={q}") from None

    def pure_power(self) -> int | None:
        """The exponent if this is a single power of q with unit weight."""
        if self.coeffs[-1:] == (1,) and not any(self.coeffs[:-1]):
            return len(self.coeffs) - 1
        return None

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return " + ".join(f"{c}*q^{e}" for e, c in enumerate(self.coeffs)
                          if c) or "0"


class NormalForm(Record):
    """Sum of normal-ordered strings with polynomial-in-q coefficients.

    ``terms`` maps each normal-ordered operator, keyed as ``normal_order``
    states, to its coefficient; ``q`` is the working value the evaluated
    ``coefficient`` numbers refer to.
    """

    __slots__ = _fields = ("terms", "q")

    def __init__(self, terms: Dict[OperatorString, QPoly], q: float):
        self.terms = terms
        self.q = q

    def coefficient(self, ops: Sequence[LadderOp]) -> float:
        """The value at ``q`` of the coefficient of ``ops``, in any order
        that keeps each label's creators left of its annihilators (labels
        commute); 0.0 for any other order, as for an operator not here."""
        annihilated = set()
        for kind, label in ops:
            if kind != CREATE:
                annihilated.add(label)
            elif label in annihilated:
                return 0.0
        key = tuple(sorted(ops, key=lambda op: (op[0] != CREATE, op[1])))
        poly = self.terms.get(key)
        return poly(self.q) if poly is not None else 0.0

    def vacuum_projection(self) -> float:
        """Amplitude of the identity term: the string's VEV."""
        return self.coefficient(())


def normal_order(ops: Sequence[LadderOp], q: float) -> NormalForm:
    """Rewrite an operator product into normal-ordered form.

    Labels commute, so the form is the product of the normal forms of
    each label's subsequence.  One right-to-left sweep per label keeps the
    form of the suffix read so far; a prepended annihilator moves through
    its c creators by a adag^c = q^c adag^c a + [c]_q adag^(c-1).  No redex
    (annihilator, creator) overlaps another, so every rewriting order
    reaches this normal form.  Each operator has one key: its creators,
    then its annihilators, each ordered by ``ModeLabel``, as the input's
    own ``LadderOp`` objects.

    The sweep is memoized on the label's core kinds (see ``_label_form``),
    and a one-label string's coefficient tuples on the packed ints the
    sweep returns; a product over several labels is unpacked on every
    call.  Every call builds its own ``QPoly`` and ``NormalForm`` objects
    around the memo's tuples, which cannot be changed.  The q check, the
    length cap and the negative-norm check come before any lookup, so a
    refused call leaves the memo as it was.

    The terms are exact integer polynomials in q; the returned
    ``NormalForm`` rounds each once at the working value ``q``.  Below
    q = -1 the algebra has negative norms: there the string raises
    ``NegativeNormError`` exactly where ``wick_vev`` and ``fock.vev`` do.
    """
    finite(q, "q")
    ops = _capped(ops)
    if q < -1.0:
        wick_vev(ops, q)  # for its NegativeNormError; the value is unused
    strings: Dict[ModeLabel, List[LadderOp]] = {}
    for op in ops:
        strings.setdefault(op[1], []).append(op)
    parts = [_label_terms(strings[label]) for label in sorted(strings)]
    if len(parts) == 1:
        return NormalForm({c + d: QPoly(_coefficients(v))
                           for c, d, v in parts[0]}, q)
    terms = parts[0] if parts else [((), (), 1)]
    for part in parts[1:]:
        # packed coefficients multiply as ints: each product coefficient
        # still counts contraction patterns, so no field carries
        terms = [(c + c2, d + d2, v * v2) for c, d, v in terms
                 for c2, d2, v2 in part]
    return NormalForm({c + d: QPoly(_unpack(v)) for c, d, v in terms}, q)


def _unpack(v: int) -> Tuple[int, ...]:
    """The coefficients of a packed coefficient v, lowest power first: v
    fills n = ceil(bits / 32) fields, its top one nonzero, and one struct
    call unpacks them."""
    n = (v.bit_length() + 31) >> 5
    return _UNPACK[n](v.to_bytes(4 * n, "little"))


# The one-label memo: keyed on the packed ints that _label_form returns,
# so it holds no more entries than that memo's values.
_coefficients = functools.cache(_unpack)

# Each distinct packed int that _label_form returns, stored once however
# many cores share it.
_PACKED: Dict[int, int] = {}


def _label_terms(string: List[LadderOp]) -> List[Tuple[tuple, tuple, int]]:
    """The normal form of one label's string as (creators, annihilators,
    packed coefficient) terms, term k the one with k contractions.

    Leading creators and trailing annihilators stay where they are, so
    only the core between the first annihilator and the last creator is
    swept; a string with no such core is already normal-ordered."""
    kinds = tuple(map(_KIND, string))
    annihilators = kinds.count(ANNIHILATE)
    creators = len(kinds) - annihilators
    first = kinds.index(ANNIHILATE) if annihilators else len(kinds)
    last = len(kinds) - kinds[::-1].index(CREATE) if creators else 0
    forms = _label_form(kinds[first:last]) if first < last else (1,)
    creator = string[last - 1] if creators else None
    annihilator = string[first] if annihilators else None
    return [((creator,) * (creators - k), (annihilator,) * (annihilators - k),
             v) for k, v in enumerate(forms)]


@functools.cache
def _label_form(core: Tuple[str, ...]) -> Tuple[int, ...]:
    """The packed coefficients of the normal form of one label's core,
    the kinds from its first annihilator to its last creator: entry k is
    the coefficient of the term with k contractions.

    A coefficient is packed into one int, the coefficient of q^e in the
    32-bit field e: multiplying by q^t is a shift and adding is +.  Each
    counts contraction patterns of the string, at most T(n) <= n! < 2^32
    for n <= MAX_STRING_LEN (T(n) the number of involutions), so no field
    carries into the next.

    Memoized on the core: a core starts with an annihilator and ends with
    a creator, so under MAX_STRING_LEN = 12 there are at most 2^11 - 1 =
    2,047 of them, and the memo needs no size limit.  Its values are
    tuples of ints, which cannot be changed.  Lifting the length cap
    (fields sized per call) must keep this memo bounded.
    """
    forms = [1]  # forms[k]: term k's coefficient in the suffix read so far
    creators = 0
    for kind in reversed(core):
        if kind == CREATE:
            creators += 1
            continue
        # term k passes its c = creators - k creators at q^c, and term
        # k - 1 contracts with one of its c + 1 at [c + 1]_q
        c, u, passed = creators, 0, []
        for v in forms:
            passed.append((v << 32 * c) + u * _RUN[c + 1])
            u = v
            c -= 1
        if c >= 0:  # the old last term had a creator left to contract
            passed.append(u * _RUN[c + 1])
        forms = passed
    return tuple(_PACKED.setdefault(v, v) for v in forms)


class PairingDiagram(Record):
    """One term of the pairing expansion.

    ``pairs`` holds (i, j) index pairs with i < j joining two operators
    of the same label and opposite kinds; ``crossings`` counts the
    interleaved pair pairs i < k < j < l on a shared label (the only
    transpositions that cost a q); ``pair_value`` is the product
    of the individual pairings (1 for annihilator-before-creator, 0 for
    the reversed order); ``coefficient`` = q^crossings * pair_value.
    """

    __slots__ = _fields = ("pairs", "unpaired", "crossings", "pair_value",
                           "coefficient")

    def __init__(self, pairs: Tuple[Tuple[int, int], ...],
                 unpaired: Tuple[int, ...], crossings: int,
                 pair_value: float, coefficient: float):
        self.pairs = pairs
        self.unpaired = unpaired
        self.crossings = crossings
        self.pair_value = pair_value
        self.coefficient = coefficient

    @property
    def is_full(self) -> bool:
        return not self.unpaired


def wick_expand(ops: Sequence[LadderOp], q: float) -> List[PairingDiagram]:
    """Enumerate all pairing diagrams (including no pairings).

    Deterministic lexicographic diagram order.  NumericOverflowError where
    a weight q^crossings overflows.
    """
    finite(q, "q")
    ops = _capped(ops)
    # each operator as 2 * (label index) + is_creator: small ints compare
    # far faster than LadderOps
    labels: Dict[ModeLabel, int] = {}
    codes = [2 * labels.setdefault(label, len(labels)) + (kind == CREATE)
             for kind, label in ops]
    diagrams: List[PairingDiagram] = []

    def recurse(avail: tuple, pairs: tuple, free: tuple, crossings: int,
                value: float):
        # Each index is either left unpaired or paired while it is the
        # head of ``avail``, so every diagram is generated exactly once,
        # with its pairs and unpaired indices in increasing order.
        if not avail:
            diagrams.append(PairingDiagram(pairs, free, crossings, value,
                                           (q ** crossings) * value))
            return
        i, rest = avail[0], avail[1:]
        recurse(rest, pairs, free + (i,), crossings, value)
        label = codes[i] >> 1
        if codes[i] & 1:  # <adag a> pairing: worth 0
            value = 0.0
        for j in rest:
            if codes[j] != codes[i] ^ 1:  # same label, opposite kind
                continue
            # An earlier pair (k, l) has k < i, so it crosses (i, j) iff
            # i < l < j; only same-label interleavings carry a factor q.
            new = sum(1 for k, l in pairs
                      if i < l < j and codes[k] >> 1 == label)
            recurse(tuple(k for k in rest if k != j), pairs + ((i, j),),
                    free, crossings + new, value)

    try:
        recurse(tuple(range(len(ops))), (), (), 0, 1.0)
    except OverflowError:  # q ** crossings past the float range
        raise NumericOverflowError(f"q^crossings overflows at q={q}") from None
    diagrams.sort(key=lambda d: d.pairs)
    return diagrams


def wick_vev(ops: Sequence[LadderOp], q: float) -> float:
    """VEV as the product of level weights along the string's path.

    One right-to-left sweep keeps a height per label; an annihilator at
    height h contributes <h>_q (see the module docstring).  It equals the
    sum of full-contraction diagrams from ``wick_expand`` and takes time
    linear in the length, so no length cap applies.

    Raises ``NonFiniteInputError`` for a nan or infinite q, and
    ``NegativeNormError`` exactly where ``fock.vev`` does: where a creator
    takes a label to an even height h below q = -1, <h>_q < 0, before the
    value is known to be zero.  At q = -1 that weight is 0 and gives 0, as
    does an annihilator at height 0 or a height left above 0, even where a
    weight on the way overflows: such a weight is taken as inf, and it
    enters the product only where an annihilator closes its height.
    Raises ``NumericOverflowError`` where the product overflows.
    """
    finite(q, "q")
    height: Dict[ModeLabel, int] = {}
    # weights[h] = <h>_q, checked when first reached; <1>_q = (q - 1)/(q - 1)
    # is exactly 1.0 at every q, and neither check fires on it
    weights = [0.0, 1.0]
    value = 1.0
    for kind, label in reversed(tuple(ops)):
        h = height.get(label, 0)
        if kind == CREATE:
            h += 1
            if h == len(weights):
                # an inf weight is multiplied in only if h is closed again
                w = _level_weight(q, h)
                if w == 0.0:
                    return 0.0
                weights.append(w)
            height[label] = h
        elif h == 0:
            return 0.0
        else:
            value *= weights[h]
            height[label] = h - 1
    if any(height.values()):
        return 0.0
    # Every weight is > 0, so a product that reached inf stays inf.
    if math.isinf(value):
        raise NumericOverflowError(f"the path product overflows at q={q}")
    return value


class WickReport(Record):
    """``wick_vev`` against the ``fock_vev`` oracle for one string ``ops``
    at ``q``: ``passed`` within 1e-9 of |fock_vev|, exact zeros included."""

    __slots__ = _fields = ("ops", "q", "wick_vev", "fock_vev")

    def __init__(self, ops: OperatorString, q: float, wick_vev: float,
                 fock_vev: float):
        self.ops = ops
        self.q = q
        self.wick_vev = wick_vev
        self.fock_vev = fock_vev

    @property
    def abs_diff(self) -> float:
        return abs(self.wick_vev - self.fock_vev)

    @property
    def passed(self) -> bool:
        return self.abs_diff <= 1e-9 * abs(self.fock_vev)


def verify_wick(ops: Sequence[LadderOp], q: float) -> WickReport:
    """Compare the path-product VEV against the Fock-space oracle (not an
    independent check of the algebra: see the module docstring)."""
    ops = tuple(ops)
    return WickReport(ops, q, wick_vev(ops, q), fock.vev(ops, q))

