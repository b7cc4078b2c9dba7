"""q-deformed Fock space with exact ladder-operator action.

Two species (particle ``a``, antiparticle ``b``), a small set of discrete
modes standing in for the continuum (momentum, spin) label, and the
q-oscillator representation

    a|n> = sqrt(<n>_q) |n-1>,    adag|n> = sqrt(<n+1>_q) |n+1>

so that  a adag - q adag a = 1  holds on every basis state.  Operators
carrying distinct (species, mode) labels commute exactly; this is the
minimal consistent multimode convention and is what makes the brute-force
vacuum expectation values here a well-defined oracle for the Wick engine.

Charge conjugation swaps the two species with a unit phase epsilon.

``ModeLabel`` and ``LadderOp`` are named tuples, validated on
construction, so the dicts keyed on them hash and compare in C.  As
tuples they compare equal to a plain tuple of their fields
(``ModeLabel(PARTICLE, 0) == (PARTICLE, 0)``), and both are ordered
field by field.  ``StateVector`` is a mutable ``errors.Record``:
compared by value, unhashable.
"""
from __future__ import annotations

import cmath
from collections import namedtuple
from operator import index
from typing import Iterable, Sequence

from .errors import NegativeNormError, NumericOverflowError, Record, finite
from .qcore import basic_number

PARTICLE = "particle"
ANTIPARTICLE = "antiparticle"

ANNIHILATE = "annihilate"
CREATE = "create"


class ModeLabel(namedtuple("ModeLabel", "species mode")):
    """Discrete stand-in for the continuum (momentum, spin) label."""

    __slots__ = ()

    def __new__(cls, species: str, mode: int = 0):
        if species not in (PARTICLE, ANTIPARTICLE):
            raise ValueError(f"unknown species {species!r}")
        try:
            mode = index(mode)
        except TypeError:  # 1.5 or nan: as invalid as a negative index
            mode = -1
        if mode < 0:
            raise ValueError("mode index must be a nonnegative integer")
        return tuple.__new__(cls, (species, mode))

    @classmethod
    def _make(cls, iterable):  # validated, and so is _replace
        return cls(*iterable)


class LadderOp(namedtuple("LadderOp", "kind label")):
    __slots__ = ()

    def __new__(cls, kind: str, label: ModeLabel):
        if kind not in (ANNIHILATE, CREATE):
            raise ValueError(f"unknown kind {kind!r}")
        return tuple.__new__(cls, (kind, label))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def is_creator(self) -> bool:
        return self.kind == CREATE

    def __repr__(self):
        sym = "a" if self.label.species == PARTICLE else "b"
        dag = "+" if self.is_creator else ""
        return f"{sym}{self.label.mode}{dag}"


def a(mode: int = 0) -> LadderOp:
    return LadderOp(ANNIHILATE, ModeLabel(PARTICLE, mode))


def a_dag(mode: int = 0) -> LadderOp:
    return LadderOp(CREATE, ModeLabel(PARTICLE, mode))


def b(mode: int = 0) -> LadderOp:
    return LadderOp(ANNIHILATE, ModeLabel(ANTIPARTICLE, mode))


def b_dag(mode: int = 0) -> LadderOp:
    return LadderOp(CREATE, ModeLabel(ANTIPARTICLE, mode))


# A basis state is a sorted tuple of ((species, mode) label, occupation>0).
FockState = tuple


def _state_get(state: FockState, label: ModeLabel) -> int:
    for lab, n in state:
        if lab == label:
            return n
    return 0


def _state_set(state: FockState, label: ModeLabel, n: int) -> FockState:
    items = [(lab, occ) for lab, occ in state if lab != label]
    if n > 0:
        items.append((label, n))
    items.sort()
    return tuple(items)


VACUUM: FockState = ()


class StateVector(Record):
    """Complex linear combination of Fock basis states.

    Each vector gets its own ``terms`` dict unless one is passed.
    """

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {} if terms is None else terms

    @classmethod
    def vacuum(cls) -> "StateVector":
        return cls({VACUUM: 1.0 + 0.0j})

    def prune(self) -> "StateVector":
        """Drop the exact zeros only: a ladder operator maps a basis state
        to one basis state, so the vector cannot grow, and a tiny amplitude
        such as (1 + q)^2 near q = -1 is as exact as a large one."""
        self.terms = {s: c for s, c in self.terms.items() if c}
        return self

    def amplitude(self, state: FockState) -> complex:
        return self.terms.get(state, 0.0 + 0.0j)


def apply_ladder(op: LadderOp, v: StateVector, q: float) -> StateVector:
    """Apply one ladder operator to a state vector (linear, exact, one to
    one on basis states).  NegativeNormError where <level>_q < 0: at the
    even levels below q = -1, as basic_number's sign is exact."""
    out: dict = {}
    up = op.is_creator
    for state, amp in v.terms.items():
        n = _state_get(state, op.label)
        # the step between occupations level - 1 and level has weight
        # sqrt(<level>_q) in either direction
        level = n + 1 if up else n
        if level == 0:
            continue
        coeff2 = basic_number(q, level)
        if coeff2 < 0.0:
            raise NegativeNormError(f"<{level}>_q = {coeff2} < 0 at q={q}")
        new = _state_set(state, op.label, level if up else level - 1)
        out[new] = coeff2 ** 0.5 * amp
    return StateVector(out).prune()


def apply_string(ops: Sequence[LadderOp], v: StateVector,
                 q: float) -> StateVector:
    """Apply a product of ladder operators, rightmost factor first."""
    for op in reversed(list(ops)):
        v = apply_ladder(op, v, q)
    return v


def vev(ops: Sequence[LadderOp], q: float) -> complex:
    """Brute-force vacuum expectation value of an operator product.

    The oracle for the Wick engine, exact up to floating point at every
    length.  Each ladder operator maps a basis state to one basis state,
    so the cost is linear in the length.  NumericOverflowError if it is
    not finite.
    """
    finite(q, "q")
    value = apply_string(ops, StateVector.vacuum(), q).amplitude(VACUUM)
    if cmath.isfinite(value):
        return value
    raise NumericOverflowError(f"the vacuum amplitude overflows at q={q}")


def charge_conjugate_op(op: LadderOp, epsilon: complex = 1.0):
    """Conjugate a single ladder operator: C a C^-1 = eps b, etc.

    Returns (phase, operator) since the image carries the phase factor.
    """
    _check_phase(epsilon)
    other = ANTIPARTICLE if op.label.species == PARTICLE else PARTICLE
    new = LadderOp(op.kind, ModeLabel(other, op.label.mode))
    if op.label.species == PARTICLE:
        phase = epsilon.conjugate() if op.is_creator else epsilon
    else:
        phase = epsilon if op.is_creator else epsilon.conjugate()
    return phase, new


def charge_conjugate_state(v: StateVector, epsilon: complex = 1.0) -> StateVector:
    """Conjugate a state: swap species occupations and apply phases.

    A basis state built from n particle creators and m antiparticle
    creators picks up (eps*)^n * eps^m.  The vacuum is invariant.
    """
    _check_phase(epsilon)
    out: dict = {}
    for state, amp in v.terms.items():
        n_part = sum(occ for lab, occ in state if lab.species == PARTICLE)
        n_anti = sum(occ for lab, occ in state if lab.species == ANTIPARTICLE)
        phase = (epsilon.conjugate() ** n_part) * (epsilon ** n_anti)
        swapped = tuple(sorted(
            (ModeLabel(ANTIPARTICLE if lab.species == PARTICLE else PARTICLE,
                       lab.mode), occ)
            for lab, occ in state))
        out[swapped] = out.get(swapped, 0.0 + 0.0j) + phase * amp
    return StateVector(out).prune()


def charge_conjugate_string(ops: Iterable[LadderOp], epsilon: complex = 1.0):
    """Conjugate a whole operator product termwise: returns (phase, ops)."""
    phase = 1.0 + 0.0j
    new_ops = []
    for op in ops:
        p, new = charge_conjugate_op(op, epsilon)
        phase *= p
        new_ops.append(new)
    return phase, tuple(new_ops)


def _check_phase(epsilon: complex):
    modulus = abs(complex(epsilon))
    if not abs(modulus - 1.0) <= 1e-12:  # so that a nan phase fails too
        finite(modulus, "|epsilon|")
        raise ValueError(f"|epsilon| must be 1, got {modulus}")
