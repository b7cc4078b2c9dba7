"""q-deformed Fock space with exact ladder-operator action.

Two species (particle ``a``, antiparticle ``b``), a small set of discrete
modes standing in for the continuum (momentum, spin) label, and the
q-oscillator representation

    a|n> = sqrt(<n>_q) |n-1>,    adag|n> = sqrt(<n+1>_q) |n+1>

so that  a adag - q adag a = 1  holds on every basis state.  Operators
carrying distinct (species, mode) labels commute exactly; this is the
minimal consistent multimode convention.  ``vev`` takes the square root
of the level weight <h>_q on each step up and down that ``wick.wick_vev``
takes once per closed height, so comparing the two checks rounding and
where a value is 0, not the q-algebra.

Charge conjugation swaps the two species with a unit phase epsilon.

``ModeLabel`` and ``LadderOp`` are named tuples, validated on
construction, so the dicts keyed on them hash and compare in C.  As
tuples they compare equal to a plain tuple of their fields
(``ModeLabel(PARTICLE, 0) == (PARTICLE, 0)``), and both are ordered
field by field.
"""
from __future__ import annotations

import math
from collections import namedtuple
from operator import index
from typing import Iterable, Sequence

from .errors import NumericOverflowError, finite
from .qcore import _level_weight

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


def apply_string(ops: Sequence[LadderOp], occupations: dict,
                 q: float) -> tuple[dict, float] | None:
    """Apply a product of ladder operators, rightmost factor first, to a
    basis state: a dict from label to occupation, ``{}`` the vacuum.

    Returns the one image (occupations, amplitude), a new dict with no
    zero entry and a float, or None for the zero vector: where an
    annihilator meets an empty label or the amplitude is an exact 0 (a
    tiny one, such as (1 + q)^2 near q = -1, is as exact as a large one).
    The step between occupations level - 1 and level has weight
    sqrt(<level>_q) either way, inf where <level>_q overflows, and raises
    NegativeNormError where <level>_q < 0 (the even levels below q = -1).
    """
    q = finite(q, "q")
    occupations = dict(occupations)
    amplitude = 1.0
    for kind, label in reversed(tuple(ops)):
        n = occupations.pop(label, 0)
        level = n + 1 if kind == CREATE else n
        if level == 0:
            return None
        amplitude *= _level_weight(q, level) ** 0.5
        if not amplitude:
            return None
        n = level if kind == CREATE else level - 1
        if n:
            occupations[label] = n
    return occupations, amplitude


def vev(ops: Sequence[LadderOp], q: float) -> float:
    """Vacuum expectation value of an operator product, by applying it.

    The amplitude of the vacuum's image if that image is the vacuum, else
    0.0: real, since every step weight is a real square root.  Exact up to
    floating point at every length, at a cost linear in the length.
    NumericOverflowError if it is not finite.
    """
    image = apply_string(ops, {}, q)
    if image is None or image[0]:
        return 0.0
    if math.isfinite(image[1]):
        return image[1]
    raise NumericOverflowError(f"the vacuum amplitude overflows at q={q}")


def charge_conjugate_op(op: LadderOp, epsilon: complex = 1.0):
    """Conjugate a single ladder operator: C a C^-1 = eps b, etc.

    Returns (phase, operator) since the image carries the phase factor.
    """
    _check_phase(epsilon)
    return _conjugate_op(op, epsilon)


def charge_conjugate_string(ops: Iterable[LadderOp], epsilon: complex = 1.0):
    """Conjugate a whole operator product termwise: returns (phase, ops).
    epsilon is checked once, as charge_conjugate_op checks it, also for an
    empty product."""
    _check_phase(epsilon)
    phase = 1.0 + 0.0j
    new_ops = []
    for op in ops:
        p, new = _conjugate_op(op, epsilon)
        phase *= p
        new_ops.append(new)
    return phase, tuple(new_ops)


def _conjugate_op(op: LadderOp, epsilon: complex) -> tuple:
    """charge_conjugate_op of a checked epsilon."""
    other = ANTIPARTICLE if op.label.species == PARTICLE else PARTICLE
    new = LadderOp(op.kind, ModeLabel(other, op.label.mode))
    if op.label.species == PARTICLE:
        phase = epsilon.conjugate() if op.is_creator else epsilon
    else:
        phase = epsilon if op.is_creator else epsilon.conjugate()
    return phase, new


def _check_phase(epsilon: complex):
    modulus = finite(abs(epsilon), "|epsilon|")
    if not abs(modulus - 1.0) <= 1e-12:
        raise ValueError(f"|epsilon| must be 1, got {modulus}")
