"""Shared across the package: typed exceptions, ``finite`` and the
result-record base.

Every divergence or invalid input maps to one of the exceptions; no
operation returns a silent NaN.
"""
import math


class QFieldError(Exception):
    """Base class for all package errors."""


class NonFiniteInputError(QFieldError):
    """An input that must be a finite number is nan or infinite."""


class NumericOverflowError(QFieldError):
    """A result exceeds the floating-point range."""


class OccupancyPoleError(QFieldError):
    """e^x == q in the deformed occupancy formula (unphysical parameter pair)."""


class NegativeNormError(QFieldError):
    """A ladder coefficient sqrt(<n>_q) would be imaginary (<n>_q < 0)."""


class OffShellError(QFieldError):
    """A four-momentum that must satisfy p^2 = m^2 does not."""


class ZeroMassError(QFieldError):
    """Operation requires m > 0."""


class PoleError(QFieldError):
    """Momentum-space propagator evaluated at k0 = +-omega, a pole."""


class ConvergenceError(QFieldError):
    """A position-space value with no correct digit: on the light cone,
    where it diverges, or deep inside it (m tau past about 5.6e14), where
    the rounding of tau moves the phase m tau by a radian."""


class SuperluminalError(QFieldError):
    """Boost velocity with |beta| >= 1."""


class DegenerateTransferError(QFieldError):
    """A momentum transfer (|dpvec|, or Moller's t or u) exactly zero."""


def finite(value: float, name: str) -> float:
    """``value`` itself; NonFiniteInputError if it is nan or infinite,
    NumericOverflowError for a number past the float range (an int)."""
    try:
        if math.isfinite(value):
            return value
    except OverflowError:  # no float holds it
        raise NumericOverflowError(f"{name} is past the float range") \
            from None
    raise NonFiniteInputError(f"{name} must be finite, got {value}")


class Record:
    """Base of the result records: a subclass names its value in ``_fields``
    and keeps its own ``__init__``.  Records of one class compare as the
    tuples of their ``_fields`` (so an identical item, nan too, is equal),
    print as ``Name(field=value, ...)`` and are unhashable."""

    __slots__ = _fields = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (tuple(getattr(self, f) for f in self._fields)
                == tuple(getattr(other, f) for f in self._fields))

    def __repr__(self):
        values = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({values})"
