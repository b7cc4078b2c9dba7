"""q-deformed field quantization toolkit.

Modules:
    qcore       basic q-numbers and deformed occupancy statistics
    fock        truncated q-Fock space, ladder operators, brute-force VEVs
    wick        q-Wick normal ordering and pairing expansion + oracle harness
    lorentz     float four-vectors: Minkowski products, omega, checks, boost
                rows, the Dirac spinor basis
    dirac       gamma matrices, spinors, projectors, the spinor boost
    propagator  q-causal propagators in momentum and position space
    scattering  Moller / annihilation correction factors and frame scans
    cli         command-line front end (CSV output, golden files)

The first three load with the package.  ``lorentz``, ``dirac``,
``propagator`` and ``scattering`` each load on first access to it or to a
name re-exported from it (PEP 562).  No module imports numpy: every layer
computes on Python floats and complex numbers, and the package has no
runtime dependency.
"""
from importlib import import_module as _import_module

from . import qcore, fock, wick, errors
from .qcore import basic_number, q_occupancy
from .fock import a, a_dag, b, b_dag, vev, StateVector
from .wick import normal_order, wick_expand, wick_vev, verify_wick, q_time_order

_LAZY_LAYERS = ("lorentz", "dirac", "propagator", "scattering")
_LAZY_NAMES = dict.fromkeys(
    ("scalar_propagator_momentum", "spinor_propagator_momentum",
     "photon_propagator_momentum", "pole_residues", "delta_plus_equal_time",
     "spacelike_q_commutator", "causal_position"), "propagator")
_LAZY_NAMES.update(dict.fromkeys(
    ("Boost", "ProcessKinematics", "correction_factor",
     "moller_amplitude", "annihilation_correction_pair", "frame_scan"),
    "scattering"))

__all__ = ["qcore", "fock", "wick", "errors", *_LAZY_LAYERS,
           "basic_number", "q_occupancy",
           "a", "a_dag", "b", "b_dag", "vev", "StateVector",
           "normal_order", "wick_expand", "wick_vev", "verify_wick",
           "q_time_order", *_LAZY_NAMES]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAZY_LAYERS:
        # importing a submodule binds it on the package, so this runs once
        return _import_module(f"{__name__}.{name}")
    layer = _LAZY_NAMES.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
