"""q-deformed field quantization toolkit.

Modules:
    qcore       basic q-numbers and deformed occupancy statistics
    fock        q-Fock space: ladder operators walking one basis state,
                brute-force VEVs
    wick        q-Wick normal ordering and pairing expansion + oracle harness
    lorentz     float four-vectors: Minkowski products, omega, checks, boost
                rows, the Dirac spinor basis
    dirac       gamma matrices, spinors, projectors, polarization vectors
    propagator  q-causal propagators in momentum and position space
    scattering  Moller / annihilation correction factors and frame scans
    cli         command-line front end (CSV output)
    golden      the CLI's golden files, loaded only by --golden calls

Only ``errors`` loads with the package.  Every other layer loads on first
access to it or to a name re-exported from it (PEP 562), so a cold CLI
call loads only the layers its command uses.  No module imports numpy:
every layer computes on Python floats and complex numbers, and the
package has no runtime dependency.
"""
from importlib import import_module as _import_module

from . import errors

_LAZY_LAYERS = ("qcore", "fock", "wick", "lorentz", "dirac", "propagator",
                "scattering")
# each re-exported name with the layer that defines it
_LAZY_NAMES = {name: layer for layer, names in (
    ("qcore", ("basic_number", "q_occupancy")),
    ("fock", ("a", "a_dag", "b", "b_dag", "vev")),
    ("wick", ("normal_order", "wick_expand", "wick_vev", "verify_wick")),
    ("propagator", ("scalar_propagator_momentum",
                    "spinor_propagator_momentum",
                    "photon_propagator_momentum", "pole_residues",
                    "delta_plus_equal_time", "spacelike_q_commutator",
                    "causal_position")),
    ("scattering", ("Boost", "ProcessKinematics", "correction_factor",
                    "moller_amplitude", "annihilation_correction_pair",
                    "frame_scan"))) for name in names}

__all__ = ["errors", *_LAZY_LAYERS, *_LAZY_NAMES]

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
