"""q-deformed field quantization toolkit.

Modules:
    qcore       basic q-numbers and deformed occupancy statistics
    fock        q-Fock space: ladder operators walking one basis state,
                vacuum expectation values by that walk
    wick        q-Wick normal ordering and pairing expansion + oracle harness
    lorentz     float four-vectors: Minkowski products, omega, checks, boost
                rows, the Dirac spinor basis
    dirac       gamma matrices, spinors, projectors, polarization vectors
    propagator  q-causal propagators in momentum and position space
    scattering  Moller / annihilation correction factors and frame scans
    errors      the typed errors and the shared result-record base
    cli         command-line front end (CSV output)
    golden      the CLI's golden files, loaded only by --golden calls

``import qfield`` loads no layer: each loads on its first import (``from
qfield import wick``), so a cold CLI call loads only the layers its
command uses.  No module imports numpy: every layer computes on Python
floats and complex numbers, and the package has no runtime dependency.
"""
__version__ = "0.1.0"
