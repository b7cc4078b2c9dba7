"""
Momentum-space propagators and their asymmetric poles
=====================================================

The q-deformed causal propagator keeps the usual pole positions at
k0 = +/- omega but skews their strengths: residue 1/2w on the positive
branch, -q/2w on the negative one.  At q=1 the ordinary Feynman
propagator returns.
"""
import numpy as np

from qfield import propagator

m, q = 1.0, 0.5
kvec = np.array([1.0, 0.0, 0.0])
w = propagator.omega(kvec, m)
print(f"m={m}, |k|=1, omega={w:.6f}, q={q}")

# sweep k0 through off-shell values: the rational and partial-fraction
# forms agree everywhere (they are the same function, written two ways)
print("\n   k0      rational        partial fractions")
for k0 in (0.0, 0.5, 2.0, -2.0):
    k = np.array([k0, *kvec])
    a = propagator.scalar_propagator_momentum(k, m, q).value
    b = propagator.scalar_propagator_partial_fractions(k, m, q).value
    print(f" {k0:5.1f}  {a.real:13.6f}  {b.real:13.6f}")

# extract the residues numerically and compare with the closed form
rp, rm = propagator.pole_residues(kvec, m, q)
print(f"\nresidue at +omega: {rp:.10f}   expected {1 / (2 * w):.10f}")
print(f"residue at -omega: {rm:.10f}   expected {-q / (2 * w):.10f}")

# q=1 restores the undeformed propagator 1/(k^2 - m^2)
k = np.array([0.3, 1.0, 0.0, 0.0])
k2m2 = 0.3 ** 2 - 1.0 - m ** 2
v1 = propagator.scalar_propagator_momentum(k, m, 1.0).value
print(f"\nq=1 check at k0=0.3: {v1.real:.12f} vs 1/(k^2-m^2) = {1 / k2m2:.12f}")

# the spinor propagator carries (m + pslash)/2m and flips q -> -q in the
# scalar factor; the photon one dresses the scalar with the metric
sp = propagator.spinor_propagator_momentum(k, m, q)
ph = propagator.photon_propagator_momentum(k, 0.0, q)
print(f"spinor propagator trace: {np.trace(sp.value).real:.6f}")
print(f"photon propagator g00 component: {ph.value[0][0].real:.6f}")
