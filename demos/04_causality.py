"""
Position space: the invariant interval and the causality probe
==============================================================

Every position-space value depends on the invariant interval r^2 - t^2
only.  The equal-time two-point function Delta_plus is m K1(mr)/(4 pi^2 r);
the library evaluates K1 from its power series and a Chebyshev series
on Python floats, and scipy's k1 checks it here.  For q != 1 the field commutator no
longer vanishes at spacelike separation -- the residue is exactly
(1-q) Delta_plus, and this script measures it.
"""
import numpy as np
from scipy.special import k1

from qfield import propagator

m = 1.0

# the library versus scipy's Bessel K1 across two decades of mr
print("   r        qfield        m K1(mr)/(4 pi^2 r)   rel err")
for r in (0.2, 0.5, 1.0, 2.0, 4.0):
    got = propagator.delta_plus_equal_time(r, m)
    want = m * k1(m * r) / (4 * np.pi ** 2 * r)
    print(f" {r:4.1f}  {got.value:14.8e}  {want:18.8e}  "
          f"{abs(got.value - want) / want:8.1e}")

# the massless limit is 1/(4 pi^2 r^2)
r = 0.8
got = propagator.delta_plus_equal_time(r, 0.0)
print(f"\nmassless at r={r}: {got.value:.8e} vs "
      f"{1 / (4 * np.pi ** 2 * r ** 2):.8e}")

# the causality probe: [phi(x), phi(y)] at spacelike separation
print("\nspacelike commutator (1-q) Delta_plus at r=1.3:")
for q in (1.0, 0.9, 0.5, 0.0, -1.0):
    c = propagator.spacelike_q_commutator(1.3, m, q)
    print(f"  q={q:+.1f}: {c.value: .6e}")
print("only q=1 is causal; any deformation leaks outside the light cone.")

# the causal propagator at timelike separation, m (Y1 + i J1)/(8 pi tau),
# with its q-weighted negative-time branch
for t in (2.0, -2.0):
    v = propagator.causal_position(t, 0.5, m, 0.5)
    print(f"causal propagator t={t:+.1f}, r=0.5: {v.value:.6e}")
