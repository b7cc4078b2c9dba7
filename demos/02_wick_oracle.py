"""
q-Wick expansion versus the Fock-space walk
===========================================

Normal ordering a string of q-deformed ladder operators generates
contraction terms weighted by q raised to the number of same-mode pair
crossings.  The vacuum values are checked against applying the operators
to the Fock vacuum, which takes the same level weights as the path
product: that checks rounding and where the value is 0.  The pairing
diagrams' sum is the independent check of the algebra.
"""
from qfield import fock, wick

q = 0.5

# normal-order a a adag adag: each a-adag exchange costs a factor q plus
# a contraction, so the fully ordered form collects polynomial weights
ops = (fock.a(0), fock.a(0), fock.a_dag(0), fock.a_dag(0))
nf = wick.normal_order(ops, q)
print("normal form of a a adag adag at q =", q)
for term, poly in sorted(nf.terms.items(), key=lambda kv: len(kv[0])):
    label = " ".join(repr(op) for op in term) or "1"
    print(f"  {poly(q):8.4f}  x  {label}")

# the pairing expansion enumerates every diagram, crossings and all
print("\npairing diagrams (pairs / crossings / coefficient):")
diagrams = wick.wick_expand(ops, q)
for d in diagrams:
    pairs = " ".join(f"{i}-{j}" for i, j in d.pairs) or "none"
    print(f"  {pairs:12s}  crossings={d.crossings}  coeff={d.coefficient}")

# the full diagrams sum to the product of level weights <h>_q along the
# string's path, and both must match the oracle
diagram_sum = sum(d.coefficient for d in diagrams if d.is_full)
rep = wick.verify_wick(ops, q)
print(f"\nVEV: diagrams {diagram_sum:.6f}  path {rep.wick_vev:.6f}  "
      f"oracle {rep.fock_vev:.6f}  diff {rep.abs_diff:.2e}")
assert rep.passed and abs(diagram_sum - rep.fock_vev) <= 1e-9

# a two-mode string: operators on distinct modes commute exactly, so
# only same-mode interleavings pick up the q
ops2 = (fock.a(0), fock.a(1), fock.a_dag(0), fock.a_dag(1))
rep2 = wick.verify_wick(ops2, q)
print(f"two-mode VEV: path {rep2.wick_vev:.6f}  "
      f"oracle {rep2.fock_vev:.6f}  diff {rep2.abs_diff:.2e}")
assert rep2.passed
print("\nall VEVs confirmed by the Fock oracle.")
