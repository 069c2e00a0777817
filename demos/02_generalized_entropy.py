"""From entanglement entropy to Shannon entropy in one dial.

The dephasing strength p_m interpolates between the Renyi-2 entanglement
entropy (p_m = 0) and the Renyi-2 entropy of the measurement outcome
distribution (p_m = 1/2).  This script shows the two limits and the curve
in between for the critical chain, in all three measurement bases.
"""

import numpy as np

from renyimi import (
    Bipartition,
    GsePlan,
    TfimModel,
    ground_state,
    r2gse_pure,
    renyi2_ee,
    renyi2_shannon_entropy,
)

L = 12
psi = ground_state(TfimModel(L)).state
part = Bipartition(L, L // 2)

print("=" * 70)
print(f"Critical chain, L={L}, subsystem A = first {part.L_A} sites")
print("=" * 70)
ee = renyi2_ee(psi, part)
print(f"Renyi-2 entanglement entropy      : {ee:.8f}")
for axis in ("Z", "X", "Y"):
    sh = renyi2_shannon_entropy(psi, part, axis)
    print(f"Renyi-2 Shannon entropy ({axis} basis) : {sh:.8f}")

print()
print("=" * 70)
print("The interpolation S(p_m), per measurement basis")
print("=" * 70)
grid = np.linspace(0.0, 0.5, 11)
plans = {axis: GsePlan(psi, 0, part.L_A, axis) for axis in ("Z", "X", "Y")}
print(f"{'p_m':>6s}" + "".join(f"{axis:>12s}" for axis in ("Z", "X", "Y")))
for p_m in grid:
    row = "".join(f"{plans[axis].entropy(p_m):12.6f}" for axis in ("Z", "X", "Y"))
    print(f"{p_m:6.2f}{row}")

print()
print("limit checks (should vanish):")
for axis in ("Z", "X", "Y"):
    d0 = abs(r2gse_pure(psi, part, axis, 0.0) - ee)
    d5 = abs(r2gse_pure(psi, part, axis, 0.5) - renyi2_shannon_entropy(psi, part, axis))
    print(f"  {axis}: |S(0) - EE| = {d0:.2e}   |S(1/2) - Shannon form| = {d5:.2e}")
