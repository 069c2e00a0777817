"""The doubled-space toolbox, step by step.

Density matrices become vectors over paired (u, l) site registers;
channels become per-site 4x4 factors; the per-site depolarizer realizes
the partial trace; and the supervector norm is the purity.  Every claim
is checked against the dense matrix calculation.
"""

import numpy as np

from renyimi import Bipartition, TfimModel, ground_state
from renyimi.oracle import (
    ChannelSpec,
    apply_channel_dense,
    apply_lifted_channel,
    density_from_state,
    depolarize_subsystem,
    devectorize,
    lift_channel,
    partial_trace_dense,
    pure_supervector,
    purity_dense,
    r2gse_dense,
    r2gse_supervector,
    vectorize,
    y_decohere_dense,
)

rng = np.random.default_rng(7)

print("=" * 70)
print("Vectorization and the Hilbert-Schmidt inner product")
print("=" * 70)
dim = 4
a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
rho = a @ a.conj().T
rho /= np.trace(rho).real
sv = vectorize(rho)
print(f"round-trip exact: {np.array_equal(devectorize(sv), rho)}")
print(f"<<rho|rho>> = {np.vdot(sv, sv).real:.10f}   Tr[rho^2] = {purity_dense(rho):.10f}")

print()
print("=" * 70)
print("Channels lift to per-site 4x4 factors")
print("=" * 70)
spec = ChannelSpec("Y", 0.3, (0, 1))
lifted = apply_lifted_channel(sv, lift_channel(spec))
dense = apply_channel_dense(rho, spec)
print(f"lifted Y channel vs dense Kraus sum: max diff = {np.max(np.abs(devectorize(lifted) - dense)):.2e}")
print(f"norm of the lifted image = purity of the channel output: "
      f"{abs(np.vdot(lifted, lifted).real - purity_dense(dense)):.2e}")

print()
print("=" * 70)
print("Depolarizing a subsystem = tracing it out")
print("=" * 70)
part = Bipartition(2, 1)
swept = devectorize(depolarize_subsystem(sv, part.sites_B))
target = np.kron(np.eye(2) / 2, partial_trace_dense(rho, part, keep="A"))
print(f"depolarize B vs (I/2) x Tr_B[rho]: max diff = {np.max(np.abs(swept - target)):.2e}")

print()
print("=" * 70)
print("Subsystem entropy of a decohered critical chain")
print("=" * 70)
L = 6
psi = ground_state(TfimModel(L)).state
part = Bipartition(L, 3)
sv = pure_supervector(psi)
for p_y in (0.0, 0.2, 0.4):
    if p_y > 0:
        sv_y = apply_lifted_channel(
            pure_supervector(psi), lift_channel(ChannelSpec("Y", p_y, tuple(range(L))))
        )
    else:
        sv_y = sv
    s = r2gse_supervector(sv_y, part, "Z", 0.25)
    rho_y = y_decohere_dense(density_from_state(psi), p_y)
    s_ref = r2gse_dense(rho_y, part, "Z", 0.25)
    print(f"p_y = {p_y:3.1f}: S_A(p_m=0.25) = {s:.8f}   dense check diff = {abs(s - s_ref):.2e}")
