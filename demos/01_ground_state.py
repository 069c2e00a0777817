"""Ground states of the critical Ising chain.

Walks through the oracle's matrix-free Hamiltonian, the symmetry-sector
solver checked against the full-space dense oracle, the finite-size drift of
the energy density toward -4/pi, and the binary ground-state cache, which
holds one amplitude per orbit of the sector.
"""

import os
import tempfile

import numpy as np

from renyimi import (
    ground_state,
    load_ground_state,
    save_ground_state,
    translate,
)
from renyimi.oracle import apply_hamiltonian, dense_ground_state

print("=" * 70)
print("Matrix-free Hamiltonian action")
print("=" * 70)
L = 4
psi = np.zeros(2**L, dtype=complex)
psi[0] = 1.0  # all spins up
hpsi = apply_hamiltonian(L, psi)
print(f"H|0000>: diagonal amplitude {hpsi[0].real:+.1f} (four aligned bonds),")
print(f"         plus {np.count_nonzero(hpsi) - 1} single-flip amplitudes of {hpsi[1].real:+.1f} each")

print()
print("=" * 70)
print("Sector solver vs the full-space dense oracle")
print("=" * 70)
for L in (6, 8, 10):
    e_dense, psi_dense = dense_ground_state(L)
    sector = ground_state(L)
    overlap = abs(np.vdot(psi_dense, sector.state))
    print(
        f"L={L:2d}: E0(dense)={e_dense:+.10f}  "
        f"|dE|={abs(e_dense - sector.energy):.2e}  1-|<d|s>|={1 - overlap:.2e}"
    )

print()
print("=" * 70)
print("Energy density vs the thermodynamic value -4/pi")
print("=" * 70)
for L in (8, 12, 16):
    res = ground_state(L)
    e = res.energy / L
    print(f"L={L:2d}: E0/L = {e:+.6f}   deviation from -4/pi = {e + 4 / np.pi:+.2e}")

print()
print("=" * 70)
print("Symmetry sector and the cache file")
print("=" * 70)
res = ground_state(10)  # solved on the momentum-0, flip-even, reflection-even sector
shift_err = np.max(np.abs(translate(res.state, 3) - res.state))
flip_err = np.max(np.abs(res.state[::-1] - res.state))  # index s ^ (2^L - 1) is 2^L - 1 - s
# site j -> L-1-j reverses the bit order of each label: the axes of the (2,)*L tensor
reflect_err = np.max(np.abs(res.state.reshape((2,) * 10).transpose().ravel() - res.state))
print(f"L=10 ground state ({res.state.dtype}): residual {res.residual:.2e}, "
      f"translation error {shift_err:.2e}, flip error {flip_err:.2e}, "
      f"reflection error {reflect_err:.2e}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "gs.bin")
    save_ground_state(path, res)
    loaded = load_ground_state(path)
    print(f"cache round-trip: {os.path.getsize(path)} bytes for {len(res.amp)} orbit "
          f"amplitudes ({res.state.nbytes} as a state), "
          f"bit-identical = {np.array_equal(loaded.state, res.state)}")
