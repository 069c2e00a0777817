"""Brute-force dense reference implementations, used in tests as ground truth.

Everything here favors being obviously correct over being fast and is
hard-capped at L <= 8, except the full-space ground-state solver, which
checks the sector solver of `tfim` up to L = 12, and the free-fermion
entropies, which cost O(L^3) and anchor the window plans at any L.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh

from .channels import ChannelSpec, apply_channel_dense
from .spin import Bipartition

ORACLE_MAX_SITES = 8
DENSE_MAX_SITES = 12


def _check_cap(L):
    if L > ORACLE_MAX_SITES:
        raise ValueError(f"oracle paths are capped at L <= {ORACLE_MAX_SITES}, got L={L}")


def dense_hamiltonian(L):
    """Explicit 2^L x 2^L matrix of H = -sum_j (Z_j Z_{j+1} + X_j), periodic.

    The diagonal is summed bond by bond; at L=2 the periodic sum counts the
    single bond twice.
    """
    if L > DENSE_MAX_SITES:
        raise ValueError(f"dense Hamiltonian capped at L <= {DENSE_MAX_SITES}")
    idx = np.arange(2**L)
    z = 1.0 - 2.0 * ((idx[:, None] >> np.arange(L)) & 1)  # z[s, j] = +-1
    h = np.diag(-np.sum(z * np.roll(z, -1, axis=1), axis=1))
    for j in range(L):
        h[idx, idx ^ (1 << j)] -= 1.0
    return h


def dense_ground_state(L):
    """(E0, psi) from the full 2^L matrix, independent of any symmetry sector.

    psi is real, normalized and sign-fixed so its largest-magnitude
    amplitude is positive, as `tfim.ground_state` returns it.
    """
    w, v = eigh(dense_hamiltonian(L), subset_by_index=[0, 0])
    psi = v[:, 0] / np.linalg.norm(v[:, 0])
    psi *= np.sign(psi[np.argmax(np.abs(psi))])
    return float(w[0]), psi


def majorana_couplings(L):
    """Real antisymmetric 2L x 2L coupling matrix of the critical ring's Majoranas.

    With g_{2j} = (prod_{k<j} X_k) Z_j and g_{2j+1} = (prod_{k<j} X_k) Y_j,
    X_j = i g_{2j} g_{2j+1} and Z_j Z_{j+1} = i g_{2j+1} g_{2j+2}, so every
    bond between neighbouring Majoranas couples with +1; the ground state
    lies in the prod X = +1 sector, where the wrap bond g_{2L-1} g_0 takes
    the opposite sign.  The single-particle energies are the eigenvalues of
    iA, and E0 = -(sum of the positive ones) = -2/sin(pi/2L).
    """
    a = np.zeros((2 * L, 2 * L))
    k = np.arange(2 * L - 1)
    a[k, k + 1] = 1.0
    a[2 * L - 1, 0] = -1.0
    return a - a.T


def free_fermion_renyi2(L):
    """Renyi-2 entanglement entropy S_2(L_A) of the ring's ground state, indexed by L_A = 0..L.

    The Majorana correlation matrix is M = sign(iA) (A from
    `majorana_couplings`).  The window [0, L_A) holds the first 2 L_A
    Majoranas and its state is Gaussian, so with +-nu the eigenvalues of M's
    leading 2 L_A block, S_2 = -sum_{nu >= 0} ln((1 + nu^2) / 2) (Vidal,
    Latorre, Rico, Kitaev, PRL 90, 227902 (2003); Peschel, J. Phys. A 36,
    L205 (2003)).  Shares no code with the state-vector paths.
    """
    w, v = np.linalg.eigh(1j * majorana_couplings(L))
    m = (v * np.sign(w)) @ v.conj().T
    out = np.zeros(L + 1)
    for l_a in range(1, L + 1):
        nu = np.linalg.eigvalsh(m[: 2 * l_a, : 2 * l_a])[l_a:]  # the upper of each +-nu pair
        out[l_a] = -np.sum(np.log((1.0 + nu**2) / 2.0))
    return out


def density_from_state(state):
    psi = np.asarray(state, dtype=complex)
    return np.outer(psi, psi.conj())


def partial_trace_dense(rho, part: Bipartition, keep="A"):
    """Exact index-summed partial trace onto subsystem `keep`."""
    _check_cap(part.L)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2**part.L, 2**part.L):
        raise ValueError(f"density matrix shape {rho.shape} does not match L={part.L}")
    r = rho.reshape(part.d_B, part.d_A, part.d_B, part.d_A)
    if keep == "A":
        return np.trace(r, axis1=0, axis2=2)
    if keep == "B":
        return np.trace(r, axis1=1, axis2=3)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def purity_dense(rho):
    """Tr[rho^2] for Hermitian rho, via the squared Frobenius norm."""
    rho = np.asarray(rho)
    return float(np.sum(np.abs(rho) ** 2))


def purity_from_eigenvalues(rho):
    """Tr[rho^2] via the eigenvalue spectrum; oracle self-consistency path."""
    w = np.linalg.eigvalsh(np.asarray(rho))
    return float(np.sum(w**2))


def r2gse_dense(state_or_rho, part: Bipartition, axis, p_m, subsystem="A"):
    """Literal composition: dense channel, dense partial trace, -log Tr[rho^2].

    subsystem "A" dephases and keeps A; "B" is the mirrored quantity and
    "AB" dephases the whole chain with no trace, both there for
    cross-checking the fast paths.
    """
    _check_cap(part.L)
    arr = np.asarray(state_or_rho, dtype=complex)
    rho = density_from_state(arr) if arr.ndim == 1 else arr
    if subsystem == "A":
        sites, keep = part.sites_A, "A"
    elif subsystem == "B":
        sites, keep = part.sites_B, "B"
    elif subsystem == "AB":
        sites, keep = tuple(range(part.L)), None
    else:
        raise ValueError(f"subsystem must be 'A', 'B' or 'AB', got {subsystem!r}")
    rho = apply_channel_dense(rho, ChannelSpec(axis, p_m, sites))
    if keep is not None:
        rho = partial_trace_dense(rho, part, keep=keep)
    return -np.log(purity_dense(rho))
