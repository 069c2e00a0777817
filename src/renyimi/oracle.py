"""Brute-force dense reference implementations, used in tests as ground truth.

Everything here favors being obviously correct over being fast and is
hard-capped at L <= 8, except the full-space ground-state solver, which
checks the sector solver of `tfim` up to L = 12.
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
        return np.einsum("xaxb->ab", r)
    if keep == "B":
        return np.einsum("xaya->xy", r)
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
