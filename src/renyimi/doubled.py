"""Doubled-space supervector engine: density matrices as vectors over 4^L labels.

Vectorization convention (pinned once, unnormalized):
  * component (k_u, m_l) of |rho>> is rho[m, k], flat index k * 2^L + m,
  * so site j owns the l-bit at position j and the u-bit at position j + L,
  * for a pure state psi psi+ the supervector is kron(conj(psi), psi),
  * <<a|b>> = Tr[a+ b], hence the squared norm of a vectorized state is its
    purity and no dimension prefactors appear in the subsystem-entropy
    identity below.

A channel with Kraus operators {K} acts on supervectors as the lifted
operator sum(conj(K)_u x K_l); for the single-site two-Kraus channels used
here that is one 4x4 factor per site on the (u, l) bit pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec, _sites_of
from .spin import PAULIS, Bipartition, check_axis

SUPERVECTOR_MAX_SITES = 12

_CAP_MESSAGE = (
    "supervector path is capped at L <= {cap} (4^L components); "
    "use the pure-state algorithms for larger chains"
)

def supervector_sites(sv) -> int:
    n = len(sv)
    bits = n.bit_length() - 1
    if n < 4 or (1 << bits) != n or bits % 2 != 0:
        raise ValueError(f"supervector length {n} is not a power of four >= 4")
    return bits // 2


def _check_cap(L):
    if L > SUPERVECTOR_MAX_SITES:
        raise ValueError(_CAP_MESSAGE.format(cap=SUPERVECTOR_MAX_SITES))


def vectorize(rho):
    """Density matrix -> supervector, component (k_u, m_l) = rho[m, k]."""
    rho = np.asarray(rho, dtype=complex)
    _check_cap(_sites_of(rho))
    return rho.T.reshape(-1).copy()


def devectorize(sv):
    """Exact inverse of vectorize."""
    L = supervector_sites(sv)
    dim = 2**L
    return np.asarray(sv, dtype=complex).reshape(dim, dim).T.copy()


def pure_supervector(state):
    """Supervector of |psi><psi| without forming the density matrix."""
    psi = np.asarray(state, dtype=complex)
    L = len(psi).bit_length() - 1
    _check_cap(L)
    return np.kron(psi.conj(), psi)


@dataclass(frozen=True)
class LiftedChannel:
    """Doubled-space image of a ChannelSpec: one 4x4 factor per listed site."""

    site_factor: np.ndarray
    sites: tuple


def lift_channel(spec: ChannelSpec) -> LiftedChannel:
    """(1-p) IxI + p conj(M)_u x M_l per site; for M=Y the conjugation flips the sign."""
    m = PAULIS[spec.axis]
    factor = (1.0 - spec.p) * np.eye(4, dtype=complex) + spec.p * np.kron(m.conj(), m)
    return LiftedChannel(site_factor=factor, sites=spec.sites)


def _apply_pair_inplace(sv, L, site, factor):
    # (u, l) bit pair of `site` sits at flat bit positions (site + L, site)
    v = sv.reshape(2 ** (L - 1 - site), 2, 2 ** (L - 1), 2, 2**site)
    s = (v[:, 0, :, 0, :], v[:, 0, :, 1, :], v[:, 1, :, 0, :], v[:, 1, :, 1, :])
    new = [
        factor[r, 0] * s[0] + factor[r, 1] * s[1] + factor[r, 2] * s[2] + factor[r, 3] * s[3]
        for r in range(4)
    ]
    v[:, 0, :, 0, :] = new[0]
    v[:, 0, :, 1, :] = new[1]
    v[:, 1, :, 0, :] = new[2]
    v[:, 1, :, 1, :] = new[3]


def apply_lifted_channel(sv, lifted: LiftedChannel):
    """Apply the per-site doubled factors; site order is irrelevant."""
    L = supervector_sites(sv)
    for site in lifted.sites:
        if not 0 <= site < L:
            raise ValueError(f"site {site} out of range for L={L}")
    out = np.array(sv, dtype=complex)
    for site in lifted.sites:
        _apply_pair_inplace(out, L, site, lifted.site_factor)
    return out


def depolarize_subsystem(sv, sites):
    """Maximal depolarizer on `sites`: de-vectorizes to (I/d) x Tr_sites[rho]."""
    L = supervector_sites(sv)
    sites = tuple(int(s) for s in sites)
    for site in sites:
        if not 0 <= site < L:
            raise ValueError(f"site {site} out of range for L={L}")
    out = np.array(sv, dtype=complex)
    for site in sites:
        v = out.reshape(2 ** (L - 1 - site), 2, 2 ** (L - 1), 2, 2**site)
        t = 0.5 * (v[:, 0, :, 0, :] + v[:, 1, :, 1, :])
        v[:, 0, :, 0, :] = t
        v[:, 1, :, 1, :] = t
        v[:, 0, :, 1, :] = 0.0
        v[:, 1, :, 0, :] = 0.0
    return out


def generalized_entropy_supervector(sv, dephase_sites, depolarize_sites, axis, p):
    """-log(d_B ||D_B E_A |rho>>||^2): dephase one site set, sweep out the other.

    Under the unnormalized convention the depolarized norm equals
    Tr[(Tr_B E[rho])^2] / d_B, so the d_B prefactor makes the result the
    subsystem Renyi-2 entropy of the dephased state.
    """
    check_axis(axis)
    dephase_sites = tuple(int(s) for s in dephase_sites)
    w = sv
    if dephase_sites and p > 0.0:
        w = apply_lifted_channel(w, lift_channel(ChannelSpec(axis, p, dephase_sites)))
    w = depolarize_subsystem(w, depolarize_sites)
    purity = 2 ** len(tuple(depolarize_sites)) * float(np.real(np.vdot(w, w)))
    if not np.isfinite(purity) or purity <= 0.0:
        raise FloatingPointError(
            f"purity {purity} underflowed; input supervector was not a valid trace-1 state"
        )
    return float(-np.log(purity) + 0.0)


def r2gse_supervector(sv, part: Bipartition, axis, p_m):
    """Subsystem-A generalized entropy of a vectorized (possibly mixed) state."""
    if supervector_sites(sv) != part.L:
        raise ValueError("supervector length does not match bipartition")
    return generalized_entropy_supervector(sv, part.sites_A, part.sites_B, axis, p_m)
