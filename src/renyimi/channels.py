"""Single-site Pauli channels in Kraus form, applied to dense density matrices.

Each channel is a product of per-site two-Kraus maps
E_j[rho] = (1-p) rho + p M_j rho M_j with M a Pauli axis; channels are
stored as (axis, p, sites), never as full-dimension Kraus matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import check_axis


@dataclass(frozen=True)
class ChannelSpec:
    """Axis dephasing of strength p on a set of sites.

    p is capped at 1/2 (the projective limit); larger values are rejected
    rather than silently mirrored.
    """

    axis: str
    p: float
    sites: tuple

    def __post_init__(self):
        check_axis(self.axis)
        if not 0.0 <= self.p <= 0.5:
            raise ValueError(f"channel strength p={self.p} outside [0, 1/2]")
        sites = tuple(int(s) for s in self.sites)
        if len(set(sites)) != len(sites):
            raise ValueError(f"duplicate sites in channel spec: {sites}")
        object.__setattr__(self, "sites", sites)


def _sites_of(rho):
    dim = rho.shape[0]
    L = dim.bit_length() - 1
    if rho.ndim != 2 or rho.shape != (dim, dim) or (1 << L) != dim or dim < 2:
        raise ValueError(f"density matrix shape {rho.shape} is not 2^L x 2^L")
    return L


def _pauli_sandwich(rho, axis, site, L):
    """M_j rho M_j by index manipulation (no full-dimension operator)."""
    h = 2 ** (L - 1 - site)
    low = 2**site
    v = rho.reshape(h, 2, low, h, 2, low)
    if axis == "Z":
        out = v.copy()
        out[:, 0, :, :, 1, :] *= -1.0
        out[:, 1, :, :, 0, :] *= -1.0
    elif axis == "X":
        out = v[:, ::-1, :, :, ::-1, :].copy()
    else:  # Y: flip both indices, negate where the two configs differ at the site
        out = v[:, ::-1, :, :, ::-1, :].copy()
        out[:, 0, :, :, 1, :] *= -1.0
        out[:, 1, :, :, 0, :] *= -1.0
    return out.reshape(rho.shape)


def apply_channel_dense(rho, spec: ChannelSpec):
    """Apply the per-site Kraus sum sequentially over spec.sites."""
    rho = np.asarray(rho, dtype=complex)
    L = _sites_of(rho)
    for site in spec.sites:
        if not 0 <= site < L:
            raise ValueError(f"site {site} out of range for L={L}")
    out = rho.copy()
    for site in spec.sites:
        out = (1.0 - spec.p) * out + spec.p * _pauli_sandwich(out, spec.axis, site, L)
    return out


def y_decohere_dense(rho, p_y):
    """Local Y channel of strength p_y applied at every site of the chain."""
    rho = np.asarray(rho, dtype=complex)
    L = _sites_of(rho)
    return apply_channel_dense(rho, ChannelSpec("Y", p_y, tuple(range(L))))
