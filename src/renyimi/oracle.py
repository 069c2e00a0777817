"""Brute-force references, used in tests as ground truth; `import renyimi` loads none of it.

Everything here favors being obviously correct over being fast.  Three parts:
  * dense references: density matrices, partial traces, purities and the
    literal generalized entropy, capped at L <= ORACLE_MAX_SITES = 8; the
    full-space ground state, which checks the sector solver of `tfim` up to
    L = DENSE_MAX_SITES = 12, and the matrix-free Hamiltonian, which checks
    its expanded state at any L; and the free-fermion entropies, which cost
    O(L^3) and anchor the window plans at any L, unmeasured
    (`free_fermion_renyi2`) or dephased on a start-0 window of up to 16
    sites (`gaussian_dephased_renyi2`, 2^n Gaussian overlaps);
  * Kraus channels: products of per-site two-Kraus maps
    E_j[rho] = (1-p) rho + p M_j rho M_j with M a Pauli axis, stored as
    (axis, p, sites), never as full-dimension Kraus matrices;
  * the supervector engine, capped at L <= SUPERVECTOR_MAX_SITES = 12:
    density matrices as vectors over 4^L labels, lifted channels and
    per-site depolarizers (the partial trace).  Case 2 runs on
    `entropy.PauliWeightPlan`; this is its reference.

Vectorization convention (pinned once, unnormalized):
  * component (k_u, m_l) of |rho>> is rho[m, k], flat index k * 2^L + m,
  * so site j owns the l-bit at position j and the u-bit at position j + L,
  * for a pure state psi psi+ the supervector is kron(conj(psi), psi),
  * <<a|b>> = Tr[a+ b], hence the squared norm of a vectorized state is its
    purity and no dimension prefactors appear in the subsystem-entropy
    identity of `generalized_entropy_supervector`.

A channel with Kraus operators {K} acts on supervectors as the lifted
operator sum(conj(K)_u x K_l); for the single-site two-Kraus channels used
here that is one 4x4 factor per site on the (u, l) bit pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin import Bipartition, check_axis, num_sites

ORACLE_MAX_SITES = 8
DENSE_MAX_SITES = 12
SUPERVECTOR_MAX_SITES = 12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

_SQ2 = 1.0 / np.sqrt(2.0)
# Columns are normalized eigenvectors of the axis operator, the +1
# eigenvector mapped to label 0, as `spin.rotate_to_basis` labels them.
BASIS_COLUMNS = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "Y": np.array([[_SQ2, 1.0j * _SQ2], [1.0j * _SQ2, _SQ2]], dtype=complex),
}


def _check_cap(L, cap, what):
    if L > cap:
        raise ValueError(
            f"{what} is capped at L <= {cap}, got L={L}; "
            "the pure-state algorithms take larger chains"
        )


def _sites_of(arr, ndim):
    """L of a 2^L x 2^L density matrix (ndim 2) or of a 4^L-component supervector (ndim 1)."""
    shape = np.shape(arr)
    n = math.prod(shape)
    L = (n.bit_length() - 1) // 2
    if len(shape) != ndim or shape[0] ** ndim != n or L < 1 or n != 4**L:
        want = "2^L x 2^L" if ndim == 2 else "4^L"
        raise ValueError(f"shape {shape} is not {want} with L >= 1")
    return L


def _check_sites(sites, L):
    for site in sites:
        if not 0 <= site < L:
            raise ValueError(f"site {site} out of range for L={L}")


def dense_hamiltonian(L):
    """Explicit 2^L x 2^L matrix of H = -sum_j (Z_j Z_{j+1} + X_j), periodic.

    The diagonal is summed bond by bond; at L=2 the periodic sum counts the
    single bond twice.
    """
    _check_cap(L, DENSE_MAX_SITES, "the dense Hamiltonian")
    idx = np.arange(2**L)
    z = 1.0 - 2.0 * ((idx[:, None] >> np.arange(L)) & 1)  # z[s, j] = +-1
    h = np.diag(-np.sum(z * np.roll(z, -1, axis=1), axis=1))
    for j in range(L):
        h[idx, idx ^ (1 << j)] -= 1.0
    return h


def apply_hamiltonian(L, state):
    """Matrix-free H @ state on a ring of L >= 2 sites: bond diagonal plus -1 per site flip.
    L=2 double-counts the single bond, as `dense_hamiltonian` does."""
    if L < 2:
        raise ValueError(f"the ring needs L >= 2, got L={L}")
    psi = np.asarray(state)
    if len(psi) != 2**L:
        raise ValueError(f"state length {len(psi)} does not match L={L}")
    idx = np.arange(2**L)
    antiparallel = np.bitwise_count(idx ^ ((idx >> 1) | ((idx & 1) << (L - 1))))
    out = (2.0 * antiparallel - L) * psi
    for j in range(L):
        out -= psi[idx ^ (1 << j)]
    return out


def dense_ground_state(L):
    """(E0, psi) from the full 2^L matrix, independent of any symmetry sector.

    psi is real, normalized and sign-fixed so its largest-magnitude
    amplitude is positive, as `tfim.ground_state` returns it.
    """
    # imported here: scipy.linalg costs ~0.3 s to import, and only this solver needs it
    from scipy.linalg import eigh

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
    m = _majorana_correlations(L)
    out = np.zeros(L + 1)
    for l_a in range(1, L + 1):
        nu = np.linalg.eigvalsh(m[: 2 * l_a, : 2 * l_a])[l_a:]  # the upper of each +-nu pair
        out[l_a] = -np.sum(np.log((1.0 + nu**2) / 2.0))
    return out


def _majorana_correlations(L):
    """M = sign(iA), A from `majorana_couplings`: i times the real antisymmetric Gamma of the ground state."""
    w, v = np.linalg.eigh(1j * majorana_couplings(L))
    return (v * np.sign(w)) @ v.conj().T


def gaussian_dephased_renyi2(L, n, axis, p_m):
    """Renyi-2 entropy of the ground-state window [0, n) of the ring after strength-p_m dephasing along `axis`.

    On a start-0 window every Pauli is a Gaussian unitary: with the
    Majoranas of `majorana_couplings`, X_j flips the signs of Majoranas 2j
    and 2j+1, Z_j those of every l > 2j, and Y_j, their product, those of
    2j and every l > 2j+1.  The channel is the mixture of P^t rho P^t over
    the strings t, so Tr[E(rho_A)^2] = sum_s W(s) Tr[rho_A P^s rho_A P^s]
    with W(s) = (2p(1-p))^|s| ((1-p)^2 + p^2)^(n-|s|), and the overlap of
    the two Gaussian states is sqrt(det((1 - Gamma D_s Gamma D_s) / 2)),
    Gamma the window block of Im M (`_majorana_correlations`) and D_s the
    signs of P^s.  2^n determinants of size 2n, at any L: the cap is on the
    window, n <= 16.  Shares no code with the state-vector paths.
    """
    check_axis(axis)
    if not 1 <= n <= min(L, 16):
        raise ValueError(f"window of {n} sites outside 1..{min(L, 16)} for L={L}")
    if not 0.0 <= p_m <= 0.5:
        raise ValueError(f"p_m={p_m} outside [0, 1/2]")
    gamma = _majorana_correlations(L).imag[: 2 * n, : 2 * n]
    j, l = np.arange(n)[:, None], np.arange(2 * n)
    x_flips, z_flips = l // 2 == j, l > 2 * j
    flips = {"X": x_flips, "Z": z_flips, "Y": x_flips ^ z_flips}[axis]  # (site, Majorana)
    strings = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    signs = 1.0 - 2.0 * ((strings @ flips) & 1)  # D_s, one row per string s
    count = strings.sum(axis=1)
    weight = (2 * p_m * (1 - p_m)) ** count * ((1 - p_m) ** 2 + p_m**2) ** (n - count)
    purity = 0.0
    for s0 in range(0, 1 << n, 1024):
        d = signs[s0 : s0 + 1024]
        m = np.eye(2 * n) - gamma @ (d[:, :, None] * gamma * d[:, None, :])
        overlap = np.sqrt(np.maximum(np.linalg.det(m / 2.0), 0.0))
        purity += weight[s0 : s0 + 1024] @ overlap
    return float(-np.log(purity))


def density_from_state(state):
    psi = np.asarray(state, dtype=complex)
    return np.outer(psi, psi.conj())


def partial_trace_dense(rho, part: Bipartition, keep="A"):
    """Exact index-summed partial trace onto subsystem `keep`."""
    _check_cap(part.L, ORACLE_MAX_SITES, "the dense oracle")
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
    _check_cap(part.L, ORACLE_MAX_SITES, "the dense oracle")
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
    L = _sites_of(rho, 2)
    _check_sites(spec.sites, L)
    out = rho.copy()
    for site in spec.sites:
        out = (1.0 - spec.p) * out + spec.p * _pauli_sandwich(out, spec.axis, site, L)
    return out


def y_decohere_dense(rho, p_y):
    """Local Y channel of strength p_y applied at every site of the chain."""
    return apply_channel_dense(rho, ChannelSpec("Y", p_y, tuple(range(_sites_of(rho, 2)))))


def vectorize(rho):
    """Density matrix -> supervector, component (k_u, m_l) = rho[m, k]."""
    rho = np.asarray(rho, dtype=complex)
    _check_cap(_sites_of(rho, 2), SUPERVECTOR_MAX_SITES, "the supervector path")
    return rho.T.reshape(-1).copy()


def devectorize(sv):
    """Exact inverse of vectorize."""
    dim = 2 ** _sites_of(sv, 1)
    return np.asarray(sv, dtype=complex).reshape(dim, dim).T.copy()


def pure_supervector(state):
    """Supervector of |psi><psi| without forming the density matrix."""
    psi = np.asarray(state, dtype=complex)
    _check_cap(num_sites(psi), SUPERVECTOR_MAX_SITES, "the supervector path")
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


def _apply_site_factor(sv, sites, factor):
    L = _sites_of(sv, 1)
    _check_sites(sites, L)
    out = np.array(sv, dtype=complex)
    for site in sites:
        _apply_pair_inplace(out, L, site, factor)
    return out


def apply_lifted_channel(sv, lifted: LiftedChannel):
    """Apply the per-site doubled factors; site order is irrelevant."""
    return _apply_site_factor(sv, lifted.sites, lifted.site_factor)


# per-site factor of the maximal depolarizer: the (u, l) pairs 00 and 11
# both become their mean, 01 and 10 vanish
_DEPOLARIZER = np.zeros((4, 4))
_DEPOLARIZER[np.ix_((0, 3), (0, 3))] = 0.5


def depolarize_subsystem(sv, sites):
    """Maximal depolarizer on `sites`: de-vectorizes to (I/d) x Tr_sites[rho]."""
    return _apply_site_factor(sv, tuple(int(s) for s in sites), _DEPOLARIZER)


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
    if _sites_of(sv, 1) != part.L:
        raise ValueError("supervector length does not match bipartition")
    return generalized_entropy_supervector(sv, part.sites_A, part.sites_B, axis, p_m)
