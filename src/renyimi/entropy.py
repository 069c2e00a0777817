"""Subsystem entropies and mutual information of pure and decohered chains.

The central quantity is the Renyi-2 entropy of a subsystem after a
strength-p dephasing channel on that subsystem.  In the channel eigenbasis
a density-matrix element whose two configurations differ on k sites inside
the dephased window picks up the factor lam^k with lam = 1 - 2p, so for a
pure state with Gram matrix G = C C+ (C the window coefficient matrix) the
reduced purity is

    Tr[rho_A^2] = sum_{a,a'} |G[a,a']|^2 * lam^(2 ham(a,a'))

where ham counts differing window bits.  Two kernels are implemented
behind one plan interface:

  * dense_gram: bin |G|^2 by Hamming distance once, then every p is a
    length-(L_A+1) dot product.  Needs the 2^L_A square Gram matrix.
  * low_rank: expand G through the Schmidt vectors; cost is governed by
    the Schmidt rank, which is bounded by the complement dimension.

The algorithm name rank1_full is the whole chain on low_rank: there G =
psi psi+ has Schmidt rank chi = 1 and the purity is a quadratic form of
the outcome distribution under the Kronecker kernel
prod_j [[1, lam^2], [lam^2, 1]].

The Kronecker kernel diagonalizes in the Walsh-Hadamard basis with
eigenvalue (1+mu)^(n-d) (1-mu)^d on parity sector d (mu = lam^2), so
low_rank stores a popcount-binned power spectrum once and every strength
afterwards is an O(window) dot product.

At p = 0 both reduce to the Renyi-2 entanglement entropy, at
p = 1/2 to the Renyi-2 entropy of the measurement outcome distribution.

A state with no imaginary part after the basis rotation (the real ground
state on the Z and X axes) runs every plan in real arithmetic; only the Y
axis needs complex numbers.  An L_A sweep reads the windows (0, L_A),
(L_A, L - L_A) and the whole chain; `sweep_plans` builds one plan per
distinct window, and on a translation-invariant state the B window of L_A
is the start-0 window of length L - L_A, so a symmetric sweep builds each
length once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import (
    Bipartition,
    check_axis,
    num_sites,
    rotate_to_basis,
    schmidt,
    window_coefficient_matrix,
)

DENSE_GRAM_MAX_SITES = 13
ALGORITHMS = ("auto", "dense_gram", "low_rank", "rank1_full")

_BLOCK_ELEMENTS = 1 << 22  # working-set bound for blocked kernels
# X-string blocks of the Pauli-weight histogram: 1 MiB of float64 keeps the
# transform's passes in a core's L2 cache, twice as fast as 1 << 22 at L=12
_PAULI_BLOCK_ELEMENTS = 1 << 17


def _fwht_inplace(arr, n_bits, axis=-1):
    # unnormalized Walsh-Hadamard transform along `axis` of a C-contiguous array
    axis %= arr.ndim
    n = arr.shape[axis]
    outer = int(np.prod(arr.shape[:axis]))
    for j in range(n_bits):
        v = arr.reshape(outer, n >> (j + 1), 2, -1)
        lo, hi = v[:, :, 0, :], v[:, :, 1, :]
        x = lo.copy()
        lo += hi
        np.subtract(x, hi, out=hi)


def _real_if_exact(state):
    """The amplitudes as contiguous float64 when no imaginary part is set, else as given."""
    psi = np.asarray(state)
    if np.iscomplexobj(psi) and not np.any(psi.imag):
        return np.ascontiguousarray(psi.real)
    return psi


def _abs2(z):
    if z.dtype.kind == "f":
        return z * z
    out = z.real**2
    out += z.imag**2
    return out


def _parity_bins(n):
    return np.bitwise_count(np.arange(n, dtype=np.uint64)).astype(np.int64)


class _DenseGramPlan:
    """|G|^2 binned by window Hamming distance; purity(p) is then O(L_A)."""

    def __init__(self, coeff):
        na = coeff.shape[0]
        self.n_bits = na.bit_length() - 1
        delta = np.arange(na, dtype=np.int64)
        g = np.zeros(na)
        coeff_h = coeff.conj().T
        block = max(1, _BLOCK_ELEMENTS // na)
        for r0 in range(0, na, block):
            r1 = min(na, r0 + block)
            wb = _abs2(coeff[r0:r1] @ coeff_h)
            cols = delta[r0:r1, None] ^ delta[None, :]
            g += np.take_along_axis(wb, cols, axis=1).sum(axis=0)
        self.binned = np.bincount(_parity_bins(na), weights=g, minlength=self.n_bits + 1)

    def purity(self, lam):
        mu = lam * lam
        return float(self.binned @ mu ** np.arange(self.n_bits + 1))


class _LowRankPlan:
    """Purity through the Schmidt expansion of the Gram matrix.

    G = sum_k s_k^2 u_k u_k+ splits the quadratic form into pair vectors
    w_kl[a] = u_k[a] conj(u_l[a]); their Walsh-Hadamard power spectra,
    binned by parity sector, are accumulated once (O(chi^2 L_A 2^L_A),
    chi bounded by the complement dimension).
    """

    def __init__(self, coeff):
        na = coeff.shape[0]
        self.n_bits = na.bit_length() - 1
        u, s, _ = np.linalg.svd(coeff, full_matrices=False)
        if s.size and s[0] > 0:
            keep = s > 1e-12 * s[0]
        else:
            keep = slice(0, 1)
        vectors = np.ascontiguousarray(u[:, keep].T)  # (chi, 2^L_A)
        weights2 = s[keep] ** 2
        chi = weights2.size
        ks, ls = np.triu_indices(chi)
        pair_w = weights2[ks] * weights2[ls] * np.where(ks == ls, 1.0, 2.0)
        pc = _parity_bins(na)
        spectrum = np.zeros(self.n_bits + 1)
        block = max(1, _BLOCK_ELEMENTS // na)
        for c0 in range(0, ks.size, block):
            c1 = min(ks.size, c0 + block)
            w = vectors[ks[c0:c1]] * vectors[ls[c0:c1]].conj()
            _fwht_inplace(w, self.n_bits)
            power = pair_w[c0:c1] @ _abs2(w)
            spectrum += np.bincount(pc, weights=power, minlength=self.n_bits + 1)
        self.spectrum = spectrum / na

    def purity(self, lam):
        # spectrum[d] carries the 1/2^n normalization already
        mu = lam * lam
        d = np.arange(self.n_bits + 1, dtype=np.float64)
        return float(self.spectrum @ ((1.0 + mu) ** (self.n_bits - d) * (1.0 - mu) ** d))


def _resolve_algorithm(algorithm, length, L):
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if algorithm == "auto":
        if length == L:
            return "rank1_full"
        return "dense_gram" if length <= DENSE_GRAM_MAX_SITES else "low_rank"
    if algorithm == "rank1_full" and length != L:
        raise ValueError("rank1_full applies only to the whole chain")
    if algorithm == "dense_gram" and length > DENSE_GRAM_MAX_SITES:
        raise ValueError(
            f"dense_gram is capped at window size {DENSE_GRAM_MAX_SITES}, got {length}"
        )
    return algorithm


class GsePlan:
    """Reusable evaluator of the dephased-subsystem Renyi-2 entropy.

    Bound to one pure state, one contiguous site window and one axis; the
    expensive state-dependent work happens once in the constructor and
    `entropy(p_m)` is then cheap across a strength grid.  Thread-safe after
    construction (evaluation only reads the stored arrays).
    """

    def __init__(self, state, start, length, axis, algorithm="auto"):
        check_axis(axis)
        L = num_sites(state)
        self.L = L
        self.window = (start, length)
        self.axis = axis
        self.algorithm = _resolve_algorithm(algorithm, length, L)
        rot = _real_if_exact(rotate_to_basis(state, axis))
        coeff = window_coefficient_matrix(rot, start, length)
        kernel = _DenseGramPlan if self.algorithm == "dense_gram" else _LowRankPlan
        self._impl = kernel(coeff)

    def purity(self, p_m):
        return self._impl.purity(_contraction(p_m, "p_m"))

    def entropy(self, p_m):
        return _entropy_of(self.purity(p_m))


def _contraction(p, name):
    """lam = 1 - 2p, the factor a strength-p channel puts on an off-diagonal Pauli."""
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"{name}={p} outside [0, 1/2]")
    # exact lam = 0 at the projective point, no rounding from 1 - 2*0.5
    return 0.0 if p == 0.5 else 1.0 - 2.0 * p


def _entropy_of(purity):
    if not np.isfinite(purity) or purity <= 0.0:
        raise FloatingPointError(f"purity {purity} underflowed")
    return float(-np.log(purity) + 0.0)  # +0.0 folds -0.0 into 0.0


class PauliWeightPlan:
    """Renyi-2 entropy of a window under Z-dephasing and Y-decoherence.

    The window [start, start+length) of a pure state is dephased in Z at
    strength p_m, and every site carries the Y channel at strength p_y.
    Both channels are diagonal in the Pauli basis: with lam = 1 - 2p a
    Pauli string on the window with n_X X's, n_Y Y's and n_Z Z's is scaled
    by (lam_m lam_y)^n_X lam_m^n_Y lam_y^n_Z, and the Y channel outside the
    window drops out under the partial trace.  The window purity is
    2^-n sum_P <P>^2 over the scaled expectations, so the constructor bins
    <P>^2 once into `histogram[n_X, n_Y, n_Z]` (normalization included) and
    `entropy(p_m, p_y)` is an O(n^3) contraction.

    The histogram takes one Walsh-Hadamard transform per X-string x:
    <X^x Z^z> = sum_a (-1)^(z.a) g_x[a] with g_x[a] = rho[a, a^x]
    = sum_b C[a,b] conj(C[a^x,b]), C the window coefficient matrix, so the
    reduced density matrix is never formed.  A state with no imaginary part
    runs in real arithmetic.  Thread-safe after construction.
    """

    def __init__(self, state, start, length):
        psi = _real_if_exact(state)
        self.window = (start, length)
        coeff = window_coefficient_matrix(psi, start, length)
        coeff_c = coeff.conj()
        dim = coeff.shape[0]
        k = length + 1
        labels = np.arange(dim)
        weight = _parity_bins(dim)
        hist = np.zeros(k**3)
        block = max(1, _PAULI_BLOCK_ELEMENTS // coeff.size)
        for x0 in range(0, dim, block):
            xs = labels[x0 : x0 + block]
            # g[a, x] for a block of x; the transform runs down the columns
            g = np.einsum("ab,axb->ax", coeff, coeff_c[labels[:, None] ^ xs], order="C")
            _fwht_inplace(g, length, axis=0)
            n_y = np.bitwise_count(labels[:, None] & xs).astype(np.int64)
            # bin (|x| - n_y, n_y, |z| - n_y) of the (k, k, k) histogram
            idx = weight[:, None] + weight[xs] * (k * k) + n_y * (k - k * k - 1)
            hist += np.bincount(idx.ravel(), weights=_abs2(g).ravel(), minlength=k**3)
        self.histogram = hist.reshape(k, k, k) / dim

    def purity(self, p_m, p_y):
        lam_m = _contraction(p_m, "p_m")
        lam_y = _contraction(p_y, "p_y")
        e = 2 * np.arange(self.histogram.shape[0])
        return float(
            np.einsum("ijk,i,j,k->", self.histogram, (lam_m * lam_y) ** e, lam_m**e, lam_y**e)
        )

    def entropy(self, p_m, p_y):
        return _entropy_of(self.purity(p_m, p_y))


def _check_length(state, part: Bipartition):
    if len(state) != 2**part.L:
        raise ValueError(f"state length {len(state)} is not 2^L for L={part.L}")


def _window_marginals(rot, start, length):
    """Outcome distribution of the sites [start, start+length) of a rotated state."""
    return np.sum(_abs2(window_coefficient_matrix(rot, start, length)), axis=1)


def marginal_probabilities(state, part: Bipartition, axis):
    """Outcome distribution of subsystem A in the product eigenbasis of `axis`."""
    _check_length(state, part)
    return _window_marginals(rotate_to_basis(state, axis), 0, part.L_A)


def renyi2_shannon_entropy(state, part: Bipartition, axis):
    """-log sum_a (p^A_a)^2 over the subsystem-A marginals."""
    p = marginal_probabilities(state, part, axis)
    return float(-np.log(np.sum(p**2)))


def renyi2_ee(state, part: Bipartition):
    """Renyi-2 entanglement entropy, -log sum_k s_k^4."""
    s = schmidt(state, part).values
    return float(-np.log(np.sum(s**4)))


def r2gse_pure(state, part: Bipartition, axis, p_m, algorithm="auto"):
    """Renyi-2 entropy of subsystem A after strength-p_m dephasing of A.

    Computed without forming the full density matrix; `algorithm` selects
    the dense_gram or the low_rank kernel (auto picks by window size);
    rank1_full names low_rank on the whole chain.
    """
    return GsePlan(state, 0, part.L_A, axis, algorithm=algorithm).entropy(p_m)


@dataclass(frozen=True)
class MiPoint:
    """One mutual-information sample; I2 = S_A + S_B - S_AB as stored."""

    L: int
    L_A: int
    axis: str
    p_m: float
    p_y: float
    S_A: float
    S_B: float
    S_AB: float
    I2: float


class MiPlan:
    """The S_A, S_B and S_AB plans of one bipartition; built by `build_mi_plans`.

    `plans` maps each window (start, length) to its GsePlan, as `sweep_plans`
    returns it; `point(p_m)` assembles a MiPoint and is cheap across a
    strength grid.
    """

    def __init__(self, part: Bipartition, axis, plans):
        self.part = part
        self.axis = axis
        self._plan_a = plans[(0, part.L_A)]
        self._plan_b = plans[(part.L_A, part.L_B)]
        self._plan_ab = plans[(0, part.L)]

    def point(self, p_m) -> MiPoint:
        s_a = self._plan_a.entropy(p_m)
        s_b = self._plan_b.entropy(p_m)
        s_ab = self._plan_ab.entropy(p_m)
        return MiPoint(
            L=self.part.L,
            L_A=self.part.L_A,
            axis=self.axis,
            p_m=float(p_m),
            p_y=0.0,
            S_A=s_a,
            S_B=s_b,
            S_AB=s_ab,
            I2=s_a + s_b - s_ab,
        )


def is_translation_invariant(state):
    """True when the one-site shift T of the ring fixes the state, |T psi - psi| <= 1e-12."""
    psi = np.asarray(state)
    # (bit L-1, bits 0..L-2) -> (bits 0..L-2, bit L-1): site j moves to j+1 mod L
    shifted = psi.reshape(2, -1).T.reshape(-1)
    return float(np.linalg.norm(shifted - psi)) <= 1e-12


def sweep_plans(state, L_A_values, make_plan, workers=1):
    """One plan per distinct window of an L_A sweep, keyed by each window it serves.

    The sweep reads the windows (start, length) = (0, L), and (0, L_A) and
    (L_A, L - L_A) for each L_A.  On a translation-invariant state the B
    window has the reduced density matrix of the start-0 window of the same
    length, so that one plan serves both; any other state keeps its own B
    window.  `make_plan(state, start, length)` builds a plan; with workers > 1
    the builds share a thread pool.  Returns {(start, length): plan}.
    """
    L = num_sites(state)
    invariant = is_translation_invariant(state)
    source = {(0, L): (0, L)}
    for l_a in L_A_values:
        source[(0, l_a)] = (0, l_a)
        source[(l_a, L - l_a)] = (0, L - l_a) if invariant else (l_a, L - l_a)
    # largest first: the pool ends on short builds, and the peak resident set
    # stays that of the largest plan (smallest first raised it 7% at L=14, Y axis)
    windows = sorted(set(source.values()), key=lambda w: (-w[1], w[0]))

    def build(window):
        return make_plan(state, *window)

    if workers <= 1:
        built = [build(w) for w in windows]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            built = list(pool.map(build, windows))
    plans = dict(zip(windows, built))
    return {w: plans[src] for w, src in source.items()}


def build_mi_plans(state, L_A_values, axis, workers=1):
    """MiPlans for several bipartitions of one state; returns {L_A: MiPlan}.

    The basis rotation is shared and `sweep_plans` builds one GsePlan per
    distinct window: the whole-chain plan serves every L_A, and on a
    translation-invariant state the B plan of L_A is the A plan of L - L_A.
    """
    L = num_sites(state)
    parts = [Bipartition(L, v) for v in sorted(set(int(v) for v in L_A_values))]
    rot = _real_if_exact(rotate_to_basis(state, axis))
    # Z-axis window plans of the rotated state; GsePlan is looked up at each
    # call, so a subclass swapped in for it (a tracer's) builds them all
    plans = sweep_plans(
        rot, [p.L_A for p in parts], lambda s, a, n: GsePlan(s, a, n, "Z"), workers
    )
    return {p.L_A: MiPlan(p, axis, plans) for p in parts}


def r2gsmi(state, part: Bipartition, axis, p_m) -> MiPoint:
    """Generalized mutual information S_A + S_B - S_AB of a pure state at strength p_m.

    `state` holds the 2^L amplitudes of the chain; the point comes from the
    window plans of `build_mi_plans`.
    """
    _check_length(state, part)
    return build_mi_plans(state, [part.L_A], axis)[part.L_A].point(p_m)


def r2smi(state, part: Bipartition, axis):
    """Shannon-form mutual information from the outcome marginals.

    Equals r2gsmi at p_m = 1/2, where the dephasing acts as a non-selective
    projective measurement.
    """
    _check_length(state, part)
    rot = rotate_to_basis(state, axis)
    s_a, s_b, s_ab = (
        -np.log(np.sum(_window_marginals(rot, start, length) ** 2))
        for start, length in ((0, part.L_A), (part.L_A, part.L_B), (0, part.L))
    )
    return float(s_a + s_b - s_ab)


def conjectured_cn(n, c):
    """Closed-form Renyi-n central charge: c for n=1, c*n/(n-1) for n>1."""
    if int(n) != n or n < 1:
        raise ValueError(f"Renyi index must be an integer >= 1, got {n!r}")
    n = int(n)
    return float(c) if n == 1 else float(c) * n / (n - 1)
