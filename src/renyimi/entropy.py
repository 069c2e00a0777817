"""Subsystem entropies and mutual information of pure and decohered chains.

The central quantity is the Renyi-2 entropy of a subsystem after a
strength-p dephasing channel on that subsystem.  In the channel eigenbasis
a density-matrix element whose two configurations differ on k sites inside
the dephased window picks up the factor lam^k with lam = 1 - 2p, so for a
pure state with Gram matrix G = C C+ (C the window coefficient matrix) the
reduced purity is

    Tr[rho_A^2] = sum_{a,a'} |G[a,a']|^2 * lam^(2 ham(a,a'))

where ham counts differing window bits.  Two kernels are implemented
behind one plan interface, and the window size picks one:

  * dense_gram: bin |G|^2 by Hamming distance once, then every p is a
    length-(L_A+1) dot product.  G is built by GEMM in aligned square
    blocks, offset by offset, one per orbit of the block pairs under G's
    symmetries (its Hermiticity, and the flip below), each weighted by its
    orbit size (`_gram_orbits`, which case 2 shares); an XOR fold sums one
    offset's |G|^2 by a ^ a' with no index array.  A start-0 window of m
    sites is the n-site one with its top sites traced out, so
    `build_mi_plans` derives every smaller start-0 dense_gram window of a
    sweep from the largest one's block products, in the same pass: each
    offset's products and their orbit images are summed into one offset of
    G_{n-1}'s blocks, halved level by level down the chain.
  * low_rank: expand G through the Schmidt vectors, which one `eigh` of
    the small complement-side Gram matrix gives (no SVD), and drop the
    Schmidt pairs whose proven bounds sum to at most 2^-53 of the
    smallest purity; cost is governed by the complement dimension and the
    pairs kept.  It runs on n sites of L when 2n >= L + 4, dense_gram below.

The algorithm name rank1_full is the whole chain on low_rank: there G =
psi psi+ has Schmidt rank chi = 1 and the purity is a quadratic form of
the outcome distribution |psi|^2 under the Kronecker kernel
prod_j [[1, lam^2], [lam^2, 1]].  The one pair vector is that
distribution, so the whole chain takes no Gram matrix: |psi|^2 is
transformed and squared in place.

The Kronecker kernel diagonalizes in the Walsh-Hadamard basis with
eigenvalue (1+mu)^(n-d) (1-mu)^d on parity sector d (mu = lam^2), so
low_rank stores a popcount-binned power spectrum once and every strength
afterwards is an O(window) dot product.  The transform is `spin._wht`, a
product of small +-1 Hadamard matrices, H_{2^n} = H_{2^k1} (x) H_{2^k2}
(x) ..., each applied as one GEMM; it also serves `PauliWeightPlan` and
the X and Y basis rotations (on Y with 1 - iX in place of the 2x2 Hadamard).

A rotated state with psi(a~) = +-psi(a), a~ the complement of every bit
(the ground state on the Z axis, which lies in the prod X = +1 sector, and
on the Y axis in the labels of `rotate_to_basis`), has
G[a~, a'~] = G[a, a'] on every window.  Both kernels then work on a half
or less of the window configurations: dense_gram computes about a quarter
of G's blocks, one per orbit under the flip and transposition, and
low_rank splits G into its flip-even and flip-odd sectors, takes one
Gram `eigh` per sector on half the complement configurations (the other
half repeat them up to sign) and transforms pair vectors of definite
parity over n - 1 bits.  `Symmetry.of` tests the flip and the one-site shift once
per sweep, and `build_mi_plans` hands that record to every window it builds;
any other state (the X axis, random states) keeps the full kernels.

At p = 0 both reduce to the Renyi-2 entanglement entropy, at
p = 1/2 to the Renyi-2 entropy of the measurement outcome distribution.

Both plan classes take a state in the dephasing basis, where
`build_mi_plans` rotates it once.  The rotation keeps a real state real on
the Z and X axes, so the real ground state runs every plan there in real
arithmetic; only the Y axis needs complex numbers.  An L_A sweep reads the
windows (0, L_A), (L_A, L - L_A) and the whole chain; `build_mi_plans` builds
one plan per distinct window, and on a translation-invariant state the B
window of L_A is the start-0 window of length L - L_A, so a symmetric sweep
builds each length once, and evaluates it once over the sweep's whole
strength grid (see `MiPlan`).

Every plan has a grid method, `GsePlan.entropies(p_m_values)` and
`PauliWeightPlan.entropies(p_m_values, p_y_values)`, of which `purity` and
`entropy` are the one-point case.  A GsePlan takes one dot of its stored
spectrum with each p_m's row of strength powers; a PauliWeightPlan
contracts its histogram with each p_m's row (a GEMV), then takes one dot
per (p_m, p_y) cell.  Those are the one-point form's products in its
order, so every point keeps its bits; one GEMM over the whole grid would
round differently.

The decohered windows of case 2 run on `PauliWeightPlan`, which bins a
window's squared Pauli expectations by the two counts the channels damp:
the sites where the string anticommutes with Z, and those where it
anticommutes with Y.  It reads g_x[a] = G[a, a ^ x] off the same orbit
products of G's aligned blocks as dense_gram, a quarter of G on the flip;
the whole chain of a real state whose `Symmetry` holds the shift and the
flip, and which the site reversal fixes up to sign (the ground state),
transforms only the orbit representatives of the X-strings under all three,
about 2^L / 4L of them: `spin._sector_basis(L)`, the process's one table
of L, which the ground state's solve or cache load has already built.
Twisted by (-1)^(x.a), g_x transforms to the power of z ^ x at z, so
every spectrum of cases 1 and 2 is binned
by `_popcount_sums`, and `_fold_parity` puts back a flip-halved top bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spin import (
    Bipartition,
    _factor,
    _reverse,
    _sector_basis,
    _wht,
    num_sites,
    rotate_to_basis,
    window_coefficient_matrix,
)

# rows of the largest square block of G in case 1 (see _gram_orbits): smaller
# blocks bring the computed share of G nearer its orbit count, 1/4 on the
# flip, but a block's GEMM reads its rows of C strided by the window's 2^n,
# and at L=24 (Z and X) 256-row blocks took 1.4-1.6x the time of 1024-row
# ones on the 12- and 13-site windows.  Case 2 gathers g_x off the products,
# and of 16 .. 1024 rows, 64 and 128 took the least time over its 4- to
# 14-site windows at L=16 and 18; it takes _GRAM_BLOCK // 8
_GRAM_BLOCK = 1 << 10
# Walsh-Hadamard blocks (pair vectors of low_rank, X-strings of the Pauli-weight
# histograms): best of 1 << 15 .. 1 << 19 for the 14-site low_rank plan at L=20,
# 10-20% ahead of 1 << 17; 1 << 14 .. 1 << 17 lay within 15% of each other on
# the whole-chain histogram at L=12..16
_WHT_BLOCK_ELEMENTS = 1 << 16


def _abs2(z):
    if z.dtype.kind == "f":
        return z * z
    out = z.real**2
    out += z.imag**2
    return out


def _abs2_owned(z, out=None):
    """|z|^2 of an array no one else holds: a real one is squared in place.

    A complex one squares its imaginary part in place and sums into `out`
    (a new real array when None).
    """
    if z.dtype.kind == "f":
        return np.square(z, out=z)
    out = np.square(z.real, out=out)
    out += np.square(z.imag, out=z.imag)
    return out


@functools.cache
def _bit_table(k):
    """One-hot popcounts of the k-bit labels; read-only, as threads share it."""
    t = (np.bitwise_count(np.arange(1 << k))[:, None] == np.arange(k + 1)) * 1.0
    t.flags.writeable = False
    return t


def _popcount_sums(power, bits):
    """s[i, d] = sum of power's row i (2^bits labels a) over the a with d set bits.

    Two one-hot tables, of the high and the low half of the bits, bin each
    row by GEMM into (|a_hi|, |a_lo|), whose anti-diagonals add up to |a|.
    The Pauli-weight rows come twisted, so their bins |x ^ z| are |z| too.
    """
    lo = bits // 2
    hi_hot, lo_hot = _bit_table(bits - lo), _bit_table(lo)
    d = np.add.outer(np.arange(bits - lo + 1), np.arange(lo + 1))
    # one GEMM per half for all rows, the high half on the (2^hi, rows, lo + 1) layout
    y = (power.reshape(-1, len(lo_hot)) @ lo_hot).reshape(-1, len(hi_hot), lo_hot.shape[1])
    binned = hi_hot.T @ y.transpose(1, 0, 2).reshape(len(hi_hot), -1)
    # and one bincount: (|a_hi|, row i, |a_lo|) lands at i (bits + 1) + |a_hi| + |a_lo|
    bins = d[:, None, :] + (bits + 1) * np.arange(len(y))[:, None]
    sums = np.bincount(bins.reshape(-1), binned.reshape(-1), minlength=len(y) * (bits + 1))
    return sums.reshape(-1, bits + 1)


def _fold_parity(rows, parity):
    """t[i, d + ((d + parity[i]) & 1)] += rows[i, d]: popcount sums of n - 1 bits put on n.

    A g over n bits with g(a~) = (-1)^p g(a) transforms to twice the
    (n-1)-bit transform of its top-bit-0 half at the low bits z' of z, where
    z's top bit is (|z'| + p) mod 2, and to 0 elsewhere.
    """
    d = np.arange(rows.shape[1])
    bins = d + ((d + parity[:, None]) & 1) + (d.size + 1) * np.arange(len(rows))[:, None]
    t = np.bincount(bins.reshape(-1), rows.reshape(-1), minlength=bins.size + len(rows))
    return t.reshape(len(rows), -1)


def _gram_orbits(coeff, flip, block):
    """The blocks of G = C C+ by block offset X: (X, rows, orbit size, products).

    With nq = 2^n / block, the block pair (i, i ^ X) of G holds
    G[i block + r, (i ^ X) block + c].  Transposition maps it to (i ^ X, i),
    the conjugate transpose, and when the flip fixes the state up to sign,
    G[a~, a'~] = G[a, a'] (a~ the complement of a) maps it to
    (i ^ F, i ^ X ^ F), F = nq - 1, with the same entries: every image has
    offset X.  So each offset's pairs fall into orbits {i, i ^ X, i ^ F,
    i ^ X ^ F} of the row block, all of the size of {0, X, F, X ^ F} (1, 2
    or 4; F = 0 without the flip).  `rows` holds the least row of each
    orbit, and products[q] = C_i C_{i^X}+ of i = rows[q], one GEMM each;
    the rows lie below nq/2 on the flip.  The products are a view of one
    buffer, rewritten at the next offset.
    """
    nq = coeff.shape[0] // block
    top = nq - 1 if flip else 0
    blocks = coeff.reshape(nq, block, -1)
    products = np.empty(((nq + 1) // 2 if flip else nq, block, block), coeff.dtype)
    for x in range(nq):
        rows = np.array([i for i in range(nq) if i <= min(i ^ x, i ^ top, i ^ x ^ top)])
        for q, row in enumerate(rows):
            np.matmul(blocks[row], blocks[row ^ x].conj().T, out=products[q])
        yield x, rows, len({0, x, top, x ^ top}), products[: rows.size]


def _xor_fold(m):
    """f[q, e] = sum_r m[q, r, r ^ e] of a (k, block, block) array, block = 2^b.

    Folds the top bit of the row and column offsets at a time: the pairs
    with equal bits add into the e-bit-0 half, the unequal ones into the
    e-bit-1 half.  Each pass writes into the rows of the bit-0 half of the
    last, so `m` is overwritten and the result is a view of it.
    """
    k, block, _ = m.shape
    f = m.reshape(k, block, 1, block)  # (product, row offset, e so far, column offset)
    while f.shape[1] > 1:
        h = f.shape[1] // 2
        v = f.reshape(k, 2, h, f.shape[2], 2, h)
        v[:, 0, :, :, 0] += v[:, 1, :, :, 1]
        v[:, 0, :, :, 1] += v[:, 1, :, :, 0]
        f = v[:, 0].reshape(k, h, -1, h)
    return f.reshape(k, block)


def _abs2_into(z, buf):
    """|z|^2 of a 2-D array into the head of the flat float64 `buf`, z left as it is.

    A complex z squares its imaginary part into the next z.size entries.
    """
    out = buf[: z.size].reshape(z.shape)
    np.square(z.real, out=out)
    if z.dtype.kind == "c":
        out += np.square(z.imag, out=buf[z.size : 2 * z.size].reshape(z.shape))
    return out


def _fold_blocks(blocks, buf):
    """sum_i f_i[e] of the `_xor_fold`s of |blocks[i]|^2, squared one block at a time into `buf`."""
    return sum(_xor_fold(_abs2_into(b, buf)[None])[0] for b in blocks)


def _add_orbit(sums, x, i, top, p):
    """Add every block pair of G in the orbit of p = G's block pair (i, i ^ x) to sums[row mod len(sums)].

    The orbit's pairs (k, k ^ x) are p at k = i, its conjugate transpose at
    i ^ x and, on the flip (top = F), both of these reversed along both
    axes at i ^ F and i ^ x ^ F; each distinct row k counts once.
    """
    images = ((i, False, False), (i ^ x, True, False), (i ^ top, False, True), (i ^ x ^ top, True, True))
    seen = set()
    for row, transpose, reverse in images:
        if row in seen:
            continue
        seen.add(row)
        v = p.T if transpose else p
        v = v[::-1, ::-1] if reverse else v
        dst = sums[row % len(sums)]
        if transpose and p.dtype.kind == "c":
            dst.real += v.real
            dst.imag -= v.imag
        else:
            dst += v


def _fold_levels(cur, level, x, levels, buf):
    """Fold each smaller start-0 window's |G|^2 at offset x into its row of `levels`.

    cur holds the block pairs (k, k ^ x) of the window of `level` sites
    (k < len(cur)).  Tracing out its top site, G_{m-1}[a, a'] = G_m[a, a']
    + G_m[a + 2^(m-1), a' + 2^(m-1)], adds the upper half of the rows onto
    the lower one while there are two or more; an offset x at or past the
    new row count then reaches no smaller window.  A single block (x = 0)
    is G_m itself, and G_{m-1} = G_m[:h, :h] + G_m[h:, h:].  Each level is
    summed in place in cur, and `levels` maps the lengths to fold to their
    g, (2^m / block, block) or (1, 2^m) below the block.
    """
    lowest = min(levels)
    while True:
        if level in levels:
            levels[level][x] += _fold_blocks(cur, buf)
        if level == lowest:
            return
        k, s = cur.shape[:2]
        if k > 1:
            k //= 2
            if x >= k:
                return
            cur[:k] += cur[k:]
            cur = cur[:k]
        else:
            s //= 2
            cur[:, :s, :s] += cur[:, s:, s:]
            cur = cur[:, :s, :s]
        level -= 1


class _BinnedGram:
    """|G|^2 binned by window Hamming distance; purity(p) is then O(L_A)."""

    def __init__(self, binned):
        self.binned = binned
        self.n_bits = binned.size - 1

    def purities(self, lam):
        """The purity at each contraction of the 1-D `lam`: a row of powers of mu = lam^2, one dot each."""
        powers = (lam * lam)[:, None] ** np.arange(self.n_bits + 1)
        return np.array(list(map(self.binned.dot, powers)))

    def purity(self, lam):
        return float(self.purities(np.array([lam]))[0])


class _DenseGramPlan(_BinnedGram):
    """|G|^2 of a window and of the start-0 windows inside it, binned from one pass over G's blocks.

    g[d] = sum_a |G[a, a^d]|^2 is accumulated over the aligned square
    blocks of `_gram_orbits`: in the block pair (i, i ^ X) the entry (r, c)
    has d = X block + (r ^ c), so `_xor_fold` sums |G|^2 of one offset's
    products by r ^ c, with no index array, and the sum lands on g's block
    X.  G is Hermitian, so |G|^2 is symmetric, and d is the same on every
    block pair of an orbit: each product counts at its orbit's size.  That
    takes about half of G's blocks, and a quarter on the flip.  A complex
    state squares into one real buffer, allocated once.

    `nested` (a start-0 window's) maps smaller lengths m to None, and each
    gets the `_BinnedGram` of the window of its m low sites, G_m being G
    with its top sites traced out.  Those windows' pairs keep the top bits
    of row and column equal, so only the offsets X < nq/2 reach them: before
    such an offset squares its products, every orbit product and its images
    are added into one buffer of nq/2 blocks (`_add_orbit`), G_{n-1}'s
    blocks at X, which `_fold_levels` halves level by level.  After the
    offset's own fold the first product is free, and squares those blocks
    one at a time.  So the chain takes one window's GEMMs and one offset of
    G_{n-1} beside them.
    """

    def __init__(self, coeff, flip, nested=None):
        na = coeff.shape[0]
        n = na.bit_length() - 1
        # one offset's products hold at most na * block <= na d_B / 2 entries,
        # half of C's: at L=20 an 8 MB product buffer of the 11-site window
        # went to mmap on top of the heap that glibc keeps after the low_rank
        # plans built before it (+14% peak RSS of case 1), where 4 MB reuses it
        block = min(na // 2 if flip else na, _GRAM_BLOCK, max(1, coeff.shape[1] // 2))
        nq = na // block
        top = nq - 1 if flip else 0
        g = np.zeros((nq, block))
        cap = (nq + 1) // 2 if flip else nq  # products at one offset, at most
        squares = None if coeff.dtype.kind == "f" else np.empty((cap, block, block))
        levels = {m: np.zeros((max(1, (1 << m) // block), min(block, 1 << m))) for m in nested or ()}
        sums = np.empty((max(1, nq // 2), block, block), coeff.dtype) if levels else None
        for x, rows, weight, products in _gram_orbits(coeff, flip, block):
            nests = bool(levels) and x < len(sums)
            if nests:
                sums.fill(0.0)
                for i, p in zip(rows, products):
                    _add_orbit(sums, x, i, top, p)
            squared = _abs2_owned(products, None if squares is None else squares[: rows.size])
            g[x] = weight * _xor_fold(squared).sum(axis=0)
            if nests:
                # sums holds G_{n-1}'s blocks, or G itself when it is one block
                buf = products[0].reshape(-1).view(np.float64)
                _fold_levels(sums, n - (nq > 1), x, levels, buf)
        super().__init__(_popcount_sums(g, n)[0])
        for m, gm in levels.items():
            nested[m] = _BinnedGram(_popcount_sums(gm, m)[0])


def _row_norms2(m):
    """sum_j |m[i, j]|^2 of every row i, by einsum on the real and imaginary views: no copy of m."""
    parts = (m.real, m.imag) if m.dtype.kind == "c" else (m,)
    return sum(np.einsum("ij,ij->i", x, x) for x in parts)


def _schmidt_sectors(coeff, flip):
    """Unit Schmidt vectors (rows, C-ordered), their weights and sector parities.

    Without the flip the one sector is Y = C; with it, Y = C[a, b] +- C[a~, b]
    over the a with top window bit 0.  C[a~, b~] = +-C[a, b] makes the
    columns b and b~ of Y equal up to sign, so the columns of the first half
    of the b, unscaled, have Y's Gram matrix.  Each sector's Y^T is written
    into its rows of one array, which `eigh` of the complement-side Gram
    matrix Y+ Y turns in place into the rows of y = Y V: sum_k y_k y_k+ =
    Y V V+ Y+ = Y Y+ for any unitary V, so an inaccurate eigenvector costs
    nothing.  The Gram matrix and V^T Y^T are taken a block of columns at a
    time (a complex block's conjugate is a copy), so nothing but that array
    is state-sized.  The weights w_k = |y_k|^2 are measured, not read off
    the eigenvalues, and the rows with w_k > 0 are normalized in place.
    The complement has at least two configurations (the whole chain is
    `_outcome_power`).
    """
    na, nb = coeff.shape
    sectors = 2 if flip else 1
    m = nb // sectors  # vectors per sector, one per complement column of Y
    vectors = np.empty((nb, na // sectors), coeff.dtype)
    if flip:
        half, rev = coeff[: na // 2, : nb // 2].T, coeff[na // 2 :, : nb // 2][::-1].T
        np.add(half, rev, out=vectors[:m])
        np.subtract(half, rev, out=vectors[m:])
    else:
        vectors[...] = coeff.T
    for yt in vectors.reshape(sectors, m, -1):
        # sixteen blocks of columns: a temporary is a sixteenth of the array,
        # and at L=24 blocks of 1024 columns ran as fast as one GEMM
        step = max(1, yt.shape[1] // 16)
        blocks = [yt[:, c0 : c0 + step] for c0 in range(0, yt.shape[1], step)]
        gram = sum(t.conj() @ t.T for t in blocks)
        vt = np.linalg.eigh(gram)[1].T
        for t in blocks:
            t[...] = vt @ t
    weights = _row_norms2(vectors)
    vectors /= np.sqrt(np.where(weights > 0.0, weights, 1.0))[:, None]
    return vectors, weights, np.repeat(np.arange(sectors), m)


def _kept_pairs(weights, floor):
    """The pairs k <= l of the vectors with w > 0 that survive the pair truncation, and their weights.

    Pair (k, l) adds w_k w_l sum_{a,a'} x[a] conj(x[a']) mu^ham(a,a') to the
    purity (doubled off the diagonal), x = u_k conj(u_l), at most
    w_k w_l |x|_1^2 <= w_k w_l at every strength (Cauchy-Schwarz, |u| = 1).
    The smallest pairs are dropped while the sum of their bounds stays at or
    below `floor`.  Returns (k, l, pair weight w_k w_l or 2 w_k w_l).
    """
    nonzero = np.flatnonzero(weights > 0.0)
    ks, ls = (nonzero[t] for t in np.triu_indices(nonzero.size))
    bound = weights[ks] * weights[ls] * np.where(ks == ls, 1.0, 2.0)
    order = np.argsort(bound, kind="stable")
    dropped = np.searchsorted(np.cumsum(bound[order]), floor, side="right")
    keep = np.sort(order[dropped:])
    return ks[keep], ls[keep], bound[keep]


def _purity_floor(coeff):
    """2^-53 P(1/2): P(1/2) = sum_a G[a, a]^2, from C's row norms, bounds every purity from below.

    Dephasing channels compose, so the purity falls as p rises to 1/2.
    """
    return 2.0**-53 * float(np.sum(_row_norms2(coeff) ** 2))


def _pair_power(vectors, ks, ls, pair_w, parity, flip):
    """Weighted power spectra of the pair vectors (ks, ls), summed per pair parity (one row each).

    Each block of pair vectors is gathered, multiplied, transformed and
    squared in buffers allocated once (`np.take(out=)`, `_wht` with a
    spare), so no block allocates.  Per-block arrays of 512 KB go to mmap
    whenever glibc's mmap threshold is at its 128 KB default: allocated per
    block, their page faults doubled the X-axis case-1 run time at L=22.
    """
    m = vectors.shape[1]
    bits = m.bit_length() - 1
    pair_parity = parity[ks] ^ parity[ls]
    rows = max(1, min(ks.size, _WHT_BLOCK_ELEMENTS // m))
    left, right = np.empty((2, rows, m), vectors.dtype)
    squares = None if vectors.dtype.kind == "f" else np.empty((rows, m))
    row = np.empty(m)
    power = np.zeros((2 if flip else 1, m))
    for p, acc in enumerate(power):
        sel = pair_parity == p
        kp, lp, wp = ks[sel], ls[sel], pair_w[sel]
        for c0 in range(0, kp.size, rows):
            c1 = min(kp.size, c0 + rows)
            w, spare = left[: c1 - c0], right[: c1 - c0]
            np.take(vectors, kp[c0:c1], axis=0, out=w, mode="clip")
            np.take(vectors, lp[c0:c1], axis=0, out=spare, mode="clip")
            if squares is not None:
                np.conjugate(spare, out=spare)
            w *= spare
            t = _wht(w, bits, -1, spare)
            sq = _abs2_owned(t, None if squares is None else squares[: c1 - c0])
            acc += np.matmul(wp[c0:c1], sq, out=row)
    return power


def _outcome_power(psi, flip):
    """|WHT(P)|^2 of the outcome distribution P = |psi|^2 of the whole chain.

    On the flip P(a~) = P(a), so the transform of P vanishes at odd |k|,
    and at k = (t, k') with t = |k'| mod 2 it is the (n-1)-bit transform of
    2 P over the labels with top bit 0 (`_fold_parity` with parity 0).  P
    is transformed and squared in place: the low half of the bits along the
    rows of its (2^hi, 2^lo) view, then the high half down the columns, a
    block at a time through two buffers.
    """
    if flip:
        p = _abs2(psi[: psi.size // 2])
        p *= 2.0
    else:
        p = _abs2(psi)
    bits = p.size.bit_length() - 1
    lo = bits // 2
    mat = p.reshape(-1, 1 << lo)
    size = min(p.size, max(_WHT_BLOCK_ELEMENTS, 1 << (bits - lo)))
    buf, spare = np.empty((2, size))
    for axis, n in ((1, lo), (0, bits - lo)):
        step = size >> n
        for c0 in range(0, mat.shape[1 - axis], step):
            sub = mat[c0 : c0 + step] if axis else mat[:, c0 : c0 + step]
            a, b = (x[: sub.size].reshape(sub.shape) for x in (buf, spare))
            a[...] = sub
            sub[...] = _wht(a, n, axis, b)
    return np.square(p, out=p)


class _LowRankPlan:
    """Purity through the Schmidt expansion of the Gram matrix.

    G = sum_k w_k u_k u_k+ splits the quadratic form into pair vectors
    u_k[a] conj(u_l[a]); their Walsh-Hadamard power spectra, binned by
    parity sector, are accumulated once.  The vectors come from one `eigh`
    of the complement-side Gram matrix per sector, so chi is at most the
    complement dimension, and no SVD is taken (`_schmidt_sectors`).  The
    pairs are cut by a certified bound (`_kept_pairs`): pair (k, l) adds at
    most w_k w_l to the purity at every strength, and the smallest pairs
    are dropped while their bounds sum to at most 2^-53 P(1/2), the purity
    at p = 1/2, below every other (`_purity_floor`), so every purity moves
    by at most that fraction of itself; on the 14-site window at L=20, 698
    of 2080 pairs are kept, and 3867 of 524,800 on X at L=24.  The pair
    vectors are transformed by `_wht` in blocks of rows, a few GEMMs with
    small +-1 Hadamard factors per block (`_pair_power`).  On the whole
    chain chi = 1 and the one pair vector is the outcome distribution
    |psi|^2, which `_outcome_power` transforms with no Gram matrix.

    When the flip fixes the state up to sign, the rows (C[a] +- C[a~])/sqrt(2)
    over the a with top window bit 0 span orthogonal sectors of G, so two
    half-height sectors, each on half the complement columns, replace the
    full one (see `_schmidt_sectors`).  The pair vector of two sector vectors
    is even under a -> a~, or odd when exactly one of them is odd; its
    transform vanishes unless |k| has that parity, and there it equals the
    (n-1)-bit transform of x_k conj(x_l) (x the sector vectors, over the a
    with top bit 0) at the low bits k' of k; `_fold_parity` bins it.

    The working set beside the state: the one array of Schmidt vectors
    (half a state on the flip), then it and the block buffers; on the whole
    chain the outcome distribution (half a state on the flip) and two
    buffers.  tracemalloc at L=20: the 14-site plan peaks at 0.65 state
    sizes on Z, 1.16 on X and 0.67 on Y (1.0, 2.0 and 2.0 through the
    SVD), the whole chain at 0.6 (1.1 on X, 0.5 on Y).
    """

    def __init__(self, coeff, flip):
        na, nb = coeff.shape
        self.n_bits = na.bit_length() - 1
        if nb == 1:
            power = _outcome_power(coeff[:, 0], flip)[None]
        else:
            vectors, weights, parity = _schmidt_sectors(coeff, flip)
            pairs = _kept_pairs(weights, _purity_floor(coeff))
            power = _pair_power(vectors, *pairs, parity, flip)
        sums = _popcount_sums(power, self.n_bits - flip)
        # row p of a flip-halved power holds the pair vectors of parity p
        spectrum = _fold_parity(sums, np.arange(len(sums))).sum(axis=0) if flip else sums[0]
        self.spectrum = spectrum / na

    def purities(self, lam):
        """The purity at each contraction of the 1-D `lam`: a row of sector eigenvalues, one dot each."""
        # spectrum[d] carries the 1/2^n normalization already
        mu = (lam * lam)[:, None]
        d = np.arange(self.n_bits + 1, dtype=np.float64)
        kernel = (1.0 + mu) ** (self.n_bits - d) * (1.0 - mu) ** d
        return np.array(list(map(self.spectrum.dot, kernel)))

    def purity(self, lam):
        return float(self.purities(np.array([lam]))[0])


class GsePlan:
    """Reusable evaluator of the dephased-subsystem Renyi-2 entropy.

    Bound to one pure state in the dephasing basis (`rotate_to_basis` takes
    a state there) and one contiguous site window; the expensive
    state-dependent work happens once in the constructor, and
    `entropies(p_m_values)` then evaluates a whole strength grid at O(L_A) a
    point; `entropy(p_m)` is its one-point case.  The window size picks the
    kernel, named in `algorithm`: rank1_full (low_rank on the whole chain),
    low_rank on n sites of an L-site chain when 2n >= L + 4, dense_gram
    below.  That rule is fitted to both kernels' build times on the Z axis
    at L = 16 to 24, where they cross at 2n = L + 4 (`BENCH_case1_eigh.json`):
    the GEMMs of dense_gram take about 2^(L+n) multiply-adds and those of
    low_rank about 2^(2L-n), plus the transforms of its kept pairs, a few
    thousand at most.  The rule was fitted to windows built one by one and
    is not refit for the chain: in a sweep the start-0 dense_gram windows
    cost about their largest window's build (`_nested`, which
    `build_mi_plans` hands each window of the chain; the largest one fills
    it with the spectra of the others).
    `symmetry` is the state's `Symmetry`, and its `flip` tells whether the
    kernel worked on half the window configurations; `build_mi_plans` tests
    it once for all the windows of a sweep and hands it in as `_symmetry`,
    and a plan built on its own tests it itself.  Thread-safe after
    construction (evaluation only reads the stored arrays).
    """

    def __init__(self, state, start, length, *, _symmetry=None, _nested=None):
        self.window = (start, length)
        self.algorithm = _gse_algorithm(num_sites(state), length)
        self.symmetry = Symmetry.of(state) if _symmetry is None else _symmetry
        if _nested is not None and _nested.get(length) is not None:
            # a start-0 window that its chain's largest window has derived
            self._impl = _nested[length]
            return
        coeff = window_coefficient_matrix(state, start, length)
        if self.algorithm == "dense_gram":
            self._impl = _DenseGramPlan(coeff, self.symmetry.flip, _nested)
        else:
            self._impl = _LowRankPlan(coeff, self.symmetry.flip)

    def entropies(self, p_m_values):
        """The entropy at each strength of the sequence `p_m_values`, as a float64 array."""
        return _entropies_of(self._impl.purities(_contractions(p_m_values, "p_m")))

    def purity(self, p_m):
        return self._impl.purity(_contraction(p_m, "p_m"))

    def entropy(self, p_m):
        return float(self.entropies((p_m,))[0])


def _gse_algorithm(L, length):
    """The kernel that GsePlan runs on a window of `length` of L sites."""
    if length == L:
        return "rank1_full"
    return "low_rank" if 2 * length >= L + 4 else "dense_gram"


def _contractions(values, name):
    """lam = 1 - 2p of each strength p of `values`, the factor a strength-p channel puts on an off-diagonal Pauli."""
    p = np.asarray(values, dtype=np.float64)
    outside = ~((p >= 0.0) & (p <= 0.5))  # nan is outside too
    if outside.any():
        raise ValueError(f"{name}={values[np.argmax(outside)]} outside [0, 1/2]")
    # exact lam = 0 at the projective point, no rounding from 1 - 2*0.5
    return np.where(p == 0.5, 0.0, 1.0 - 2.0 * p)


def _contraction(p, name):
    return float(_contractions((p,), name)[0])


def _entropies_of(purity):
    """-log of each purity; FloatingPointError unless every one is finite and positive."""
    purity = np.asarray(purity, dtype=np.float64)
    valid = np.isfinite(purity) & (purity > 0.0)
    if not valid.all():
        raise FloatingPointError(f"purity {purity[~valid][0]} underflowed")
    return -np.log(purity) + 0.0  # +0.0 folds -0.0 into 0.0


def _entropy_of(purity):
    return float(_entropies_of(purity))


def _twisted_bins(g, xs, n, weights=1.0):
    """H[|x|, |z|] of the rows g[j] = g_x (x = xs[j]) of a block, twisted in place.

    Twisted by (-1)^(x.a), the rows x of two Hadamard factors (`_factor`)
    of the high and low bits of a, g_x transforms to the power of z ^ x at
    z, so `_popcount_sums` bins |x ^ z| at |z|; a one-hot GEMM (times
    `weights`) adds the rows at |x|.
    """
    m, size = g.shape
    bits = size.bit_length() - 1
    lo = bits - bits // 2
    t = g.reshape(m, -1, 1 << lo)
    t *= _factor(bits - lo, "X")[(xs >> lo) & ((size >> lo) - 1), :, None]
    t *= _factor(lo, "X")[xs & ((1 << lo) - 1), None, :]
    power = _abs2_owned(_wht(t.reshape(m, size), bits, -1))
    one_hot = np.where(np.bitwise_count(xs)[:, None] == np.arange(n + 1), weights, 0.0)
    return one_hot.T @ _popcount_sums(power, bits)


def _gram_histogram(coeff, flip):
    """Pauli-weight histogram of a window from the aligned blocks of its Gram matrix.

    g_x[a] = G[a, a ^ x], so on the row block k, for x = X block + e, it
    reads the entries (r, r ^ e) of the block pair (k, k ^ X).  `_gram_orbits`
    forms one pair per orbit: the row k = i of a product reads it there,
    the row k = i ^ X reads (r ^ e, r) of it conjugated (G is Hermitian),
    and every entry of g_x repeats on the flip image a~ of a, as
    G[a~, a'~] = G[a, a'], so the row k = i ^ X ^ F reads the latter
    reversed in r.  Two within-block tables of (r, e) serve all these
    reads.  With the flip, g_x twisted by (-1)^(x.a) has the flip parity
    |x| mod 2, so the row blocks below nq/2 and an (n-1)-bit transform
    suffice, and `_fold_parity` puts the top bit of z back.  The strings
    x are binned by `_twisted_bins` in chunks of a bounded transform, and
    the blocks have at most _GRAM_BLOCK // 8 rows: neither depends on the
    complement, so neither shrinks as L grows.
    """
    dim = coeff.shape[0]
    n = dim.bit_length() - 1
    half = dim // 2 if flip else dim
    block = min(half, _GRAM_BLOCK // 8)
    r = np.arange(block)
    # a product's flat offsets of (r, r ^ e) and (r ^ e, r), [e, r]
    direct, transposed = r * block + (r[:, None] ^ r), (r[:, None] ^ r) * block + r
    step = min(block, max(1, _WHT_BLOCK_ELEMENTS // half))
    grid = np.empty((step, half // block, block), coeff.dtype)  # (string, row block, r)
    h = np.zeros((n + 1, n + 1 - flip))
    for x, rows, _, products in _gram_orbits(coeff, flip, block):
        products = products.reshape(rows.size, -1)
        # the row blocks i ^ y read the transposed products, reversed in r when y = x ^ F
        y = min(x, x ^ (dim // block - 1)) if flip else x
        reads = transposed if y == x else transposed[:, ::-1]
        for e in range(0, block, step):
            grid[:, rows] = products.take(direct[e : e + step], axis=1).transpose(1, 0, 2)
            if y:
                grid[:, rows ^ y] = products.take(reads[e : e + step], axis=1).conj().transpose(1, 0, 2)
            h += _twisted_bins(grid.reshape(step, half), x * block + r[e : e + step], n)
    # a flip-even transform is twice its (n-1)-bit half
    h = _fold_parity(h, np.arange(n + 1) & 1) * 4.0 if flip else h
    return h / dim


def _orbit_histogram(psi, reps, orbit):
    """Whole-chain Pauli weights of a real shift-invariant state that the flip and R fix up to sign.

    g_x[a] = psi[a] psi[a ^ x].  A shift of x shifts g_x, and so z, and
    leaves every bin; the reversal R of x reverses g_x and z, as psi(R a) =
    +-psi(a), and leaves every bin too; the complement x~ has g_x~ = +-g_x,
    with |x~| = L - |x| and |x~ ^ z| = L - |x ^ z|.  So each orbit
    representative x of `_sector_basis` (`reps`, with the sizes `orbit`)
    adds its powers at weight orbit/2 in its own bins and at orbit/2 in its
    complement's, which is the whole histogram reversed along both axes.  x
    has top bit 0, so `_twisted_bins` runs over L - 1 bits as in
    `_gram_histogram`, with the orbit sizes as weights.
    """
    dim = psi.size
    L = dim.bit_length() - 1
    half = dim // 2
    head = psi[:half]
    low = np.arange(half)
    h = np.zeros((L + 1, L))
    block = max(1, _WHT_BLOCK_ELEMENTS // half)
    for r0 in range(0, reps.size, block):
        xs = reps[r0 : r0 + block]
        h += _twisted_bins(head * psi[xs[:, None] ^ low], xs, L, orbit[r0 : r0 + block, None])
    h = _fold_parity(h, np.arange(L + 1) & 1)
    # orbit/2 weights, and the flip-even transform is twice its half: 4 / 2
    return (h + h[::-1, ::-1]) * (2.0 / dim)


class PauliWeightPlan:
    """Renyi-2 entropy of a window under Z-dephasing and Y-decoherence.

    The window [start, start+length) of a pure state is dephased in Z at
    strength p_m, and every site carries the Y channel at strength p_y.
    Both channels are diagonal in the Pauli basis: with lam = 1 - 2p a
    Pauli string X^x Z^z on the window is scaled by lam_m on each site where
    it anticommutes with Z (its X and Y sites, |x| of them) and by lam_y on
    each site where it anticommutes with Y (its X and Z sites, |x ^ z| of
    them), and the Y channel outside the window drops out under the partial
    trace.  The window purity is 2^-n sum_P <P>^2 over the scaled
    expectations, so the constructor bins <P>^2 once into
    `histogram[|x|, |x ^ z|]` (normalization included), and every grid
    point of `entropies(p_m_values, p_y_values)` is the O(n^2) form
    lam_m^2i H[i, j] lam_y^2j; `entropy(p_m, p_y)` is its one-point case.

    Each X-string x contributes a Walsh-Hadamard transform over a:
    <X^x Z^z> = sum_a (-1)^(z.a) g_x[a] with g_x[a] = rho[a, a^x] = G[a, a^x],
    G = C C+ the Gram matrix of the window coefficient matrix C, so the
    reduced density matrix is never formed.  Twisted by (-1)^(x.a), g_x
    transforms to <X^x Z^(z^x)> at z, so both paths bin at plain |z|, as
    case 1 does (`_twisted_bins`, `_fold_parity`).  `algorithm` names the path:

      * chain_orbits: the whole chain of a real state whose `symmetry`
        holds the shift and the flip, and which the site reversal R fixes
        up to sign (the critical ground state), transforms the orbit
        representatives of the cached `_sector_basis(L)` alone (the table
        the solver and the cache loader read), about 2^L / 4L X-strings,
        over L - 1 bits.  R is tested here on the representatives, weighted
        by sqrt(orbit): the full 2-norm of psi(R a) -+ psi(a) on such a state;
      * gram_blocks: any other window or state reads g_x off the orbit
        products of G's aligned blocks (`_gram_orbits`, shared with
        dense_gram), over n - 1 bits on a flip-symmetric state.

    `state` is in the Z (dephasing) basis, and a real (float64) one runs in
    real arithmetic; `symmetry` and `_symmetry` are as on GsePlan.
    Thread-safe after construction.
    """

    def __init__(self, state, start, length, *, _symmetry=None):
        psi = np.asarray(state)
        self.window = (start, length)
        self.symmetry = sym = Symmetry.of(psi) if _symmetry is None else _symmetry
        L = num_sites(psi)
        chain = length == L and sym.flip and sym.translation and psi.dtype.kind == "f"
        if chain:
            reps, orbit, _ = _sector_basis(L)
            sq = np.sqrt(orbit)[:, None]
            mirror = psi[_reverse(reps, L), None] * sq
            chain = _near(mirror, psi[reps, None] * sq, (np.subtract, np.add))
        if chain:
            self.algorithm = "chain_orbits"
            self.histogram = _orbit_histogram(psi, reps, orbit)
        else:
            self.algorithm = "gram_blocks"
            coeff = window_coefficient_matrix(psi, start, length)
            self.histogram = _gram_histogram(coeff, sym.flip)

    def purities(self, p_m_values, p_y_values):
        """The purity on the grid p_m_values x p_y_values, as a (p_m, p_y) array.

        One row lam_m^2i H[i, :] per p_m (a GEMV), then one dot with
        lam_y^2j per cell, the one-point form's products in its order: one
        GEMM of the whole grid rounds differently in the last bit.
        """
        e = 2 * np.arange(self.histogram.shape[0])
        lam_m = _contractions(p_m_values, "p_m")[:, None] ** e
        lam_y = _contractions(p_y_values, "p_y")[:, None] ** e
        rows = [row @ self.histogram for row in lam_m]
        return np.array([list(map(row.dot, lam_y)) for row in rows]).reshape(len(lam_m), len(lam_y))

    def entropies(self, p_m_values, p_y_values):
        """The entropy on the grid p_m_values x p_y_values, as a (p_m, p_y) float64 array."""
        return _entropies_of(self.purities(p_m_values, p_y_values))

    def purity(self, p_m, p_y):
        return float(self.purities((p_m,), (p_y,))[0, 0])

    def entropy(self, p_m, p_y):
        return float(self.entropies((p_m,), (p_y,))[0, 0])


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
    return _entropy_of(np.sum(p**2))


def renyi2_ee(state, part: Bipartition):
    """Renyi-2 entanglement entropy, -log |M|_F^2 with M = C C+ or C+ C, whichever is smaller.

    Both are Gram matrices of the Schmidt decomposition, sum_k s_k^4 = |M|_F^2,
    and one GEMM forms either.
    """
    _check_length(state, part)
    c = window_coefficient_matrix(state, 0, part.L_A)
    if c.shape[0] > c.shape[1]:
        c = c.T
    gram = c @ c.conj().T
    return _entropy_of(np.vdot(gram, gram).real)


def r2gse_pure(state, part: Bipartition, axis, p_m):
    """Renyi-2 entropy of subsystem A after strength-p_m dephasing of A.

    Computed without forming the full density matrix, by the kernel that
    `GsePlan` picks for a window of L_A sites.
    """
    _check_length(state, part)
    return GsePlan(rotate_to_basis(state, axis), 0, part.L_A).entropy(p_m)


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
    """The S_A, S_B and S_AB plans of one bipartition; every sweep's MiPoints come from here.

    `plans` holds the plans of the windows A, B and AB (`Bipartition.windows`)
    as `build_mi_plans` builds them: GsePlans or PauliWeightPlans.
    `point(*strengths)` is the one-point view: it passes the strengths,
    (p_m,) or (p_m, p_y), to each plan's `entropy`.  A sweep evaluates its
    grid through the plans' grid method instead, `entropies(p_m_values)` or
    `entropies(p_m_values, p_y_values)`, which contracts every grid point as
    the one-point form does, to the bit.  The MiPlans of one sweep share
    plans: the whole chain serves every L_A, and a B window may be another
    L_A's A window, so a sweep (`experiments`) evaluates each distinct plan
    once over its whole grid.
    """

    def __init__(self, part: Bipartition, axis, plans):
        self.part = part
        self.axis = axis
        self._plan_a, self._plan_b, self._plan_ab = (plans[w] for w in part.windows)

    @property
    def plans(self):
        return (self._plan_a, self._plan_b, self._plan_ab)

    def point(self, *strengths) -> MiPoint:
        """The MiPoint at `strengths`."""
        s_a, s_b, s_ab = (plan.entropy(*strengths) for plan in self.plans)
        p_m, p_y = (*map(float, strengths), 0.0)[:2]  # p_y = 0 on pure-state plans
        return MiPoint(
            L=self.part.L,
            L_A=self.part.L_A,
            axis=self.axis,
            p_m=p_m,
            p_y=p_y,
            S_A=s_a,
            S_B=s_b,
            S_AB=s_ab,
            I2=s_a + s_b - s_ab,
        )


def _near(a, b, ops):
    """True when |op(a, b)| <= 1e-12 in the 2-norm for one of the ufuncs `ops`.

    a and b are equal-shape 2-D views; the squared differences are summed
    a block of rows at a time through one buffer, an operation is no longer
    run once its sum is past the bound, and the test stops once every one
    is.  (The sum |a|^2 + |b|^2 -+ 2 Re <a, b> would need no buffer, but it
    cancels to far above 1e-24.)
    """
    sums = dict.fromkeys(ops, 0.0)
    rows = max(1, _WHT_BLOCK_ELEMENTS // a.shape[1])
    buf = np.empty(min(a.shape[0], rows) * a.shape[1], np.result_type(a, b))
    for r0 in range(0, a.shape[0], rows):
        a_rows, b_rows = a[r0 : r0 + rows], b[r0 : r0 + rows]
        d = buf[: a_rows.size].reshape(a_rows.shape)
        for op in sums:
            op(a_rows, b_rows, out=d)
            sums[op] += np.vdot(d, d).real
        sums = {op: s for op, s in sums.items() if np.sqrt(s) <= 1e-12}  # nan fails as well
        if not sums:
            return False
    return True


@dataclass(frozen=True)
class Symmetry:
    """The symmetries of a state that the plans use, each tested to 1e-12 in the 2-norm.

    flip: the global flip fixes the state up to sign, |psi(a~) -+ psi(a)|
    <= 1e-12, with a~ the complement of every bit of a, so psi(a~) is
    `psi[::-1]`; the kernels then work on half the window configurations.
    translation: the one-site shift T of the ring fixes it, |T psi - psi|
    <= 1e-12, where (T psi)[2r + t] = psi[2^(L-1) t + r] (see
    `spin.translate`) is the transposed (2, 2^(L-1)) view of the amplitudes;
    `build_mi_plans` then shares plans between windows of one length.
    """

    flip: bool
    translation: bool

    @classmethod
    def of(cls, state):
        psi = np.asarray(state)
        return cls(
            flip=_near(psi[::-1, None], psi[:, None], (np.subtract, np.add)),
            translation=_near(psi.reshape(2, -1).T, psi.reshape(-1, 2), (np.subtract,)),
        )


def build_mi_plans(state, L_A_values, axis, workers=1, plan=None):
    """MiPlans for several bipartitions of one state; returns {L_A: MiPlan}.

    The state is rotated to the `axis` basis and its `Symmetry` tested once,
    and each `Bipartition.windows` of the sweep gets a `plan` (GsePlan when
    None, PauliWeightPlan for case 2) built as `plan(rotated, start, length,
    _symmetry=symmetry)`.  On a translation-invariant state the B window has
    the reduced density matrix of the start-0 window of the same length, so
    that plan serves both; any other state keeps its own B window.  On
    GsePlans the start-0 dense_gram windows are one chain: its largest
    window is built first and derives the spectra of the others from its
    Gram blocks (`_DenseGramPlan`), and each of them still gets its own plan.
    With workers > 1 the builds share a thread pool, and the chain is one
    task of it.
    """
    # GsePlan is looked up at each call, so a subclass swapped in for it
    # (a tracer's) builds them all
    plan = GsePlan if plan is None else plan
    rot = rotate_to_basis(state, axis)
    symmetry = Symmetry.of(rot)
    L = num_sites(rot)
    parts = [Bipartition(L, v) for v in sorted(set(int(v) for v in L_A_values))]
    source = {w: (0, w[1]) if symmetry.translation else w for part in parts for w in part.windows}
    # largest first: the pool ends on short builds, and the peak resident set
    # stays that of the largest plan (smallest first raised it 7% at L=14, Y axis)
    windows = sorted(set(source.values()), key=lambda w: (-w[1], w[0]))
    # the start-0 dense_gram windows of a GsePlan sweep are one chain, built
    # as one task in its largest window's place: that one derives the others
    chain = [w for w in windows if w[0] == 0 and issubclass(plan, GsePlan)
             and _gse_algorithm(L, w[1]) == "dense_gram"]
    tasks = [chain if w in chain[:1] else [w] for w in windows if w not in chain[1:]]

    def build(task):
        if len(task) == 1:
            return [plan(rot, *task[0], _symmetry=symmetry)]
        nested = dict.fromkeys(length for _, length in task[1:])
        return [plan(rot, *w, _symmetry=symmetry, _nested=nested) for w in task]

    if workers <= 1:
        built = [build(task) for task in tasks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            built = list(pool.map(build, tasks))
    by_window = dict(zip((w for task in tasks for w in task), (p for ps in built for p in ps)))
    plans = {w: by_window[src] for w, src in source.items()}
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
    s_a, s_b, s_ab = (_entropy_of(np.sum(_window_marginals(rot, *w) ** 2)) for w in part.windows)
    return s_a + s_b - s_ab


def conjectured_cn(n, c):
    """Closed-form Renyi-n central charge: c for n=1, c*n/(n-1) for n>1."""
    if int(n) != n or n < 1:
        raise ValueError(f"Renyi index must be an integer >= 1, got {n!r}")
    n = int(n)
    return float(c) if n == 1 else float(c) * n / (n - 1)
