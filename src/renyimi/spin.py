"""Bit-encoded spin-1/2 state vectors, basis rotations and bipartition machinery.

Conventions, fixed package-wide:
  * site j is bit j of the integer configuration label,
  * bit value 0 is the Z eigenvalue +1, bit value 1 is -1,
  * subsystem A of a bipartition is the low-bit window [0, L_A).

With these choices the coefficient matrix of a bipartition is a plain
reshape of the amplitude vector (an index permutation, no arithmetic).

Every basis change of the package is one transform, `_wht`: the Kronecker
power of a 2x2 site matrix, X's Hadamard matrix or Y's 1 - iX.  It serves
the X and Y rotations of `rotate_to_basis`, and in `entropy` the
Walsh-Hadamard power spectra of the low_rank plans and the Pauli-weight
histogram.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

AXES = ("X", "Y", "Z")


def check_axis(axis):
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return axis


def num_sites(state) -> int:
    """Number of sites of a length-2^L amplitude vector."""
    n = len(state)
    L = n.bit_length() - 1
    if n < 2 or (1 << L) != n:
        raise ValueError(f"state length {n} is not a power of two >= 2")
    return L


# largest factor of the transform, in bits: a factor's GEMM does 2^k
# multiply-adds per element it reads, and 5 beat 4 and 7 on the pair vectors
# of the 14-site low_rank plan at L=20
_WHT_FACTOR_BITS = 5
# the unnormalized adjoints of the site eigenvector matrices (see `rotate_to_basis`)
_SITE_MATRICES = {"X": np.array([[1.0, 1.0], [1.0, -1.0]]), "Y": np.array([[1.0, -1j], [-1j, 1.0]])}


@functools.cache
def _factor(k, site):
    """The k-site Kronecker power of `_SITE_MATRICES[site]`; read-only, as threads share it.

    On X, H[i, j] = (-1)^popcount(i & j).  Every power is symmetric, as
    both site matrices are, so `_wht` applies it from either side.
    """
    # F_{k-1} (x) m as one broadcast product, rows (i, r) and columns (j, c);
    # np.kron took twice as long, paid by the first sweep of every process
    f = _factor(k - 1, site)[:, None, :, None] * _SITE_MATRICES[site][:, None] if k else np.ones(1)
    f = f.reshape(1 << k, 1 << k)
    f.flags.writeable = False
    return f


def _wht(arr, n_bits, axis, spare=None, site="X"):
    """Unnormalized transform along `axis` by the n-bit Kronecker power of a site matrix.

    On X (the default) it is the Walsh-Hadamard transform, and on Y a real
    `arr` comes back complex; `arr` is left as it is.  F_{2^n} = F_{2^k1}
    (x) F_{2^k2} (x) ..., with near-equal `_factor`s of at most
    _WHT_FACTOR_BITS bits taken from the top bit down, so each factor is
    one GEMM on a reshape of the array: a batched `matmul` when bits below
    the factor's group remain, a plain `@` on its last group.

    With `spare`, a C-contiguous array of arr's shape and dtype (arr
    C-contiguous too, and complex on Y), the factors write into spare and
    arr in turn and nothing is allocated: arr is overwritten, and the one of
    the two that holds the result is returned.
    """
    axis %= arr.ndim
    outer = int(np.prod(arr.shape[:axis]))
    inner = int(np.prod(arr.shape[axis + 1 :]))
    n_factors = -(-n_bits // _WHT_FACTOR_BITS)
    x, hi = arr, 0
    for f in range(n_factors):
        k = n_bits // n_factors + (f < n_bits % n_factors)
        h = _factor(k, site)
        lo = n_bits - hi - k
        plain = inner << lo == 1
        shape = (-1, 1 << k) if plain else (outer << hi, 1 << k, inner << lo)
        out = None if spare is None else (spare, arr)[f % 2].reshape(shape)
        if plain:
            x = np.matmul(x.reshape(shape), h, out=out)
        else:
            x = np.matmul(h, x.reshape(shape), out=out)
        hi += k
    return x.reshape(arr.shape)


def rotate_to_basis(state, axis):
    """Re-express amplitudes in the product eigenbasis of the given axis.

    Z is the computational basis: the amplitudes come back as given
    (`np.asarray`, no copy, dtype kept), so callers must not write to them.
    X and Y return a new array.  Label 0 of a site is the +1 eigenvector of
    the axis operator; the tests' `oracle.BASIS_COLUMNS` holds these 2x2
    eigenvector matrices, whose adjoints are the `_SITE_MATRICES` over
    sqrt(2), so on L sites the rotation is `_wht` by the site matrix times
    2^(-L/2).  On Y that is 1 - iX, the pi/2 rotation about X that takes Y
    to Z, so label 1 is i|y-> and the Y-rotated ground state is
    flip-symmetric, as on Z.  A real state stays real on X.
    """
    check_axis(axis)
    psi = np.asarray(state)
    if axis == "Z":
        return psi
    L = num_sites(psi)
    out = _wht(psi, L, 0, site=axis)
    out *= 2.0 ** (-L / 2)
    return out


def translate(state, shift=1):
    """Cyclic lattice translation, site j -> j + shift, as a new array.

    With s = shift mod L, the top s bits of each label become its low bits:
    a transpose of the (2^s, 2^(L-s)) reshape of the amplitudes.
    """
    s = shift % num_sites(state)
    return np.asarray(state).reshape(2**s, -1).T.flatten()


# labels per block of `_canonical`, in bits: the representatives of L=24 took
# 0.27-0.32 s at 16, about as long at 15 and 17, 0.28-0.41 s at 14 and
# 0.45-0.47 s at 18 (three fresh processes each)
_LABEL_BLOCK_BITS = 16


def _rotate(labels, L, out=None, spare=None):
    """Each L-bit label shifted cyclically down one site: bit j + 1 to bit j, bit 0 to bit L - 1.

    With `out` (which may be `labels`) and `spare`, arrays of labels' shape
    and dtype, the result goes to out and nothing is allocated.
    """
    wrap = np.bitwise_and(labels, 1, out=spare)
    wrap <<= L - 1
    out = np.right_shift(labels, 1, out=out)
    out |= wrap
    return out


def _reverse(labels, L):
    """Each L-bit label with its sites in reverse order, bit j to bit L - 1 - j (L <= 32).

    A swap network on a uint32 copy, in place through one spare array: the
    adjacent bits, pairs, nibbles, bytes and halves trade places, and the
    reversed word is shifted down to its low L bits.
    """
    x = labels.astype(np.uint32)
    t = np.empty_like(x)
    for k, m in ((1, 0x55555555), (2, 0x33333333), (4, 0x0F0F0F0F), (8, 0x00FF00FF), (16, 0xFFFF)):
        np.right_shift(x, k, out=t)
        t &= m
        x &= m
        x <<= k
        x |= t
    del t  # before the cast: `_expand` reverses its labels beside a whole state
    x >>= 32 - L
    return x.astype(labels.dtype)


def _canonical(labels, L):
    """The least of the L cyclic shifts of each L-bit label and of their complements.

    Taken in blocks of 2^_LABEL_BLOCK_BITS labels through two reused
    buffers: a fresh temporary per shift cost three times as long at L=24.
    """
    mask = (1 << L) - 1
    best = np.minimum(labels, labels ^ mask)
    n = 1 << _LABEL_BLOCK_BITS
    cur = np.empty(min(n, labels.size), labels.dtype)
    spare = np.empty_like(cur)
    for lo in range(0, labels.size, n):
        b, c = best[lo : lo + n], labels[lo : lo + n]
        s = spare[: b.size]
        for _ in range(L - 1):
            c = _rotate(c, L, out=cur[: b.size], spare=s)
            np.minimum(b, c, out=b)
            np.bitwise_xor(c, mask, out=s)
            np.minimum(b, s, out=b)
    return best


@functools.cache
def _sector_basis(L):
    """Orbits of the L-bit labels under the shifts, the complement and the reversal R.

    Returns the representatives, sorted (int32: L <= 31), the orbit sizes
    and `index`, which takes `_canonical` labels (and overwrites them) to
    the index of their orbit.  It is the one table of each L in a process:
    the solver, the cache loader, `tfim._expand` and case 2's whole chain
    all read this cached copy, so reps and orbit are read-only.  First the
    orbits without R: a label stands for one when it equals its
    `_canonical` form, so has top bit 0, and the labels below 2^(L-1) are
    tested in blocks (no table of 2^L labels); the size is 2L over the
    shifts and shifted complements that fix it.  R then
    folds them in pairs: the mirror of a representative r is the index of
    `_canonical(R r)`, r is kept when its index is at most its mirror's (so
    it is the least label of its orbit), and its size doubles when the
    mirror is another.  `index` reads the rank of a label in a bitmap of the
    unfolded representatives (prefix popcounts of its uint64 words, then
    the bits below), through the map `dmap` of each to its kept one's index.
    """
    n = 1 << min(L - 1, _LABEL_BLOCK_BITS)
    sf = []
    for lo in range(0, 1 << (L - 1), n):
        labels = np.arange(lo, lo + n, dtype=np.int32)
        sf.append(labels[_canonical(labels, L) == labels])
    sf = np.concatenate(sf)
    comp = sf ^ ((1 << L) - 1)
    fixed = np.zeros(sf.size, dtype=np.int64)
    cur, spare = sf.copy(), np.empty_like(sf)
    for _ in range(L):
        fixed += cur == sf
        fixed += cur == comp
        _rotate(cur, L, out=cur, spare=spare)
    size = 2 * L // fixed
    del labels, comp, fixed, cur, spare  # freed before the fold: at L=20 they held 0.1 of a state
    words = np.zeros(((1 << (L - 1)) + 63) >> 6, dtype=np.uint64)
    np.bitwise_or.at(words, sf >> 6, np.left_shift(np.uint64(1), (sf & 63).astype(np.uint64)))
    counts = np.bitwise_count(words)
    below = np.cumsum(counts, dtype=np.int32) - counts

    def rank(q):
        low = np.left_shift(np.uint64(1), (q & 63).astype(np.uint64))
        low -= 1
        q >>= 6  # now the index of the label's word
        low &= words[q]
        return below[q] + np.bitwise_count(low)

    own = np.arange(len(sf), dtype=np.int32)
    mirror = rank(_canonical(_reverse(sf, L), L))
    keep = own <= mirror
    dmap = (np.cumsum(keep, dtype=np.int32) - 1)[np.minimum(own, mirror)]
    reps, orbit = sf[keep], (size * (1 + (mirror != own)))[keep]
    reps.flags.writeable = orbit.flags.writeable = False
    return reps, orbit, lambda q: dmap[rank(q)]


@dataclass(frozen=True)
class Bipartition:
    """Contiguous bipartition of a periodic chain: A = sites [0, L_A)."""

    L: int
    L_A: int

    def __post_init__(self):
        if not 0 < self.L_A < self.L:
            raise ValueError(
                f"degenerate bipartition: L_A={self.L_A} must satisfy 0 < L_A < L={self.L}"
            )

    @property
    def L_B(self) -> int:
        return self.L - self.L_A

    @property
    def d_A(self) -> int:
        return 2**self.L_A

    @property
    def d_B(self) -> int:
        return 2**self.L_B

    @property
    def windows(self) -> tuple:
        """The (start, length) windows of A, B and the whole chain, in that order."""
        return ((0, self.L_A), (self.L_A, self.L_B), (0, self.L))

    @property
    def sites_A(self) -> tuple:
        return tuple(range(self.L_A))

    @property
    def sites_B(self) -> tuple:
        return tuple(range(self.L_A, self.L))


def window_coefficient_matrix(state, start, length):
    """Coefficient matrix of a contiguous site window [start, start+length).

    Rows are labeled by window configurations, columns by the complement
    (high bits major, low bits minor).  Pure index permutation.
    """
    L = num_sites(state)
    if length < 1 or length > L:
        raise ValueError(f"window length {length} out of range for L={L}")
    if start < 0 or start + length > L:
        raise ValueError(f"window [{start}, {start + length}) does not fit in L={L}")
    psi = np.asarray(state)
    hi = L - start - length
    c = psi.reshape(2**hi, 2**length, 2**start)
    return np.transpose(c, (1, 0, 2)).reshape(2**length, -1)
