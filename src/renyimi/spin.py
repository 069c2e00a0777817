"""Bit-encoded spin-1/2 state vectors, basis rotations and bipartition machinery.

Conventions, fixed package-wide:
  * site j is bit j of the integer configuration label,
  * bit value 0 is the Z eigenvalue +1, bit value 1 is -1,
  * subsystem A of a bipartition is the low-bit window [0, L_A).

With these choices the coefficient matrix of a bipartition is a plain
reshape of the amplitude vector (an index permutation, no arithmetic).

Every basis change of the package is one Walsh-Hadamard transform, `_wht`:
the X and Y rotations of `rotate_to_basis`, and in `entropy` the power
spectra of the low_rank plans and the Pauli-weight histogram.
"""

from __future__ import annotations

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


# largest Hadamard factor of the transform, in bits: a factor's GEMM does 2^k
# multiply-adds per element it reads, and 5 beat 4 and 7 on the pair vectors
# of the 14-site low_rank plan at L=20
_WHT_FACTOR_BITS = 5


def _hadamard(k):
    """The 2^k x 2^k Sylvester Hadamard matrix, H[i, j] = (-1)^popcount(i & j)."""
    i = np.arange(1 << k, dtype=np.uint64)
    return 1.0 - 2.0 * (np.bitwise_count(i[:, None] & i) & 1)


_HADAMARD = [_hadamard(k) for k in range(_WHT_FACTOR_BITS + 1)]
# (-i)^n by n mod 4: the Y-basis phase of a configuration with n set bits
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])


def _wht(arr, n_bits, axis, spare=None):
    """Unnormalized Walsh-Hadamard transform along `axis`; `arr` is left as it is.

    H_{2^n} = H_{2^k1} (x) H_{2^k2} (x) ..., with near-equal factors of at
    most _WHT_FACTOR_BITS bits taken from the top bit down, so each factor
    is one GEMM on a reshape of the array: a batched `matmul` when bits
    below the factor's group remain, a plain `@` on its last group.

    With `spare`, a C-contiguous array of arr's shape and dtype (arr
    C-contiguous too), the factors write into spare and arr in turn and
    nothing is allocated: arr is overwritten, and the one of the two that
    holds the result is returned.
    """
    axis %= arr.ndim
    outer = int(np.prod(arr.shape[:axis]))
    inner = int(np.prod(arr.shape[axis + 1 :]))
    n_factors = -(-n_bits // _WHT_FACTOR_BITS)
    x, hi = arr, 0
    for f in range(n_factors):
        k = n_bits // n_factors + (f < n_bits % n_factors)
        h = _HADAMARD[k]
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
    eigenvector matrices.  The adjoint of that matrix is H/sqrt(2) on X and
    H diag(1, -i)/sqrt(2) on Y (H the 2x2 Hadamard matrix), so on L sites X
    is the Walsh-Hadamard transform times 2^(-L/2), and Y is the same after
    the phase (-i)^popcount(s) on each amplitude psi[s].  A real state
    stays real on X; Y is complex.
    """
    check_axis(axis)
    psi = np.asarray(state)
    if axis == "Z":
        return psi
    L = num_sites(psi)
    if axis == "Y":
        psi = psi * _MINUS_I_POWERS[np.bitwise_count(np.arange(psi.size, dtype=np.uint64)) & 3]
    return _wht(psi, L, 0) * 2.0 ** (-L / 2)


def translate(state, shift=1):
    """Cyclic lattice translation, site j -> j + shift, as a new array.

    With s = shift mod L, the top s bits of each label become its low bits:
    a transpose of the (2^s, 2^(L-s)) reshape of the amplitudes.
    """
    s = shift % num_sites(state)
    return np.asarray(state).reshape(2**s, -1).T.flatten()


def _sector_basis(L):
    """Orbits of the L-bit labels under the cyclic shifts and the complement.

    Returns the representatives, the orbit index of every label and the
    orbit sizes.  rep(s) is the least of the L cyclic shifts of s and of its
    complement, and s is a representative when rep(s) == s, so every
    representative has its top bit 0.  The representatives label the
    momentum-0, flip-even sector of the `tfim` solver and the X-strings of
    the whole-chain Pauli-weight histogram in `entropy`.  Index tables are
    int32, which holds every label up to L = 30.
    """
    mask = 2**L - 1
    cur = np.arange(2**L, dtype=np.int32)
    rep = np.full_like(cur, mask)
    tmp = np.empty_like(cur)
    for _ in range(L):
        np.minimum(rep, cur, out=rep)
        np.bitwise_xor(cur, mask, out=tmp)
        np.minimum(rep, tmp, out=rep)
        # rotate cur by one site in place; after L rotations it is 0 .. 2^L - 1 again
        np.bitwise_and(cur, 1, out=tmp)
        tmp <<= L - 1
        cur >>= 1
        cur |= tmp
    reps = np.flatnonzero(rep == cur).astype(np.int32)
    tmp[reps] = np.arange(len(reps), dtype=np.int32)
    sidx = np.take(tmp, rep, out=cur)
    return reps, sidx, np.bincount(sidx, minlength=len(reps))


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
