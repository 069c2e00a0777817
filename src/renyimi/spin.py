"""Bit-encoded spin-1/2 state vectors, Pauli actions and bipartition machinery.

Conventions, fixed package-wide:
  * site j is bit j of the integer configuration label,
  * bit value 0 is the Z eigenvalue +1, bit value 1 is -1,
  * subsystem A of a bipartition is the low-bit window [0, L_A).

With these choices the coefficient matrix of a bipartition is a plain
reshape of the amplitude vector (an index permutation, no arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

_SQ2 = 1.0 / np.sqrt(2.0)
# Columns are normalized eigenvectors of the axis operator, the +1
# eigenvector mapped to label 0.  Fixed once so all modules agree.
BASIS_COLUMNS = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "Y": np.array([[_SQ2, _SQ2], [1.0j * _SQ2, -1.0j * _SQ2]], dtype=complex),
}

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


def apply_single_site(state, gate, site):
    """Apply a 2x2 operator to one site of a state vector."""
    L = num_sites(state)
    if not 0 <= site < L:
        raise ValueError(f"site {site} out of range for L={L}")
    v = np.asarray(state, dtype=complex).reshape(2 ** (L - 1 - site), 2, 2**site)
    out = np.empty_like(v)
    out[:, 0, :] = gate[0, 0] * v[:, 0, :] + gate[0, 1] * v[:, 1, :]
    out[:, 1, :] = gate[1, 0] * v[:, 0, :] + gate[1, 1] * v[:, 1, :]
    return out.reshape(-1)


def apply_pauli(state, axis, site):
    """Apply the Pauli operator `axis` at `site`.

    Bit-flip for X, bit-flip with +-i phases for Y, sign for Z; exact
    single-site action (coefficients are 0, +-1, +-i).
    """
    check_axis(axis)
    return apply_single_site(state, PAULIS[axis], site)


def rotate_to_basis(state, axis):
    """Re-express amplitudes in the product eigenbasis of the given axis.

    Z is the computational basis: the amplitudes come back as given
    (`np.asarray`, no copy, dtype kept), so callers must not write to them.
    For X and Y the adjoint of the fixed eigenvector matrix is applied at
    every site into a new complex array; the map is unitary, so the norm is
    preserved.
    """
    check_axis(axis)
    if axis == "Z":
        return np.asarray(state)
    gate = BASIS_COLUMNS[axis].conj().T
    out = np.asarray(state, dtype=complex)
    for site in range(num_sites(state)):
        out = apply_single_site(out, gate, site)
    return out


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


def coefficient_matrix(state, part: Bipartition):
    """c[a, b] = amplitude of the configuration with A-bits a and B-bits b."""
    if num_sites(state) != part.L:
        raise ValueError("state length does not match bipartition")
    return window_coefficient_matrix(state, 0, part.L_A)


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt decomposition across a bipartition.

    `values` are singular values in descending order; columns of `left`
    (`right`) are the A-side (B-side) vectors, so the coefficient matrix
    reconstructs as left @ diag(values) @ right.conj().T.  `rank` counts
    values above 1e-12 * values[0].
    """

    values: np.ndarray
    left: np.ndarray
    right: np.ndarray
    rank: int


def schmidt(state, part: Bipartition) -> SchmidtData:
    c = coefficient_matrix(state, part)
    u, s, vh = np.linalg.svd(c, full_matrices=False)
    if s.size and s[0] > 0:
        rank = int(np.count_nonzero(s > 1e-12 * s[0]))
    else:
        rank = 0
    return SchmidtData(values=s, left=u, right=vh.conj().T, rank=rank)
