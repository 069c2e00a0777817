import numpy as np
import pytest

from conftest import SEED, bell_state, kron_chain, random_state, zero_state
from renyimi import Bipartition, rotate_to_basis, translate, window_coefficient_matrix
from renyimi.oracle import BASIS_COLUMNS, PAULIS
from renyimi.spin import num_sites


def test_rotate_z_is_identity():
    rng = np.random.default_rng(SEED)
    psi = random_state(4, rng)
    assert np.array_equal(rotate_to_basis(psi, "Z"), psi)


def test_rotate_z_shares_memory_with_real_state():
    # the computational basis needs no copy, and a real state stays real
    psi = random_state(4, np.random.default_rng(SEED)).real.copy()
    rot = rotate_to_basis(psi, "Z")
    assert rot.dtype == np.float64
    assert np.shares_memory(rot, psi)


def test_rotate_x_maps_plus_state_to_origin():
    L = 4
    plus = np.full(2**L, 2.0 ** (-L / 2), dtype=complex)
    rot = rotate_to_basis(plus, "X")
    expect = np.zeros(2**L, dtype=complex)
    expect[0] = 1.0
    assert np.max(np.abs(rot - expect)) < 1e-14


@pytest.mark.parametrize("axis", ["X", "Y"])
def test_rotate_preserves_norm(axis):
    rng = np.random.default_rng(SEED + 1)
    for _ in range(5):
        psi = random_state(6, rng)
        assert abs(np.linalg.norm(rotate_to_basis(psi, axis)) - 1.0) < 1e-12


@pytest.mark.parametrize("axis", ["X", "Y"])
@pytest.mark.parametrize("L", range(1, 7))
def test_rotate_matches_kronecker_reference(axis, L):
    # the transform against the adjoint eigenvector matrix applied on every site
    psi = random_state(L, np.random.default_rng(SEED + 10 * L + len(axis)))
    ref = kron_chain([BASIS_COLUMNS[axis].conj().T] * L) @ psi
    assert np.max(np.abs(rotate_to_basis(psi, axis) - ref)) <= 1e-14


@pytest.mark.parametrize("axis", ["X", "Z"])
def test_rotate_keeps_real_states_real(axis):
    psi = random_state(6, np.random.default_rng(SEED + 2)).real.copy()
    assert rotate_to_basis(psi, axis).dtype == np.float64


def test_basis_columns_diagonalize_paulis():
    # U+ M U = Z for every axis, with the +1 eigenvector on label 0
    for axis, u in BASIS_COLUMNS.items():
        d = u.conj().T @ PAULIS[axis] @ u
        assert np.max(np.abs(d - PAULIS["Z"])) < 1e-15


def test_rotate_y_eigenstate():
    # the +1 Y eigenstate on every site must map to configuration 0
    L = 3
    plus_y = BASIS_COLUMNS["Y"][:, 0]
    psi = plus_y
    for _ in range(L - 1):
        psi = np.kron(plus_y, psi)
    rot = rotate_to_basis(psi, "Y")
    assert abs(rot[0] - 1.0) < 1e-14
    assert np.max(np.abs(rot[1:])) < 1e-14


def test_bipartition_degenerate_rejected():
    with pytest.raises(ValueError):
        Bipartition(4, 0)
    with pytest.raises(ValueError):
        Bipartition(4, 4)


def _translate_by_gather(state, shift):
    """Reference translation: gather through the bit rotation of every label."""
    L = num_sites(state)
    s = shift % L
    if s == 0:
        return np.array(state)
    idx = np.arange(2**L, dtype=np.int64)
    src = ((idx >> s) | (idx << (L - s))) & (2**L - 1)
    return np.asarray(state)[src]


@pytest.mark.parametrize("L", range(1, 9))
def test_translate_matches_the_bit_rotation_gather(L):
    psi_c = random_state(L, np.random.default_rng(SEED + 40 + L))
    for psi in (psi_c.real.copy(), psi_c):
        before = psi.copy()
        for s in range(-L, 2 * L + 1):
            out = translate(psi, s)
            assert out.dtype == psi.dtype
            assert np.array_equal(out, _translate_by_gather(psi, s))
            # a new array at every shift, s = 0 mod L included
            out[:] = 0.0
            assert np.array_equal(psi, before)
    for j in range(L):
        # site j moves to site j + shift
        e_j = np.zeros(2**L)
        e_j[1 << j] = 1.0
        assert translate(e_j, 2)[1 << ((j + 2) % L)] == 1.0


def test_coefficient_matrix_bell():
    c = window_coefficient_matrix(bell_state(), 0, 1)
    s = 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(c - np.diag([s, s]))) < 1e-15


def test_coefficient_matrix_product_state():
    c = window_coefficient_matrix(zero_state(5), 0, 2)
    assert c[0, 0] == 1.0
    assert np.count_nonzero(c) == 1


def test_coefficient_matrix_is_norm_preserving():
    rng = np.random.default_rng(SEED + 2)
    psi = random_state(6, rng)
    c = window_coefficient_matrix(psi, 0, 2)
    assert abs(np.linalg.norm(c) - 1.0) < 1e-12


def test_coefficient_matrix_index_layout():
    # amplitude of configuration n sits at row (A bits), column (B bits)
    L, L_A = 5, 2
    rng = np.random.default_rng(SEED + 3)
    psi = random_state(L, rng)
    c = window_coefficient_matrix(psi, 0, L_A)
    n = 0b10110
    assert c[n & 0b11, n >> L_A] == psi[n]


def test_window_coefficient_matrix_interior_window():
    L, start, length = 6, 2, 3
    rng = np.random.default_rng(SEED + 4)
    psi = random_state(L, rng)
    c = window_coefficient_matrix(psi, start, length)
    assert c.shape == (2**length, 2 ** (L - length))
    assert abs(np.linalg.norm(c) - 1.0) < 1e-12
    n = 0b101101
    a = (n >> start) & 0b111
    lo = n & 0b11
    hi = n >> (start + length)
    assert c[a, hi * 4 + lo] == psi[n]


def test_num_sites_rejects_bad_length():
    with pytest.raises(ValueError):
        num_sites(np.zeros(3))
