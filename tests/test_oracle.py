import numpy as np
import pytest

from conftest import SEED, bell_state, ghz_state, random_density
from renyimi import Bipartition, renyi2_ee
from renyimi.oracle import (
    density_from_state,
    dense_ground_state,
    free_fermion_renyi2,
    majorana_couplings,
    partial_trace_dense,
    purity_dense,
    purity_from_eigenvalues,
    r2gse_dense,
)

LOG2 = np.log(2.0)


def test_partial_trace_bell():
    rho_a = partial_trace_dense(density_from_state(bell_state()), Bipartition(2, 1), keep="A")
    assert np.max(np.abs(rho_a - np.eye(2) / 2)) < 1e-14


def test_partial_trace_product_state():
    rng = np.random.default_rng(SEED)
    rho_a = random_density(1, rng)
    rho_b = random_density(2, rng)
    rho = np.kron(rho_b, rho_a)  # B on the high bits
    part = Bipartition(3, 1)
    assert np.max(np.abs(partial_trace_dense(rho, part, keep="A") - rho_a)) < 1e-13
    assert np.max(np.abs(partial_trace_dense(rho, part, keep="B") - rho_b)) < 1e-13


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(SEED + 1)
    rho = random_density(3, rng)
    for keep in ("A", "B"):
        out = partial_trace_dense(rho, Bipartition(3, 2), keep=keep)
        assert abs(np.trace(out) - 1.0) < 1e-14


def test_purity_paths_are_consistent():
    rng = np.random.default_rng(SEED + 2)
    rho = random_density(3, rng)
    assert abs(purity_dense(rho) - purity_from_eigenvalues(rho)) < 1e-12


def test_r2gse_dense_bell():
    assert abs(r2gse_dense(bell_state(), Bipartition(2, 1), "Z", 0.0) - LOG2) < 1e-12


@pytest.mark.parametrize("p_m", [0.0, 0.2, 0.5])
def test_r2gse_dense_ghz(p_m):
    assert abs(r2gse_dense(ghz_state(4), Bipartition(4, 2), "Z", p_m) - LOG2) < 1e-12


def test_size_cap_enforced():
    rho = np.eye(2**9, dtype=complex) / 2**9
    with pytest.raises(ValueError):
        partial_trace_dense(rho, Bipartition(9, 4), keep="A")
    with pytest.raises(ValueError):
        r2gse_dense(rho, Bipartition(9, 4), "Z", 0.1)


def test_bad_subsystem_rejected():
    with pytest.raises(ValueError):
        r2gse_dense(bell_state(), Bipartition(2, 1), "Z", 0.1, subsystem="C")


@pytest.mark.parametrize("L", [3, 8, 20])
def test_majorana_energy_is_the_closed_form(L):
    eps = np.linalg.eigvalsh(1j * majorana_couplings(L))
    assert abs(-np.sum(eps[eps > 0]) + 2.0 / np.sin(np.pi / (2 * L))) < 1e-12


def test_free_fermion_renyi2_matches_exact_diagonalisation(critical):
    # the dense full-space solve at L = 8, the sector solver at L = 12
    for L, psi in ((8, dense_ground_state(8)[1]), (12, critical(12))):
        exact = free_fermion_renyi2(L)
        assert exact[0] == 0.0 and abs(exact[L]) < 1e-12
        for l_a in range(1, L):
            assert abs(renyi2_ee(psi, Bipartition(L, l_a)) - exact[l_a]) < 1e-12
