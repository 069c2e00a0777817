import numpy as np
import pytest

from conftest import SEED, bell_state, ghz_state, random_density, zero_state
from renyimi import Bipartition
from renyimi.oracle import (
    SUPERVECTOR_MAX_SITES,
    ChannelSpec,
    apply_channel_dense,
    apply_lifted_channel,
    density_from_state,
    depolarize_subsystem,
    devectorize,
    lift_channel,
    partial_trace_dense,
    pure_supervector,
    purity_dense,
    r2gse_dense,
    r2gse_supervector,
    vectorize,
    y_decohere_dense,
)


def test_vectorize_pure_zero_state():
    sv = vectorize(density_from_state(np.array([1.0, 0.0], dtype=complex)))
    expect = np.zeros(4, dtype=complex)
    expect[0] = 1.0  # (u, l) = (0, 0)
    assert np.array_equal(sv, expect)


def test_vectorize_devectorize_roundtrip():
    rng = np.random.default_rng(SEED)
    rho = random_density(3, rng)
    assert np.array_equal(devectorize(vectorize(rho)), rho)


def test_pure_supervector_matches_vectorized_projector():
    rng = np.random.default_rng(SEED + 1)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    assert np.max(np.abs(pure_supervector(psi) - vectorize(density_from_state(psi)))) < 1e-15


def test_overlap_is_hilbert_schmidt_product():
    eye2 = np.eye(2, dtype=complex) / 2
    assert np.vdot(vectorize(eye2), vectorize(eye2)) == pytest.approx(0.5)
    rng = np.random.default_rng(SEED + 2)
    rho = random_density(2, rng)
    assert abs(np.vdot(vectorize(rho), vectorize(rho)) - purity_dense(rho)) < 1e-13


def test_z_lift_is_diagonal_scaling():
    # components with u-bit != l-bit pick up 1 - 2p, everything else is untouched
    p = 0.2
    lifted = lift_channel(ChannelSpec("Z", p, (0,)))
    expect = np.diag([1.0, 1.0 - 2 * p, 1.0 - 2 * p, 1.0])
    assert np.max(np.abs(lifted.site_factor - expect)) < 1e-15


def test_y_lift_carries_conjugation_sign():
    p = 0.3
    lifted = lift_channel(ChannelSpec("Y", p, (0,)))
    yy = np.array(
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
    )
    assert np.max(np.abs(lifted.site_factor - ((1 - p) * np.eye(4) - p * yy))) < 1e-15


def test_y_lift_projective_limit_on_zero_state():
    sv = pure_supervector(np.array([1.0, 0.0], dtype=complex))
    out = apply_lifted_channel(sv, lift_channel(ChannelSpec("Y", 0.5, (0,))))
    assert np.max(np.abs(devectorize(out) - np.eye(2) / 2)) < 1e-15


@pytest.mark.parametrize("axis,p", [("X", 0.25), ("Y", 0.1), ("Z", 0.4)])
def test_lifted_path_equals_dense_path(axis, p):
    rng = np.random.default_rng(SEED + 4)
    rho = random_density(2, rng)
    spec = ChannelSpec(axis, p, (0, 1))
    lifted = apply_lifted_channel(vectorize(rho), lift_channel(spec))
    dense = apply_channel_dense(rho, spec)
    assert np.max(np.abs(devectorize(lifted) - dense)) < 1e-13


def test_depolarize_bell_qubit():
    sv = pure_supervector(bell_state())
    out = devectorize(depolarize_subsystem(sv, (1,)))
    assert np.max(np.abs(out - np.eye(4) / 4)) < 1e-14


def test_depolarizer_is_a_projector():
    rng = np.random.default_rng(SEED + 5)
    sv = vectorize(random_density(3, rng))
    once = depolarize_subsystem(sv, (0, 2))
    twice = depolarize_subsystem(once, (0, 2))
    assert np.max(np.abs(twice - once)) < 1e-13


def test_depolarize_matches_partial_trace():
    rng = np.random.default_rng(SEED + 6)
    rho = random_density(3, rng)
    part = Bipartition(3, 1)
    lhs = devectorize(depolarize_subsystem(vectorize(rho), part.sites_B))
    rhs = np.kron(np.eye(part.d_B) / part.d_B, partial_trace_dense(rho, part, keep="A"))
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_channel_norm_is_purity():
    rng = np.random.default_rng(SEED + 7)
    rho = random_density(3, rng)
    spec = ChannelSpec("X", 0.3, (0, 1, 2))
    lifted = apply_lifted_channel(vectorize(rho), lift_channel(spec))
    assert abs(np.vdot(lifted, lifted).real - purity_dense(apply_channel_dense(rho, spec))) < 1e-12


def test_dephase_and_depolarize_commute():
    rng = np.random.default_rng(SEED + 8)
    part = Bipartition(4, 2)
    sv = vectorize(random_density(4, rng))
    lifted = lift_channel(ChannelSpec("Z", 0.2, part.sites_A))
    a = depolarize_subsystem(apply_lifted_channel(sv, lifted), part.sites_B)
    b = apply_lifted_channel(depolarize_subsystem(sv, part.sites_B), lifted)
    assert np.max(np.abs(a - b)) < 1e-13


def test_r2gse_supervector_product_state():
    sv = pure_supervector(zero_state(4))
    part = Bipartition(4, 2)
    for p_m in (0.0, 0.3, 0.5):
        assert abs(r2gse_supervector(sv, part, "Z", p_m)) < 1e-12


def test_r2gse_supervector_ghz():
    sv = pure_supervector(ghz_state(5))
    for l_a in (1, 2, 4):
        for p_m in (0.0, 0.25, 0.5):
            val = r2gse_supervector(sv, Bipartition(5, l_a), "Z", p_m)
            assert abs(val - np.log(2.0)) < 1e-12


def test_r2gse_supervector_matches_dense_oracle(critical):
    psi = critical(8)
    part = Bipartition(8, 4)
    sv = pure_supervector(psi)
    val = r2gse_supervector(sv, part, "Z", 0.3)
    assert abs(val - r2gse_dense(psi, part, "Z", 0.3)) < 1e-10


def test_y_decohered_purity_cross_path(critical):
    # dense Y channel vs doubled-space lift on the L=4 critical state
    psi = critical(4)
    rho_d = y_decohere_dense(density_from_state(psi), 0.2)
    sv = apply_lifted_channel(
        pure_supervector(psi), lift_channel(ChannelSpec("Y", 0.2, tuple(range(4))))
    )
    assert np.max(np.abs(devectorize(sv) - rho_d)) < 1e-12
    assert abs(np.vdot(sv, sv).real - purity_dense(rho_d)) < 1e-10


def test_site_cap_enforced():
    too_big = np.zeros((2 ** (SUPERVECTOR_MAX_SITES + 1),) * 2, dtype=complex)
    with pytest.raises(ValueError, match="pure-state"):
        vectorize(too_big)


@pytest.mark.parametrize("n", [3, 6])
def test_pure_supervector_rejects_non_power_of_two_state(n):
    with pytest.raises(ValueError, match="power of two"):
        pure_supervector(np.ones(n, dtype=complex))


def test_bad_supervector_length_rejected():
    with pytest.raises(ValueError):
        r2gse_supervector(np.zeros(8, dtype=complex), Bipartition(2, 1), "Z", 0.1)
