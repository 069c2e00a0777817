import numpy as np
import pytest

from conftest import SEED, kron_chain, random_density
from renyimi import ChannelSpec, apply_channel_dense, y_decohere_dense
from renyimi.oracle import density_from_state
from renyimi.spin import BASIS_COLUMNS


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec("Z", 0.6, (0,))
    with pytest.raises(ValueError):
        ChannelSpec("Z", -0.1, (0,))
    with pytest.raises(ValueError):
        ChannelSpec("Q", 0.1, (0,))
    with pytest.raises(ValueError):
        ChannelSpec("Z", 0.1, (0, 0))


def test_p_zero_is_identity():
    rng = np.random.default_rng(SEED)
    rho = random_density(3, rng)
    out = apply_channel_dense(rho, ChannelSpec("X", 0.0, (0, 1, 2)))
    assert np.max(np.abs(out - rho)) < 1e-15


def test_full_dephasing_of_plus_state():
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    out = apply_channel_dense(density_from_state(plus), ChannelSpec("Z", 0.5, (0,)))
    assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-15


def test_off_diagonal_scaling_single_qubit():
    rng = np.random.default_rng(SEED + 1)
    rho = random_density(1, rng)
    out = apply_channel_dense(rho, ChannelSpec("Z", 0.3, (0,)))
    assert abs(out[0, 0] - rho[0, 0]) < 1e-15
    assert abs(out[1, 1] - rho[1, 1]) < 1e-15
    assert abs(out[0, 1] - 0.4 * rho[0, 1]) < 1e-15  # 1 - 2p = 0.4


def test_dephasing_factor_matches_dense_channel():
    # every element of a 2-qubit state picks up (1-2p)^(differing sites)
    rng = np.random.default_rng(SEED + 2)
    rho = random_density(2, rng)
    p = 0.3
    out = apply_channel_dense(rho, ChannelSpec("Z", p, (0, 1)))
    idx = np.arange(4)
    differ = np.bitwise_count((idx[:, None] ^ idx[None, :]).astype(np.uint64))
    factors = (1.0 - 2.0 * p) ** differ
    assert np.max(np.abs(out - factors * rho)) < 1e-14


def test_y_decohere_identity_and_projective_limits():
    rng = np.random.default_rng(SEED + 3)
    rho = random_density(2, rng)
    assert np.max(np.abs(y_decohere_dense(rho, 0.0) - rho)) < 1e-15
    zero = density_from_state(np.array([1.0, 0.0], dtype=complex))
    assert np.max(np.abs(y_decohere_dense(zero, 0.5) - np.eye(2) / 2)) < 1e-15


@pytest.mark.parametrize("axis", ["X", "Y", "Z"])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5])
def test_trace_hermiticity_positivity_preserved(axis, p):
    rng = np.random.default_rng(SEED + 4)
    for L in (2, 3, 4):
        rho = random_density(L, rng)
        out = apply_channel_dense(rho, ChannelSpec(axis, p, tuple(range(L))))
        assert abs(np.trace(out) - np.trace(rho)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(out)) > -1e-10


def test_site_order_is_irrelevant():
    rng = np.random.default_rng(SEED + 5)
    rho = random_density(4, rng)
    a = apply_channel_dense(rho, ChannelSpec("Y", 0.25, (0, 1, 2, 3)))
    b = apply_channel_dense(rho, ChannelSpec("Y", 0.25, (3, 1, 0, 2)))
    assert np.max(np.abs(a - b)) < 1e-14


@pytest.mark.parametrize("axis", ["X", "Y"])
def test_axis_covariance(axis):
    # M-dephasing = rotate to the M frame, Z-dephase, rotate back
    rng = np.random.default_rng(SEED + 6)
    L, p = 3, 0.2
    rho = random_density(L, rng)
    direct = apply_channel_dense(rho, ChannelSpec(axis, p, tuple(range(L))))
    u = kron_chain([BASIS_COLUMNS[axis]] * L)
    rotated = u.conj().T @ rho @ u
    dephased = apply_channel_dense(rotated, ChannelSpec("Z", p, tuple(range(L))))
    back = u @ dephased @ u.conj().T
    assert np.max(np.abs(direct - back)) < 1e-12


def test_sites_out_of_range_rejected():
    rng = np.random.default_rng(SEED + 7)
    rho = random_density(2, rng)
    with pytest.raises(ValueError):
        apply_channel_dense(rho, ChannelSpec("Z", 0.1, (0, 2)))
