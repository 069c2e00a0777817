import os
import struct
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest

from conftest import SEED, random_state
from renyimi import (
    GroundStateResult,
    LanczosError,
    TfimModel,
    apply_hamiltonian,
    ground_state,
    load_ground_state,
    save_ground_state,
    translate,
)
from renyimi.oracle import dense_ground_state, dense_hamiltonian
from renyimi.tfim import _SECTOR_DENSE_DIM, _sector_basis


def test_apply_h_on_all_zeros_L4():
    L = 4
    psi = np.zeros(2**L, dtype=complex)
    psi[0] = 1.0
    out = apply_hamiltonian(TfimModel(L), psi)
    expect = np.zeros(2**L, dtype=complex)
    expect[0] = -4.0  # four aligned bonds
    for j in range(L):
        expect[1 << j] = -1.0  # one transverse flip each
    assert np.max(np.abs(out - expect)) < 1e-15


def test_apply_h_linearity():
    rng = np.random.default_rng(SEED)
    m = TfimModel(6)
    u = random_state(6, rng)
    v = random_state(6, rng)
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    lhs = apply_hamiltonian(m, a * u + b * v)
    rhs = a * apply_hamiltonian(m, u) + b * apply_hamiltonian(m, v)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_plus_state_expectation():
    L = 4
    plus = np.full(2**L, 2.0 ** (-L / 2), dtype=complex)
    e = np.vdot(plus, apply_hamiltonian(TfimModel(L), plus)).real
    assert abs(e - (-4.0)) < 1e-12  # X terms saturate, ZZ terms vanish


def test_apply_h_length_mismatch():
    with pytest.raises(ValueError):
        apply_hamiltonian(TfimModel(4), np.zeros(8))


def test_dense_matches_matvec():
    m = TfimModel(5)
    h = dense_hamiltonian(5)
    rng = np.random.default_rng(SEED + 1)
    psi = random_state(5, rng)
    assert np.max(np.abs(h @ psi - apply_hamiltonian(m, psi))) < 1e-12


def test_L2_dense_energy():
    # single bond counted twice by the periodic sum: E0 = -2 sqrt(2)
    energy, _ = dense_ground_state(2)
    assert abs(energy - (-2.0 * np.sqrt(2.0))) < 1e-12


def test_lanczos_rejects_L2():
    with pytest.raises(ValueError):
        ground_state(TfimModel(2))


def test_arpack_no_convergence_raises_lanczos_error(monkeypatch):
    # the CLI maps LanczosError, not scipy's ArpackNoConvergence, to exit code 3
    import scipy.sparse.linalg as sla

    def no_convergence(*args, **kwargs):
        raise sla.ArpackNoConvergence("stub", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(sla, "eigsh", no_convergence)
    L = 12  # smaller sectors take the dense eigh and never reach eigsh
    assert len(_sector_basis(L)[0]) >= _SECTOR_DENSE_DIM
    with pytest.raises(LanczosError):
        ground_state(TfimModel(L))


def test_degenerate_ritz_pair_raises_lanczos_error(monkeypatch):
    import scipy.sparse.linalg as sla

    def degenerate(h, k, **kwargs):
        return np.full(k, -1.0), np.eye(h.shape[0], k)

    monkeypatch.setattr(sla, "eigsh", degenerate)
    with pytest.raises(LanczosError, match="Ritz gap"):
        ground_state(TfimModel(12))


@lru_cache(maxsize=None)
def _solve(L, method):
    """(energy, state) from the sector solver ("lanczos") or the dense oracle ("dense")."""
    if method == "dense":
        return dense_ground_state(L)
    res = ground_state(TfimModel(L))
    return res.energy, res.state


@pytest.mark.parametrize("L", [8, 10, 12])
def test_lanczos_agrees_with_dense(L):
    # the dense oracle diagonalises the full 2^L matrix, independently of the sector
    (e_dense, psi_dense), (e_lanc, psi_lanc) = _solve(L, "dense"), _solve(L, "lanczos")
    assert abs(e_dense - e_lanc) < 1e-10
    assert psi_dense @ psi_lanc >= 1.0 - 1e-12


def test_residual_bound_L12():
    res = ground_state(TfimModel(12))
    assert res.residual <= 1e-8
    hpsi = apply_hamiltonian(TfimModel(12), res.state)
    assert np.linalg.norm(hpsi - res.energy * res.state) <= 1e-8


@pytest.mark.parametrize(
    "method, L",
    [("dense", L) for L in range(2, 13)] + [("lanczos", L) for L in range(3, 21)],
)
def test_energy_matches_closed_form(method, L):
    # exact ring energy of the critical chain; L=2 gives -2 sqrt(2), the doubled bond
    energy, _ = _solve(L, method)
    assert abs(energy + 2.0 / np.sin(np.pi / (2 * L))) <= 1e-10


def test_ground_state_is_reproducible():
    a = ground_state(TfimModel(8))
    b = ground_state(TfimModel(8))
    assert a.energy == b.energy
    assert np.array_equal(a.state, b.state)


def test_phase_fix_largest_amplitude_real_positive():
    for _, psi in (_solve(6, "dense"), _solve(6, "lanczos")):
        big = np.argmax(np.abs(psi))
        assert psi[big].imag == pytest.approx(0.0, abs=1e-14)
        assert psi[big].real > 0


def test_translation_commutes_with_h():
    rng = np.random.default_rng(SEED + 2)
    m = TfimModel(5)
    psi = random_state(5, rng)
    lhs = apply_hamiltonian(m, translate(psi, 1))
    rhs = translate(apply_hamiltonian(m, psi), 1)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_ground_state_is_translation_invariant():
    res = ground_state(TfimModel(8))
    assert np.max(np.abs(translate(res.state, 3) - res.state)) < 1e-12


@pytest.mark.parametrize("L", [7, 12, 16])
def test_lanczos_state_is_shift_and_flip_invariant(L):
    # odd and even L, dense-sector and eigsh solves; state index s ^ (2^L - 1) is 2^L - 1 - s
    _, psi = _solve(L, "lanczos")
    assert np.max(np.abs(translate(psi, 1) - psi)) <= 1e-12
    assert np.max(np.abs(psi[::-1] - psi)) <= 1e-12


@pytest.mark.parametrize("method, L", [("dense", 6), ("lanczos", 6), ("lanczos", 14)])
def test_ground_state_is_float64(method, L):
    assert _solve(L, method)[1].dtype == np.float64


def test_sector_basis_counts_every_state_once():
    # orbit sizes of the shift-and-flip group add up to the whole space
    L = 10
    reps, sidx, orbit = _sector_basis(L)
    assert orbit.sum() == 2**L
    assert np.array_equal(sidx[reps], np.arange(len(reps)))
    assert np.array_equal(sidx[reps ^ (2**L - 1)], np.arange(len(reps)))  # flip: same orbit
    assert np.array_equal(sidx[(reps >> 1) | ((reps & 1) << (L - 1))], np.arange(len(reps)))
    assert np.all(2 * L % orbit == 0)  # each orbit size divides the group order 2L


def test_cache_roundtrip(tmp_path):
    res = ground_state(TfimModel(6))
    path = tmp_path / "gs.bin"
    save_ground_state(path, res)
    loaded = load_ground_state(path)
    assert loaded.energy == res.energy
    assert np.array_equal(loaded.state, res.state)
    assert loaded.residual <= 1e-8


def test_cache_file_byte_layout(tmp_path):
    # magic, version u32, L u32, energy f64, then real f64 amplitudes, little-endian
    res = ground_state(TfimModel(3))
    path = tmp_path / "gs.bin"
    save_ground_state(path, res)
    raw = path.read_bytes()
    assert raw[:4] == b"TFGS"
    version, L = struct.unpack("<II", raw[4:12])
    assert (version, L) == (4, 3)
    (energy,) = struct.unpack("<d", raw[12:20])
    assert energy == res.energy
    (amp0,) = struct.unpack("<d", raw[20:28])
    assert amp0 == res.state[0]
    assert len(raw) == 20 + 8 * 2**3


def test_cache_rejects_version_1_record(tmp_path):
    res = ground_state(TfimModel(3))
    path = tmp_path / "gs.bin"
    old = struct.pack("<4sIId", b"TFGS", 1, 3, res.energy)
    path.write_bytes(old + np.ascontiguousarray(res.state, dtype="<c16").tobytes())
    with pytest.raises(ValueError, match="unsupported version 1"):
        load_ground_state(path)


def test_cache_refuses_complex_state(tmp_path):
    path = tmp_path / "gs.bin"
    bad = GroundStateResult(energy=0.0, state=np.full(8, 1j / np.sqrt(8)), residual=0.0)
    with pytest.raises(ValueError, match="real amplitudes"):
        save_ground_state(path, bad)
    assert not path.exists()


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "gs.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_ground_state(path)


def test_cache_rejects_truncated_file(tmp_path):
    res = ground_state(TfimModel(4))
    path = tmp_path / "gs.bin"
    save_ground_state(path, res)
    data = path.read_bytes()
    for cut in (len(data) - 16, 15):  # inside the amplitudes, inside the energy field
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError):
            load_ground_state(path)


def test_failed_cache_write_keeps_old_record(tmp_path):
    path = tmp_path / "gs.bin"
    save_ground_state(path, ground_state(TfimModel(3)))
    before = path.read_bytes()
    bad = GroundStateResult(energy=0.0, state=np.array([object()] * 8), residual=0.0)
    with pytest.raises(TypeError):
        save_ground_state(path, bad)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["gs.bin"]


def test_cli_import_loads_no_scipy():
    # scipy.linalg takes ~0.3 s to import and only a cold solve needs it;
    # the dense oracle is for tests and never runs behind the CLI
    code = (
        "import sys, renyimi.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m == 'renyimi.oracle'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.strip() == "[]"
