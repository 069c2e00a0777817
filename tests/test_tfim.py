import os
import struct
import subprocess
import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from conftest import SEED, random_state
from renyimi import cli, tfim
from renyimi import (
    GroundStateResult,
    LanczosError,
    ground_state,
    load_ground_state,
    save_ground_state,
    translate,
)
from renyimi.oracle import apply_hamiltonian, dense_ground_state, dense_hamiltonian
from renyimi.spin import _canonical, _reverse, _rotate, _sector_basis
from renyimi.tfim import _SECTOR_DENSE_DIM


def test_apply_h_on_all_zeros_L4():
    L = 4
    psi = np.zeros(2**L, dtype=complex)
    psi[0] = 1.0
    out = apply_hamiltonian(L, psi)
    expect = np.zeros(2**L, dtype=complex)
    expect[0] = -4.0  # four aligned bonds
    for j in range(L):
        expect[1 << j] = -1.0  # one transverse flip each
    assert np.max(np.abs(out - expect)) < 1e-15


def test_apply_h_linearity():
    rng = np.random.default_rng(SEED)
    L = 6
    u = random_state(L, rng)
    v = random_state(L, rng)
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    lhs = apply_hamiltonian(L, a * u + b * v)
    rhs = a * apply_hamiltonian(L, u) + b * apply_hamiltonian(L, v)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_plus_state_expectation():
    L = 4
    plus = np.full(2**L, 2.0 ** (-L / 2), dtype=complex)
    e = np.vdot(plus, apply_hamiltonian(L, plus)).real
    assert abs(e - (-4.0)) < 1e-12  # X terms saturate, ZZ terms vanish


def test_apply_h_length_mismatch():
    with pytest.raises(ValueError):
        apply_hamiltonian(4, np.zeros(8))
    # a ring needs two sites, even where the length matches
    with pytest.raises(ValueError, match="L >= 2"):
        apply_hamiltonian(1, np.zeros(2))


def test_dense_matches_matvec():
    # odd and even rings, L=2 with its doubled bond among them
    rng = np.random.default_rng(SEED + 1)
    for L in range(2, 11):
        psi = random_state(L, rng)
        assert np.max(np.abs(dense_hamiltonian(L) @ psi - apply_hamiltonian(L, psi))) < 1e-12


def test_L2_dense_energy():
    # single bond counted twice by the periodic sum: E0 = -2 sqrt(2)
    energy, _ = dense_ground_state(2)
    assert abs(energy - (-2.0 * np.sqrt(2.0))) < 1e-12


def test_lanczos_rejects_L2():
    with pytest.raises(ValueError):
        ground_state(2)


def test_lanczos_no_convergence_raises_lanczos_error(monkeypatch):
    # the CLI maps LanczosError to exit code 3; the real solver runs into its product cap
    monkeypatch.setattr(tfim, "_LANCZOS_MAX_PRODUCTS", tfim._LANCZOS_NCV)
    L = 12  # smaller sectors take the dense eigh and never reach the Lanczos solver
    assert len(_sector_basis(L)[0]) >= _SECTOR_DENSE_DIM
    with pytest.raises(LanczosError, match="no convergence"):
        ground_state(L)


def test_nan_product_raises_lanczos_error_before_the_cap(monkeypatch):
    products = []

    def nan_product(h, v):
        products.append(len(v))
        return np.full(len(v), np.nan)

    monkeypatch.setattr(tfim, "_sector_product", nan_product)
    with pytest.raises(LanczosError, match="non-finite"):
        ground_state(12)
    assert len(products) == 1 < tfim._LANCZOS_MAX_PRODUCTS


def test_degenerate_ritz_pair_raises_lanczos_error(monkeypatch):
    def degenerate(h, v0):
        return np.full(2, -1.0), np.eye(len(v0), 2)

    monkeypatch.setattr(tfim, "_lanczos", degenerate)
    with pytest.raises(LanczosError, match="Ritz gap"):
        ground_state(12)


def _nan_levels(h, v0):
    return np.array([-1.0, np.nan]), np.full((len(v0), 2), np.nan)


def _nan_vectors(h, v0):
    return np.array([-1.0, 0.0]), np.full((len(v0), 2), np.nan)


@pytest.mark.parametrize("stub", [_nan_levels, _nan_vectors])
def test_nan_eigensolver_raises_lanczos_error(monkeypatch, stub):
    # a NaN level fails the Ritz-gap check, NaN vectors the residual bound
    monkeypatch.setattr(tfim, "_lanczos", stub)
    with pytest.raises(LanczosError):
        ground_state(12)


@pytest.mark.parametrize("stub", [_nan_levels, _nan_vectors])
def test_cli_ground_nan_solve_exits_3_and_writes_no_record(tmp_path, capsys, monkeypatch, stub):
    monkeypatch.setattr(tfim, "_lanczos", stub)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("L = 12\n")
    cache = tmp_path / "cache"
    assert cli.main(["ground", "--config", str(cfg_file), "--cache-dir", str(cache)]) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert os.listdir(cache) == []


@pytest.mark.parametrize("L", range(11, 15))
def test_lanczos_matches_dense_sector_eigh(L):
    # the two levels of the sector matrix, and Ritz vectors at the tolerance
    h = tfim._sector_hamiltonian(L)
    dim = len(h[0])
    theta, vecs = tfim._lanczos(h, np.random.default_rng(SEED + L).standard_normal(dim))
    exact = np.linalg.eigh(tfim._sector_product(h, np.eye(dim)))[0][:2]
    assert np.max(np.abs(theta - exact)) <= 1e-12
    for t, x in zip(theta, vecs.T):
        assert np.linalg.norm(tfim._sector_product(h, x) - t * x) <= 1e-13 * abs(t)


@pytest.mark.parametrize("L", range(3, 23))
def test_sector_levels_match_free_fermions(L, monkeypatch):
    # the gap check takes the second sector level for the first excited state:
    # two fermions at +-pi/L, E1 - E0 = 8 sin(pi/2L), also momentum-0, flip-
    # and reversal-even; the dense branch below L=12, the solver's Lanczos
    # above, whose true residual must stay within its Ritz tolerance
    h = tfim._sector_hamiltonian(L)
    if L < 12:
        theta = np.linalg.eigvalsh(tfim._sector_product(h, np.eye(len(h[0]))))
    else:
        levels, lanczos = [], tfim._lanczos

        def recorded(h, v0):
            theta, vecs = lanczos(h, v0)
            levels.append(theta)
            return theta, vecs

        monkeypatch.setattr(tfim, "_lanczos", recorded)
        res = ground_state(L)
        (theta,) = levels
        assert res.residual <= tfim._LANCZOS_TOL * abs(res.energy)
    assert abs(theta[1] - theta[0] - 8.0 * np.sin(np.pi / (2 * L))) <= 1e-12
    assert abs(theta[0] + 2.0 / np.sin(np.pi / (2 * L))) <= 1e-13


def test_cli_ground_loads_no_scipy(tmp_path):
    # the sector solve is numpy alone: a cold `renyimi ground` imports no scipy
    # module, and no `numpy.random`, as it starts from |+>^L
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("L = 12\n")
    code = (
        "import sys; from renyimi import cli; "
        f"code = cli.main(['ground', '--config', {str(cfg_file)!r}, "
        f"'--cache-dir', {str(tmp_path / 'cache')!r}]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m.startswith('numpy.random')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert "cache = miss" in out and out.splitlines()[-1] == "0 []"
    assert os.listdir(tmp_path / "cache") == [os.path.basename(tfim.cache_path("", 12))]


def test_cli_ground_never_expands_the_state(tmp_path, monkeypatch):
    # a cold `renyimi ground` solves, checks and writes the sector vector
    # alone, on one orbit table
    def no_expand(*args):
        raise AssertionError("the 2^L state was expanded")

    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("L = 12\n")
    _sector_basis.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(tfim, "_expand", no_expand)
        assert cli.main(["ground", "--config", str(cfg_file), "--cache-dir", str(tmp_path)]) == 0
    assert _sector_basis.cache_info().misses == 1
    path = tfim.cache_path(str(tmp_path), 12)
    assert os.path.getsize(path) == 20 + 8 * len(_sector_basis(12)[0])
    assert np.array_equal(load_ground_state(path).state, ground_state(12).state)


@lru_cache(maxsize=None)
def _solve(L, method):
    """(energy, state) from the sector solver ("lanczos") or the dense oracle ("dense")."""
    if method == "dense":
        return dense_ground_state(L)
    res = ground_state(L)
    return res.energy, res.state


@pytest.mark.parametrize("L", [8, 10, 12])
def test_lanczos_agrees_with_dense(L):
    # the dense oracle diagonalises the full 2^L matrix, independently of the sector
    (e_dense, psi_dense), (e_lanc, psi_lanc) = _solve(L, "dense"), _solve(L, "lanczos")
    assert abs(e_dense - e_lanc) < 1e-10
    assert psi_dense @ psi_lanc >= 1.0 - 1e-12


def test_residual_bound_L12():
    res = ground_state(12)
    assert res.residual <= 1e-8
    hpsi = apply_hamiltonian(12, res.state)
    assert np.linalg.norm(hpsi - res.energy * res.state) <= 1e-8


@pytest.mark.parametrize("L", [3, 4, 7, 10, 11, 16, 20])
def test_expanded_state_is_an_eigenvector_in_the_full_space(L):
    # the solve bounds the sector residual; the expansion is checked here, on
    # the dense (L <= 10) and Lanczos branches and on odd and even L
    res = ground_state(L)
    psi = res.state
    assert np.linalg.norm(apply_hamiltonian(L, psi) - res.energy * psi) <= 1e-12


@pytest.mark.parametrize(
    "method, L",
    [("dense", L) for L in range(2, 13)] + [("lanczos", L) for L in range(3, 21)],
)
def test_energy_matches_closed_form(method, L):
    # exact ring energy of the critical chain; L=2 gives -2 sqrt(2), the doubled bond
    energy, _ = _solve(L, method)
    assert abs(energy + 2.0 / np.sin(np.pi / (2 * L))) <= 1e-10


def test_ground_state_is_reproducible():
    a = ground_state(8)
    b = ground_state(8)
    assert a.energy == b.energy
    assert np.array_equal(a.state, b.state)


def test_phase_fix_largest_amplitude_real_positive():
    for _, psi in (_solve(6, "dense"), _solve(6, "lanczos")):
        big = np.argmax(np.abs(psi))
        assert psi[big].imag == pytest.approx(0.0, abs=1e-14)
        assert psi[big].real > 0


@pytest.mark.parametrize("L", range(3, 17))
def test_ground_state_is_strictly_positive(L):
    # Perron-Frobenius: -H is non-negative off the diagonal and connected, so
    # its top vector has one sign on every label; the sign fix relies on it
    assert _solve(L, "lanczos")[1].min() > 0


def test_translation_commutes_with_h():
    rng = np.random.default_rng(SEED + 2)
    psi = random_state(5, rng)
    lhs = apply_hamiltonian(5, translate(psi, 1))
    rhs = translate(apply_hamiltonian(5, psi), 1)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_ground_state_is_translation_invariant():
    res = ground_state(8)
    assert np.max(np.abs(translate(res.state, 3) - res.state)) < 1e-12


@pytest.mark.parametrize("L", [7, 12, 16])
def test_lanczos_state_is_shift_and_flip_invariant(L):
    # odd and even L, dense-sector and Lanczos solves; state index s ^ (2^L - 1) is 2^L - 1 - s
    _, psi = _solve(L, "lanczos")
    assert np.max(np.abs(translate(psi, 1) - psi)) <= 1e-12
    assert np.max(np.abs(psi[::-1] - psi)) <= 1e-12


@pytest.mark.parametrize("L", [7, 12, 16])
def test_lanczos_state_is_exactly_reversal_even(L):
    # psi(R s) = psi(s) to the bit, R the site reversal j -> L - 1 - j
    _, psi = _solve(L, "lanczos")
    assert np.array_equal(psi[_reverse(np.arange(2**L), L)], psi)


@pytest.mark.parametrize("L, dim", [(10, 44), (11, 63), (12, 122), (20, 13648), (24, 176906)])
def test_dihedral_sector_dimension(L, dim):
    # about 2^L / 4L states, half the shift-and-flip sector; L <= 11 takes the dense eigh
    assert len(_sector_basis(L)[0]) == dim
    assert (dim < _SECTOR_DENSE_DIM) == (L <= 11)


@pytest.mark.parametrize("method, L", [("dense", 6), ("lanczos", 6), ("lanczos", 14)])
def test_ground_state_is_float64(method, L):
    assert _solve(L, method)[1].dtype == np.float64


def test_sector_basis_counts_every_state_once():
    # orbit sizes of the group of the shifts, the flip and the reversal add up
    # to the whole space
    L = 10
    reps, orbit, index = _sector_basis(L)
    assert orbit.sum() == 2**L
    assert np.all(np.diff(reps) > 0)  # sorted and unique
    assert np.array_equal(_canonical(reps, L), reps)
    assert np.array_equal(_canonical(reps ^ (2**L - 1), L), reps)  # flip: same orbit
    assert np.array_equal(_canonical(_rotate(reps, L), L), reps)  # shift: same orbit
    own = np.arange(len(reps))
    assert np.array_equal(index(_canonical(_reverse(reps, L), L)), own)  # reversal: same orbit
    assert np.all(4 * L % orbit == 0)  # each orbit size divides the group order 4L


def _table_sector_basis(L):
    """The orbits through a table of all 2^L labels: representatives, the orbit
    index of every label, orbit sizes.  The group is the shifts, the
    complement and the site reversal (its images are read off the reversed
    bit strings).  The reference for the table-free basis."""
    mask = 2**L - 1
    starts = [np.arange(2**L, dtype=np.int32)]
    rep = np.full_like(starts[0], mask)
    tmp = np.empty_like(starts[0])
    starts.append(np.array([int(format(x, f"0{L}b")[::-1], 2) for x in range(2**L)], np.int32))
    for cur in starts:
        for _ in range(L):
            np.minimum(rep, cur, out=rep)
            np.bitwise_xor(cur, mask, out=tmp)
            np.minimum(rep, tmp, out=rep)
            # rotate cur by one site in place; after L rotations it is back where it began
            np.bitwise_and(cur, 1, out=tmp)
            tmp <<= L - 1
            cur >>= 1
            cur |= tmp
    labels = starts[0]
    reps = np.flatnonzero(rep == labels).astype(np.int32)
    tmp[reps] = np.arange(len(reps), dtype=np.int32)
    sidx = np.take(tmp, rep, out=labels)
    return reps, sidx, np.bincount(sidx, minlength=len(reps))


@pytest.mark.parametrize("L", range(3, 13))
def test_sector_basis_matches_the_label_table(L):
    # odd and even L: the same orbits as the construction that indexes every
    # label, and the same Hamiltonian entries and expanded amplitudes
    reps_t, sidx, orbit_t = _table_sector_basis(L)
    reps, orbit, _ = _sector_basis(L)
    assert np.array_equal(reps, reps_t) and reps.dtype == reps_t.dtype
    assert np.array_equal(orbit, orbit_t)
    diag, flips, sq = tfim._sector_hamiltonian(L)
    antiparallel = np.bitwise_count(reps ^ ((reps >> 1) | ((reps & 1) << (L - 1))))
    cols = np.stack([sidx[reps ^ (1 << j)] for j in range(L)])
    assert flips.shape == (L, len(reps)) and flips.dtype == np.intp
    assert np.array_equal(flips, cols)
    assert diag.tobytes() == (2.0 * antiparallel - L).tobytes()
    assert sq.tobytes() == np.sqrt(orbit_t.astype(np.float64)).tobytes()
    amp = np.random.default_rng(SEED + L).standard_normal(len(reps))
    assert tfim._expand(L, amp).tobytes() == amp[sidx].tobytes()


@pytest.mark.parametrize("L", range(3, 13))
def test_dihedral_basis_partitions_the_labels(L):
    # brute force: the 4L images of every label under the shifts, the
    # complement and the reversal, each found on the bit strings
    def shifts(s):
        return [s[k:] + s[:k] for k in range(L)]

    def images(x):
        s = format(x, f"0{L}b")
        t = s.translate(str.maketrans("01", "10"))
        return {int(y, 2) for y in shifts(s) + shifts(t) + shifts(s[::-1]) + shifts(t[::-1])}

    reps, orbit, _ = _sector_basis(L)
    orbits = {min(images(x)): images(x) for x in range(2**L)}
    assert sorted(orbits) == reps.tolist()  # each representative is the least label of its orbit
    assert [len(orbits[r]) for r in reps.tolist()] == orbit.tolist()
    assert sum(orbit.tolist()) == 2**L
    # the orbits are disjoint, so every label lies in exactly one of them
    assert sorted(x for o in orbits.values() for x in o) == list(range(2**L))
    assert np.all(4 * L % orbit == 0)  # each orbit size divides the group order 4L


def _searchsorted_sector_hamiltonian(L, reps, orbit):
    """The dihedral sector's CSR with each flipped label's column found by binary
    search in the sorted representatives, after the least of the `_canonical`
    forms of the label and of its reversal.  The reference for the bitmap rank."""
    from scipy.sparse import csr_matrix

    dim = len(reps)
    sq = np.sqrt(orbit.astype(np.float64))
    cols = np.empty((dim, L + 1), dtype=np.int32)
    vals = np.empty((dim, L + 1))
    cols[:, 0] = np.arange(dim)
    vals[:, 0] = tfim._bond_diagonal(L, reps)
    for j in range(L):
        flipped = reps ^ (1 << j)
        k = np.searchsorted(
            reps, np.minimum(_canonical(flipped, L), _canonical(_reverse(flipped, L), L))
        )
        cols[:, j + 1] = k
        vals[:, j + 1] = -sq / sq[k]
    indptr = np.arange(0, dim * (L + 1) + 1, L + 1, dtype=np.int32)
    return csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(dim, dim))


@pytest.mark.parametrize("L", range(3, 17))
def test_sector_hamiltonian_rank_matches_binary_search(L):
    reps, orbit, _ = _sector_basis(L)
    diag, flips, sq = tfim._sector_hamiltonian(L)
    ref = _searchsorted_sector_hamiltonian(L, reps, orbit)
    cols = ref.indices.reshape(len(reps), L + 1)
    assert np.array_equal(ref.indptr, np.arange(0, cols.size + 1, L + 1))
    assert flips.dtype == np.intp and np.array_equal(flips, cols[:, 1:].T)
    assert diag.tobytes() == ref.data[:: L + 1].tobytes()
    # the off-diagonal values of the CSR are the ratios of the orbit norms
    assert np.array_equal(ref.data.reshape(len(reps), L + 1)[:, 1:].T, -sq / sq[flips])


@pytest.mark.parametrize("L", range(3, 17))
def test_sector_product_matches_the_csr_reference(L, monkeypatch):
    # diag v - sq sum_j (v / sq)[flips[j]] against the CSR's row sums, on one
    # vector and on a block of them; each row within the rounding bound of
    # two sums of L + 2 terms, and blocks of 8 rows (the last one partial)
    # sum in the same order
    reps, orbit, _ = _sector_basis(L)
    h = tfim._sector_hamiltonian(L)
    ref = _searchsorted_sector_hamiltonian(L, reps, orbit)
    rng = np.random.default_rng(SEED + L)
    for v in (rng.standard_normal(len(reps)), rng.standard_normal((len(reps), 3))):
        hv = tfim._sector_product(h, v)
        assert hv.shape == v.shape and hv.dtype == np.float64
        scale = abs(ref) @ np.abs(v)
        assert np.all(np.abs(hv - ref @ v) <= 2 * (L + 2) * np.finfo(float).eps * scale)
        with monkeypatch.context() as m:
            m.setattr(tfim, "_BLOCK_BITS", 3)
            assert tfim._sector_product(h, v).tobytes() == hv.tobytes()


def _traced_peak(f, *args):
    """f(*args) and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sector_basis_holds_no_label_table():
    # the labels are canonicalised in blocks, so the pass holds the
    # representatives before the reversal folds them (1/40 of the labels at
    # L=20), a bitmap of them (1/128 of a state) and a few blocks; the
    # uncached build is traced, as a table cached earlier would read as no peak
    L = 20
    assert _traced_peak(_sector_basis.__wrapped__, L)[1] < 0.25 * 8 * 2**L


def test_ground_state_holds_one_state_sized_array():
    # the flip table (half a state) and the 21-row Lanczos basis; no 2^L
    # table, and no expanded state: `ground_state` returns the sector vector
    L = 18
    res, peak = _traced_peak(ground_state, L)
    assert peak < 2.0 * 8 * 2**L
    assert "state" not in vars(res)


def test_lanczos_holds_its_basis_and_a_few_sector_vectors():
    # the 21-row basis, a product's few vectors and the restart's rotation in
    # column blocks of one 128 KB buffer; a whole-row rotation would add 11 rows
    L = 20
    h = tfim._sector_hamiltonian(L)
    peak = _traced_peak(tfim._lanczos, h, h[2])[1]
    assert peak < 30 * 8 * len(h[0])


def test_first_state_read_holds_no_label_temporary():
    # the expansion writes the state through two label buffers of the
    # sector's size (1/600 of a state each at L=20) and no per-shift temporaries
    L = 20
    res = ground_state(L)
    psi, peak = _traced_peak(lambda: res.state)
    assert psi is res.state
    assert peak < 1.03 * 8 * 2**L


def test_cache_roundtrip(tmp_path):
    res = ground_state(6)
    path = tmp_path / "gs.bin"
    save_ground_state(path, res)
    loaded = load_ground_state(path)
    assert loaded.energy == res.energy
    assert np.array_equal(loaded.state, res.state)
    assert loaded.residual <= 1e-8


def test_cache_residual_is_the_norm_of_the_residual_vector(tmp_path, monkeypatch):
    # a record perturbed off the eigenvector, still inside the bound: the
    # sector residual it loads with is the full-space ||H psi - E psi|| of
    # its expanded state, which the rounding of either side cannot reach
    L = 12
    res = ground_state(L)
    amp = res.amp.copy()
    amp[1] += 1e-10
    path = tmp_path / "gs.bin"
    save_ground_state(path, GroundStateResult(L, res.energy, 0.0, amp))
    monkeypatch.setattr(tfim, "_BLOCK_BITS", 5)  # blocks of 32 sector rows
    loaded = load_ground_state(path)
    psi = loaded.state
    full = np.linalg.norm(apply_hamiltonian(L, psi) - res.energy * psi)
    assert 1e-11 < loaded.residual <= 1e-8
    assert abs(loaded.residual - full) <= 1e-4 * full


def test_solve_and_load_report_one_residual(tmp_path):
    # the solve and the load share one sector residual over the same
    # amplitude bytes and header energy, so they agree to the last bit
    res = ground_state(16)
    path = tmp_path / "gs.bin"
    save_ground_state(path, res)
    assert load_ground_state(path).residual == res.residual


def test_cache_load_holds_no_state_sized_temporary(tmp_path):
    L = 20
    res = ground_state(L)
    path = tmp_path / "gs.bin"
    save_ground_state(path, res)
    loaded, peak = _traced_peak(load_ground_state, path)
    assert "state" not in vars(loaded)
    # the rebuilt flip table (L * dim intp entries, half a state) and the
    # residual's sector vectors; the state is expanded only when read
    assert peak <= 0.85 * 8 * 2**L
    assert np.array_equal(loaded.state, res.state)


def test_cache_file_byte_layout(tmp_path):
    # magic, version u32, L u32, energy f64, then one real f64 amplitude per
    # orbit of the sector basis, little-endian
    res = ground_state(3)
    path = tmp_path / "gs.bin"
    save_ground_state(path, res)
    raw = path.read_bytes()
    assert raw[:4] == b"TFGS"
    version, L = struct.unpack("<II", raw[4:12])
    assert (version, L) == (6, 3)
    (energy,) = struct.unpack("<d", raw[12:20])
    assert energy == res.energy
    dim = len(_sector_basis(3)[0])
    assert raw[20:] == np.asarray(res.amp, dtype="<f8").tobytes()
    assert len(raw) == 20 + 8 * dim


def test_cache_rejects_version_1_record(tmp_path):
    res = ground_state(3)
    path = tmp_path / "gs.bin"
    old = struct.pack("<4sIId", b"TFGS", 1, 3, res.energy)
    path.write_bytes(old + np.ascontiguousarray(res.state, dtype="<c16").tobytes())
    with pytest.raises(ValueError, match="unsupported version 1"):
        load_ground_state(path)


def test_cache_rejects_version_5_record(tmp_path):
    # version 5 held one amplitude per orbit of the shift-and-flip sector,
    # whose representatives are the labels equal to their `_canonical` form
    L = 12
    res = ground_state(L)
    labels = np.arange(2**L)
    reps = labels[_canonical(labels, L) == labels]
    old = struct.pack("<4sIId", b"TFGS", 5, L, res.energy)
    path = tmp_path / "gs.bin"
    path.write_bytes(old + np.ascontiguousarray(res.state[reps], dtype="<f8").tobytes())
    with pytest.raises(ValueError, match="unsupported version 5"):
        load_ground_state(path)


def test_cache_refuses_complex_state(tmp_path):
    path = tmp_path / "gs.bin"
    res = ground_state(3)
    bad = GroundStateResult(3, res.energy, 0.0, res.amp * 1j)
    with pytest.raises(ValueError, match="real amplitudes"):
        save_ground_state(path, bad)
    assert not path.exists()


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "gs.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_ground_state(path)


def test_cache_rejects_truncated_file(tmp_path, monkeypatch):
    res = ground_state(4)
    path = tmp_path / "gs.bin"
    save_ground_state(path, res)
    data = path.read_bytes()
    # inside the amplitudes, inside the energy field, a partial trailing
    # amplitude; then headers of L = 2^32 - 1, 2 and 25, refused before the
    # loader builds its sector basis
    for bad in (data[: len(data) - 16], data[:15], data + b"\0" * 3):
        path.write_bytes(bad)
        with pytest.raises(ValueError):
            load_ground_state(path)
    monkeypatch.setattr(tfim, "_sector_basis", None)  # a call raises TypeError
    for L in (2**32 - 1, 2, 25):
        path.write_bytes(data[:8] + struct.pack("<I", L) + data[12:])
        with pytest.raises(ValueError, match=f"L={L} outside"):
            load_ground_state(path)


def test_cache_rejects_a_record_past_the_residual_bound(tmp_path):
    res = ground_state(6)
    path = tmp_path / "gs.bin"
    save_ground_state(path, res)
    raw = bytearray(path.read_bytes())
    raw[20:28] = struct.pack("<d", res.amp[0] + 1e-3)  # the first orbit amplitude
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="residual .* above bound"):
        load_ground_state(path)


def test_failed_cache_write_keeps_old_record(tmp_path):
    path = tmp_path / "gs.bin"
    res = ground_state(3)
    save_ground_state(path, res)
    before = path.read_bytes()
    bad = GroundStateResult(3, 0.0, 0.0, np.array([object()] * len(res.amp)))
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
