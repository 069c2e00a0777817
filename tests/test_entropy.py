import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from conftest import (
    SEED,
    bell_state,
    ghz_state,
    kernel_entropy,
    plus_state,
    random_state,
    zero_state,
)
from renyimi import (
    Bipartition,
    GsePlan,
    PauliWeightPlan,
    build_mi_plans,
    conjectured_cn,
    marginal_probabilities,
    r2gse_pure,
    r2gsmi,
    r2smi,
    renyi2_ee,
    renyi2_shannon_entropy,
    translate,
)
from renyimi import entropy
from renyimi.oracle import (
    ChannelSpec,
    apply_lifted_channel,
    density_from_state,
    gaussian_dephased_renyi2,
    generalized_entropy_supervector,
    lift_channel,
    partial_trace_dense,
    pure_supervector,
    r2gse_dense,
    y_decohere_dense,
)
from renyimi.entropy import Symmetry
from renyimi.spin import (
    _factor,
    _reverse,
    _sector_basis,
    _wht,
    rotate_to_basis,
    window_coefficient_matrix,
)

LOG2 = np.log(2.0)


def test_marginals_plus_state_uniform():
    part = Bipartition(5, 2)
    p = marginal_probabilities(plus_state(5), part, "Z")
    assert np.max(np.abs(p - 0.25)) < 1e-14


def test_marginals_ghz():
    part = Bipartition(6, 3)
    p = marginal_probabilities(ghz_state(6), part, "Z")
    assert abs(p[0] - 0.5) < 1e-14
    assert abs(p[-1] - 0.5) < 1e-14
    assert np.max(np.abs(p[1:-1])) < 1e-14


def test_marginals_critical_state_match_reduced_density(critical):
    psi = critical(8)
    part = Bipartition(8, 4)
    p = marginal_probabilities(psi, part, "Z")
    assert abs(np.sum(p) - 1.0) < 1e-10
    rho_a = partial_trace_dense(density_from_state(psi), part, keep="A")
    assert np.max(np.abs(p - np.diag(rho_a).real)) < 1e-12


def test_r2se_uniform_and_ghz():
    assert abs(renyi2_shannon_entropy(plus_state(5), Bipartition(5, 2), "Z") - 2 * LOG2) < 1e-12
    assert abs(renyi2_shannon_entropy(ghz_state(6), Bipartition(6, 3), "Z") - LOG2) < 1e-12


def test_r2se_equals_projective_gse(critical):
    psi = critical(8)
    part = Bipartition(8, 3)
    for axis in ("X", "Y", "Z"):
        diff = abs(
            renyi2_shannon_entropy(psi, part, axis) - r2gse_pure(psi, part, axis, 0.5)
        )
        assert diff < 1e-10


def test_renyi2_ee_bell_and_product():
    assert abs(renyi2_ee(bell_state(), Bipartition(2, 1)) - LOG2) < 1e-12
    assert abs(renyi2_ee(zero_state(5), Bipartition(5, 2))) < 1e-12


def test_entropy_signs_and_zero_vector_agree_with_the_plans():
    # a product state has the entropy +0.0 on every path, not -0.0 from -log(1)
    part = Bipartition(5, 2)
    psi = zero_state(5)
    for value in (
        renyi2_ee(psi, part),
        renyi2_shannon_entropy(psi, part, "Z"),
        GsePlan(psi, 0, 2).entropy(0.0),
    ):
        assert value == 0.0 and not np.signbit(value)
    # an all-zero vector has no purity to take the log of
    zero = np.zeros(2**5)
    with pytest.raises(FloatingPointError):
        renyi2_ee(zero, part)
    with pytest.raises(FloatingPointError):
        renyi2_shannon_entropy(zero, part, "Z")


def test_r2smi_of_a_zero_vector_raises_like_the_other_entropies():
    # each marginal purity goes through the same check as renyi2_shannon_entropy,
    # so an all-zero vector raises instead of returning nan after log(0) warnings
    part = Bipartition(5, 2)
    assert r2smi(zero_state(5), part, "Z") == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            r2smi(np.zeros(2**5), part, "Z")


def test_renyi2_ee_equals_unmeasured_gse(critical):
    psi = critical(8)
    part = Bipartition(8, 3)
    for axis in ("X", "Y", "Z"):
        assert abs(renyi2_ee(psi, part) - r2gse_pure(psi, part, axis, 0.0)) < 1e-10


def test_renyi2_ee_matches_reduced_purity_oracle(critical):
    psi = critical(8)
    part = Bipartition(8, 4)
    rho_a = partial_trace_dense(density_from_state(psi), part, keep="A")
    direct = -np.log(np.sum(np.abs(rho_a) ** 2))
    assert abs(renyi2_ee(psi, part) - direct) < 1e-10


@pytest.mark.parametrize("L_A", [2, 3, 4])
@pytest.mark.parametrize("p_m", [0.0, 0.1, 0.2, 0.25, 0.5])
def test_gse_algorithms_agree_with_oracle(critical, L_A, p_m):
    psi = critical(8)
    part = Bipartition(8, L_A)
    oracle = r2gse_dense(psi, part, "Z", p_m)
    for kernel in (entropy._DenseGramPlan, entropy._LowRankPlan):
        assert abs(kernel_entropy(kernel, psi, 0, L_A, "Z", p_m) - oracle) < 1e-10


def test_full_chain_plans_agree(critical):
    # Y is the axis where the whole-chain low_rank plan runs complex pair vectors
    psi = critical(8)
    part = Bipartition(8, 3)
    for axis in ("X", "Y", "Z"):
        for p_m in (0.0, 0.2, 0.5):
            oracle = r2gse_dense(psi, part, axis, p_m, subsystem="AB")
            plan = GsePlan(rotate_to_basis(psi, axis), 0, 8)
            assert plan.algorithm == "rank1_full"
            assert abs(plan.entropy(p_m) - oracle) < 1e-10
            for kernel in (entropy._DenseGramPlan, entropy._LowRankPlan):
                assert abs(kernel_entropy(kernel, psi, 0, 8, axis, p_m) - oracle) < 1e-10


def test_window_size_picks_the_kernel(critical):
    # low_rank when 2 n >= L + 4, dense_gram below, rank1_full on the whole
    # chain; at L = 6 every branch is in reach of the oracle
    for L in range(3, 9):
        psi = critical(L)
        for length in range(1, L + 1):
            if length == L:
                algorithm = "rank1_full"
            else:
                algorithm = "low_rank" if 2 * length >= L + 4 else "dense_gram"
            plan = GsePlan(psi, 0, length)
            assert plan.algorithm == algorithm, (L, length)
            if L != 6:
                continue
            for p_m in (0.0, 0.2, 0.5):
                if length == 6:
                    oracle = r2gse_dense(psi, Bipartition(6, 3), "Z", p_m, subsystem="AB")
                else:
                    oracle = r2gse_dense(psi, Bipartition(6, length), "Z", p_m)
                assert abs(plan.entropy(p_m) - oracle) < 1e-10
    assert [GsePlan(critical(6), 0, n).algorithm for n in (4, 5, 6)] == [
        "dense_gram", "low_rank", "rank1_full"]


def test_gse_strength_out_of_range():
    rng = np.random.default_rng(SEED + 1)
    with pytest.raises(ValueError):
        r2gse_pure(random_state(4, rng), Bipartition(4, 2), "Z", 0.7)


@pytest.mark.parametrize("axis", ["X", "Y", "Z"])
def test_limit_laws_random_states(axis):
    rng = np.random.default_rng(SEED + 2)
    for L in (5, 6):
        psi = random_state(L, rng)
        part = Bipartition(L, L // 2)
        assert abs(r2gse_pure(psi, part, axis, 0.0) - renyi2_ee(psi, part)) < 1e-10
        assert (
            abs(r2gse_pure(psi, part, axis, 0.5) - renyi2_shannon_entropy(psi, part, axis))
            < 1e-10
        )


def test_r2gsmi_product_state():
    for p_m in (0.0, 0.2, 0.5):
        pt = r2gsmi(zero_state(6), Bipartition(6, 2), "Z", p_m)
        assert abs(pt.I2) < 1e-12
        assert abs(pt.S_A) < 1e-12 and abs(pt.S_B) < 1e-12 and abs(pt.S_AB) < 1e-12


def test_r2gsmi_ghz_projective():
    pt = r2gsmi(ghz_state(6), Bipartition(6, 2), "Z", 0.5)
    for value in (pt.S_A, pt.S_B, pt.S_AB, pt.I2):
        assert abs(value - LOG2) < 1e-12


def test_r2gsmi_unmeasured_is_twice_the_ee(critical):
    psi = critical(8)
    part = Bipartition(8, 4)
    pt = r2gsmi(psi, part, "Z", 0.0)
    assert abs(pt.S_AB) < 1e-12
    assert abs(pt.S_A - pt.S_B) < 1e-10  # Schmidt symmetry
    assert abs(pt.I2 - 2 * pt.S_A) < 1e-10


def test_r2gsmi_supervector_input_matches_pure_path(critical):
    # the doubled-space oracle on the pure state's supervector
    psi = critical(6)
    part = Bipartition(6, 2)
    pure_pt = r2gsmi(psi, part, "Z", 0.2)
    sv = pure_supervector(psi)
    s_a = generalized_entropy_supervector(sv, part.sites_A, part.sites_B, "Z", 0.2)
    s_b = generalized_entropy_supervector(sv, part.sites_B, part.sites_A, "Z", 0.2)
    s_ab = generalized_entropy_supervector(sv, tuple(range(part.L)), (), "Z", 0.2)
    assert abs(pure_pt.I2 - (s_a + s_b - s_ab)) < 1e-10
    assert abs(pure_pt.S_AB - s_ab) < 1e-10


def test_r2gsmi_rejects_bad_length():
    # 4^L is a supervector's length; r2gsmi takes pure states only
    for length in (32, 4**4):
        with pytest.raises(ValueError):
            r2gsmi(np.zeros(length, dtype=complex), Bipartition(4, 2), "Z", 0.1)


def test_mipoint_identity_exact(critical):
    pt = r2gsmi(critical(8), Bipartition(8, 3), "X", 0.3)
    assert pt.I2 == pt.S_A + pt.S_B - pt.S_AB


def test_r2smi_matches_projective_mi(critical):
    psi = critical(8)
    for L_A in (2, 4):
        part = Bipartition(8, L_A)
        for axis in ("X", "Z"):
            assert abs(r2smi(psi, part, axis) - r2gsmi(psi, part, axis, 0.5).I2) < 1e-10


def test_projective_full_chain_entropy_is_outcome_entropy(critical):
    # fully dephased whole chain at p_m = 1/2: Renyi-2 entropy of the
    # complete outcome distribution
    psi = critical(8)
    rot = rotate_to_basis(psi, "X")
    probs = np.abs(rot) ** 2
    expect = -np.log(np.sum(probs**2))
    plan = GsePlan(rot, 0, 8)
    assert abs(plan.entropy(0.5) - expect) < 1e-12


@pytest.mark.parametrize("axis", ["X", "Z"])
@pytest.mark.parametrize("p_m", [0.0, 0.2, 0.5])
def test_mi_symmetric_under_subsystem_swap(critical, axis, p_m):
    psi = critical(8)
    for L_A in (1, 2, 3):
        a = r2gsmi(psi, Bipartition(8, L_A), axis, p_m).I2
        b = r2gsmi(psi, Bipartition(8, 8 - L_A), axis, p_m).I2
        assert abs(a - b) < 1e-10


def test_build_mi_plans_matches_direct_plan(critical):
    psi = critical(8)
    plans = build_mi_plans(psi, [2, 3], "X")
    for l_a in (2, 3):
        direct = r2gsmi(psi, Bipartition(8, l_a), "X", 0.15)
        shared = plans[l_a].point(0.15)
        assert abs(direct.I2 - shared.I2) < 1e-12
        assert direct.L_A == shared.L_A == l_a


# fixed examples, no example database: the suite stays deterministic
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
strengths = st.floats(0.0, 0.5)


@st.composite
def windows(draw, min_L=3, max_L=10):
    L = draw(st.integers(min_L, max_L))
    length = draw(st.integers(1, L))
    return L, draw(st.integers(0, L - length)), length


@PROPERTY
@given(window=windows(), theta=st.floats(0.1, 3.0), axis=st.sampled_from(["X", "Z"]),
       p_m=strengths)
def test_gse_plan_real_path_matches_complex_path(critical, window, theta, axis, p_m):
    # the phase leaves every entropy alone but keeps the rotated state complex
    L, start, length = window
    psi = critical(L)
    phased = np.exp(1j * theta) * psi
    assert np.any(rotate_to_basis(phased, axis).imag)
    for kernel in (entropy._DenseGramPlan, entropy._LowRankPlan):
        real = kernel_entropy(kernel, psi, start, length, axis, p_m)
        cplx = kernel_entropy(kernel, phased, start, length, axis, p_m)
        assert abs(real - cplx) <= 1e-12


@PROPERTY
@given(L=st.integers(3, 10), data=st.data(), axis=st.sampled_from(["X", "Y", "Z"]),
       p_m=strengths)
def test_build_mi_plans_matches_per_window_plans(critical, L, data, axis, p_m):
    l_a = data.draw(st.integers(1, L - 1))
    psi = critical(L)
    rot = rotate_to_basis(psi, axis)
    assert Symmetry.of(rot).translation
    plans = build_mi_plans(psi, [l_a, L - l_a], axis)
    # on the invariant state the B window of L_A is the A window of L - L_A
    assert plans[l_a].plans[1] is plans[L - l_a].plans[0]
    pt = plans[l_a].point(p_m)
    assert abs(pt.S_A - GsePlan(rot, 0, l_a).entropy(p_m)) <= 1e-12
    assert abs(pt.S_B - GsePlan(rot, l_a, L - l_a).entropy(p_m)) <= 1e-12
    assert abs(pt.S_AB - GsePlan(rot, 0, L).entropy(p_m)) <= 1e-12


@PROPERTY
@given(L=st.integers(3, 8), data=st.data(), seed=st.integers(0, 2**32 - 1),
       axis=st.sampled_from(["X", "Y", "Z"]))
def test_non_invariant_state_keeps_its_own_b_window(L, data, seed, axis):
    l_a = data.draw(st.integers(1, L - 1))
    psi = random_state(L, np.random.default_rng(seed))
    assert not Symmetry.of(psi).translation
    mi = build_mi_plans(psi, [l_a], axis, plan=PauliWeightPlan)[l_a]
    assert tuple(p.window for p in mi.plans) == mi.part.windows
    rot = rotate_to_basis(psi, axis)
    s_b = build_mi_plans(psi, [l_a], axis)[l_a].point(0.25).S_B
    assert abs(s_b - GsePlan(rot, l_a, L - l_a).entropy(0.25)) <= 1e-12
    # the start-0 window of the same length is a different subsystem here
    assert abs(s_b - GsePlan(rot, 0, L - l_a).entropy(0.25)) > 1e-6


def test_symmetric_sweep_builds_each_window_once(critical, monkeypatch):
    # plans are built through the module-global GsePlan, as a tracer sees them
    built = []

    class Recording(entropy.GsePlan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((self.window, self.algorithm))

    monkeypatch.setattr(entropy, "GsePlan", Recording)
    build_mi_plans(critical(10), range(2, 9), "Z")
    # 2 n >= L + 4 puts the 7- and 8-site windows on low_rank
    assert sorted(built) == sorted(
        [((0, n), "dense_gram") for n in range(2, 7)]
        + [((0, n), "low_rank") for n in (7, 8)]
        + [((0, 10), "rank1_full")]
    )


def _flip_case_state(critical, L, kind, seed):
    # the ground state is real and flip-even; the random ones are complex
    if kind == "critical":
        return critical(L)
    v = random_state(L, np.random.default_rng(seed))
    v = v - v[::-1] if kind == "odd" else v + v[::-1]
    if kind == "near":
        v[seed % v.size] += 1e-6
    return v / np.linalg.norm(v)


def _shift_to_start(psi, start):
    # ring translation taking site `start` to site 0, so the oracle can name the window
    return np.ascontiguousarray(psi.reshape(-1, 2**start).T).reshape(-1)


@pytest.mark.parametrize("kind", ["critical", "even", "odd", "near"])
@PROPERTY
@given(L=st.integers(3, 8), seed=st.integers(0, 2**32 - 1),
       axis=st.sampled_from(["X", "Y", "Z"]))
def test_flip_halved_plans_match_oracle(critical, kind, L, seed, axis):
    psi = _flip_case_state(critical, L, kind, seed)
    rot = rotate_to_basis(psi, axis)
    flip = Symmetry.of(rot).flip
    if axis == "Z":
        # a 1e-6 change of one amplitude breaks the symmetry past the 1e-12 check
        assert flip == (kind != "near")
    for length in range(1, L + 1):
        for start in range(L - length + 1):
            plan = GsePlan(rot, start, length)
            assert plan.symmetry.flip == flip
            coeff = window_coefficient_matrix(rot, start, length)
            kernels = [k(coeff, flip) for k in (entropy._DenseGramPlan, entropy._LowRankPlan)]
            generic = [k(coeff, False) for k in (entropy._DenseGramPlan, entropy._LowRankPlan)]
            for p_m in (0.0, 0.1, 0.3, 0.5):
                if length == L:
                    oracle = r2gse_dense(psi, Bipartition(L, 1), axis, p_m, subsystem="AB")
                else:
                    oracle = r2gse_dense(
                        _shift_to_start(psi, start), Bipartition(L, length), axis, p_m
                    )
                assert abs(plan.entropy(p_m) - oracle) < 1e-10
                lam = entropy._contraction(p_m, "p_m")
                for k, g in zip(kernels, generic):
                    value = entropy._entropy_of(k.purity(lam))
                    assert abs(value - oracle) < 1e-10
                    # the halved path against the full one on the same window
                    assert abs(value - entropy._entropy_of(g.purity(lam))) <= 1e-12


@pytest.mark.parametrize("length, algorithm", [(16, "rank1_full"), (14, "low_rank")])
def test_flip_halved_low_rank_plans_peak_near_three_states(critical, length, algorithm):
    # the 14-site window's coefficient matrix is a copy of the state, the
    # sector Schmidt vectors and pair vectors add the rest
    psi = critical(16)
    tracemalloc.start()
    try:
        plan = GsePlan(psi, 0, length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (plan.algorithm, plan.symmetry.flip) == (algorithm, True)
    assert peak <= 3.1 * psi.nbytes


def test_near_stops_running_an_operation_once_its_sum_is_past_the_bound(monkeypatch):
    # a flip-even state over 16 row blocks: psi(a~) + psi(a) fails the bound on
    # the first block and is not formed again, psi(a~) - psi(a) runs on all of
    # them; a state that fails both runs each once
    monkeypatch.setattr(entropy, "_WHT_BLOCK_ELEMENTS", 16)
    half = np.random.default_rng(SEED).standard_normal(128)
    calls = []

    def counting(ufunc):
        def op(a, b, out):
            calls.append(ufunc.__name__)
            return ufunc(a, b, out=out)

        return op

    ops = (counting(np.subtract), counting(np.add))
    psi = np.concatenate([half, half[::-1]])
    assert entropy._near(psi[::-1, None], psi[:, None], ops)
    assert calls.count("add") == 1 and calls.count("subtract") == 16
    calls.clear()
    psi = np.concatenate([half, half])
    assert not entropy._near(psi[::-1, None], psi[:, None], ops)
    assert calls == ["subtract", "add"]


@pytest.mark.parametrize("length", [3, 8, 10])  # dense_gram, low_rank, rank1_full at L=10
def test_grid_entropies_keep_the_bits_of_the_scalar_forms(critical, length):
    # the grid methods against the one-point forms they replaced, one scalar
    # contraction per cell: equal to the bit, not within a tolerance
    state = rotate_to_basis(critical(10), "Z")
    p_m = [0.0, 0.013, 0.1, 0.25, 0.37, 0.5]
    p_y = [0.0, 0.05, 0.2, 0.45]
    plan = GsePlan(state, 0, length)
    n = plan._impl.n_bits
    for p, value in zip(p_m, plan.entropies(p_m)):
        mu = entropy._contraction(p, "p_m") ** 2
        if plan.algorithm == "dense_gram":
            purity = float(plan._impl.binned @ mu ** np.arange(n + 1))
        else:
            d = np.arange(n + 1, dtype=np.float64)
            purity = float(plan._impl.spectrum @ ((1.0 + mu) ** (n - d) * (1.0 - mu) ** d))
        assert value == float(-np.log(purity) + 0.0)
    plan = PauliWeightPlan(state, 0, length)
    e = 2 * np.arange(plan.histogram.shape[0])
    grid = plan.entropies(p_m, p_y)
    for (i, pm), (j, py) in product(enumerate(p_m), enumerate(p_y)):
        lam_m, lam_y = entropy._contraction(pm, "p_m"), entropy._contraction(py, "p_y")
        assert grid[i, j] == float(-np.log(float(lam_m**e @ plan.histogram @ lam_y**e)) + 0.0)


def is_flip_symmetric(psi):
    # the flip half of `Symmetry.of` on its own
    return entropy._near(psi[::-1, None], psi[:, None], (np.subtract, np.add))


def is_translation_invariant(psi):
    # the shift half of `Symmetry.of` on its own
    return entropy._near(psi.reshape(2, -1).T, psi.reshape(-1, 2), (np.subtract,))


def dense_gram_chain(psi):
    # the start-0 dense_gram windows 6..11 of an L=20 sweep, as build_mi_plans builds them
    symmetry, nested = Symmetry.of(psi), dict.fromkeys(range(6, 11))
    return {GsePlan(psi, 0, n, _symmetry=symmetry, _nested=nested).algorithm for n in range(11, 5, -1)}


@pytest.mark.parametrize("axis, work, expected, bound", [
    pytest.param("Z", Symmetry.of, Symmetry(flip=True, translation=True), 0.25,
                 id="Z-Symmetry.of-0.25"),
    ("Z", is_flip_symmetric, True, 0.25),
    ("Z", is_translation_invariant, True, 0.25),
    ("Z", 20, "rank1_full", 1.0),
    ("X", 20, "rank1_full", 1.5),
    ("Z", 14, "low_rank", 1.05),
    ("Z", 13, "low_rank", 1.1),
    ("X", 14, "low_rank", 1.25),
    pytest.param("Z", dense_gram_chain, {"dense_gram"}, 0.65, id="Z-dense_gram_chain-0.65"),
    pytest.param("X", dense_gram_chain, {"dense_gram"}, 0.85, id="X-dense_gram_chain-0.85"),
])
def test_case1_stages_hold_one_working_copy_beside_the_state(critical, axis, work, expected, bound):
    # peak traced bytes over the state's, on the L=20 ground state (8 MB), of
    # `Symmetry.of`, of each of its two checks alone or of the GsePlan of a
    # window length: the checks sum over blocks, the whole chain transforms
    # |psi|^2 in place, low_rank holds its Schmidt vectors (one state size
    # on X, where no flip halves them) and block buffers that it reuses.  The
    # dense_gram chain holds the 11-site window's products (0.28 on Z, 0.53
    # on X) and one offset of G_10's blocks beside them, which it squares a
    # block at a time
    psi = rotate_to_basis(critical(20), axis)
    tracemalloc.start()
    try:
        answer = work(psi) if callable(work) else GsePlan(psi, 0, work).algorithm
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answer == expected
    assert peak <= bound * psi.nbytes


@pytest.mark.parametrize("block", [1 << 3, 1 << 16])
def test_symmetry_checks_match_the_norms_they_bound(critical, monkeypatch, block):
    # the blocked sums against |T psi - psi| and |psi(a~) -+ psi(a)| in one
    # piece, on states that pass, that fail by 1e-11 at the first label, the
    # last one or one block in, and that fail by 6e-13 at two labels, under
    # the bound in every 8-entry block but over it in sum
    monkeypatch.setattr(entropy, "_WHT_BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(SEED + 9)
    base = [critical(8), _flip_case_state(critical, 8, "odd", SEED), random_state(8, rng)]
    changes = [(), ((0, 1e-11),), ((255, 1e-11),), ((9, 1e-11),), ((3, 6e-13), (100, 6e-13))]
    for psi in base:
        for change in changes:
            phi = psi.copy()
            for where, by in change:
                phi[where] += by
            flip = min(np.linalg.norm(phi[::-1] - s * phi) for s in (1, -1)) <= 1e-12
            symmetry = Symmetry.of(phi)
            assert symmetry.flip == flip
            assert symmetry.translation == (np.linalg.norm(translate(phi) - phi) <= 1e-12)
    assert Symmetry.of(base[0]) == Symmetry(flip=True, translation=True)
    phi = base[0].copy()
    phi[[3, 100]] += 6e-13
    assert Symmetry.of(phi) == Symmetry(flip=False, translation=False)
    assert Symmetry.of(base[1]).flip and not Symmetry.of(base[2]).flip
    # a nan anywhere fails both
    phi = base[0].copy()
    phi[200] = np.nan
    assert Symmetry.of(phi) == Symmetry(flip=False, translation=False)


def _svd_pair_spectrum(coeff):
    # the generic low_rank formulation: the full SVD of C, every pair vector
    # u_k conj(u_l) transformed over all window bits by a dense Hadamard matrix,
    # the power spectrum binned by popcount
    na = coeff.shape[0]
    n = na.bit_length() - 1
    u, s, _ = np.linalg.svd(coeff, full_matrices=False)
    kept = s > 1e-12 * s[0]
    u, w2 = u[:, kept], s[kept] ** 2
    ks, ls = np.triu_indices(w2.size)
    power = np.abs(hadamard(na) @ (u[:, ks] * u[:, ls].conj())) ** 2
    power = power @ (w2[ks] * w2[ls] * np.where(ks == ls, 1.0, 2.0))
    return np.bincount(np.bitwise_count(np.arange(na)), weights=power, minlength=n + 1) / na


def _equivalence_state(kind, L, rng):
    v = rng.standard_normal(2**L)
    if kind != "real":
        v = v + 1j * rng.standard_normal(2**L)
    if kind in ("even", "odd"):
        v = v - v[::-1] if kind == "odd" else v + v[::-1]
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("shrunk", [False, True])
@pytest.mark.parametrize("kind", ["complex", "real", "even", "odd"])
def test_low_rank_plan_matches_the_svd_pair_reference(monkeypatch, kind, shrunk):
    # the whole chain (one complement configuration: the outcome distribution,
    # no SVD) and the buffered pair loop against the generic formulation; shrunk
    # blocks run the pair loop one or two pairs at a time, with a partial last
    # block, and the in-place transform of the whole chain over many blocks
    if shrunk:
        monkeypatch.setattr(entropy, "_WHT_BLOCK_ELEMENTS", 1 << 6)
    rng = np.random.default_rng(SEED + 6)
    for L in (1, 2, 3, 5, 8, 10):
        psi = _equivalence_state(kind, L, rng)
        for axis in ("X", "Y", "Z"):
            rot = rotate_to_basis(psi, axis)
            flip = Symmetry.of(rot).flip
            if axis == "Z":
                assert flip == (kind in ("even", "odd"))
            for length in range(1, L + 1):
                for start in sorted({0, L - length}):
                    coeff = window_coefficient_matrix(rot, start, length)
                    ref = _svd_pair_spectrum(coeff)
                    plans = [entropy._LowRankPlan(coeff, False)]
                    if flip:
                        plans.append(entropy._LowRankPlan(coeff, True))
                    for plan in plans:
                        assert np.max(np.abs(plan.spectrum - ref)) <= 1e-13
                        for p_m in (0.0, 0.1, 0.3, 0.5):
                            lam = entropy._contraction(p_m, "p_m")
                            ref_purity = ref @ ((1 + lam**2) ** np.arange(length, -1, -1)
                                                * (1 - lam**2) ** np.arange(length + 1))
                            value = entropy._entropy_of(plan.purity(lam))
                            assert abs(value - entropy._entropy_of(ref_purity)) <= 1e-13


def _pair_set_purity(power, n, flip, lam):
    # the purity that _pair_power's rows add, binned by popcount here: row p of
    # a flip-halved power holds the parity-p pairs over n - 1 bits, whose
    # transform at k' lies at |k| = |k'| + ((|k'| + p) mod 2)
    mu = lam * lam
    d = np.bitwise_count(np.arange(power.shape[1]))
    total = 0.0
    for p, row in enumerate(power):
        dk = d + ((d + p) & 1) if flip else d
        total += row @ ((1 + mu) ** (n - dk) * (1 - mu) ** dk)
    return total / 2**n


@pytest.mark.parametrize("kind", ["critical", "real", "complex", "even", "odd"])
def test_pair_truncation_stays_within_its_certified_bound(critical, kind):
    # the dropped pairs' bounds sum to at most 2^-53 P(1/2); at every strength
    # the dropped pairs add at most that sum, and the kept and dropped pairs
    # add up to the untruncated pair sum.  The random states are damped by
    # 1e-3 per domain wall (flip-invariant), so their Schmidt weights spread
    # far enough for pairs to drop
    rng = np.random.default_rng(SEED + 10)
    dropped_any = False
    for L in (6, 8, 10):
        if kind == "critical":
            psi = critical(L)
        else:
            a = np.arange(2**L)
            psi = _equivalence_state(kind, L, rng) * 1e-3 ** np.bitwise_count(a ^ (a >> 1))
            psi /= np.linalg.norm(psi)
        for axis in ("X", "Y", "Z"):
            rot = rotate_to_basis(psi, axis)
            flip = Symmetry.of(rot).flip
            for length in range(L // 2, L):
                coeff = window_coefficient_matrix(rot, 0, length)
                vectors, weights, parity = entropy._schmidt_sectors(coeff, flip)
                floor = entropy._purity_floor(coeff)
                p_half = np.sum(np.sum(np.abs(coeff) ** 2, axis=1) ** 2)
                assert floor == pytest.approx(2.0**-53 * p_half, rel=1e-12, abs=0.0)
                every = entropy._kept_pairs(weights, 0.0)
                kept = entropy._kept_pairs(weights, floor)
                chi = weights.size
                dropped = ~np.isin(every[0] * chi + every[1], kept[0] * chi + kept[1])
                assert dropped.sum() == every[0].size - kept[0].size
                bound = every[2][dropped].sum()
                assert bound <= floor
                dropped_any |= bool(dropped.any())
                parts = [
                    entropy._pair_power(vectors, *(x[sel] for x in every), parity, flip)
                    for sel in (np.ones_like(dropped), ~dropped, dropped)
                ]
                for p_m in (0.0, 0.1, 0.3, 0.5):
                    lam = entropy._contraction(p_m, "p_m")
                    full, kept_sum, dropped_sum = (
                        _pair_set_purity(power, length, flip, lam) for power in parts
                    )
                    assert abs(dropped_sum) <= bound * (1 + 1e-12) + 1e-300
                    assert abs(full - kept_sum - dropped_sum) <= 1e-15 * full
                    assert abs(entropy._LowRankPlan(coeff, flip).purity(lam) - kept_sum) <= (
                        1e-15 * full)
    assert dropped_any


@pytest.mark.parametrize("kind", ["real", "complex", "even", "odd"])
def test_low_rank_kernel_matches_oracle_on_every_window(monkeypatch, kind):
    # the Gram eigh, the measured weights and the truncated pair loop on every
    # window of L <= 8, past GsePlan's size rule, with blocks of one to a few
    # pair vectors
    monkeypatch.setattr(entropy, "_WHT_BLOCK_ELEMENTS", 1 << 5)
    rng = np.random.default_rng(SEED + 11)
    for L in (3, 5, 8):
        psi = _equivalence_state(kind, L, rng)
        for axis in ("X", "Y", "Z"):
            rot = rotate_to_basis(psi, axis)
            flip = Symmetry.of(rot).flip
            if axis == "Z":
                assert flip == (kind in ("even", "odd"))
            for length in range(1, L):
                for start in range(L - length + 1):
                    coeff = window_coefficient_matrix(rot, start, length)
                    plan = entropy._LowRankPlan(coeff, flip)
                    for p_m in (0.0, 0.1, 0.3, 0.5):
                        oracle = r2gse_dense(
                            _shift_to_start(psi, start), Bipartition(L, length), axis, p_m
                        )
                        value = entropy._entropy_of(plan.purity(entropy._contraction(p_m, "p_m")))
                        assert abs(value - oracle) < 1e-12


def test_rank_one_windows_skip_their_zero_weight_vectors():
    # product windows: the Gram matrix has rank 1 per sector, so every other
    # Schmidt vector measures w = 0 exactly (basis states, the flip sectors of
    # GHZ) or nearly (a random product), is not normalized and forms no pair
    rng = np.random.default_rng(SEED + 12)
    phi_a, phi_b = (random_state(k, rng) for k in (5, 2))
    states = {"zero": (zero_state(7), True), "ghz": (ghz_state(7), True),
              "product": (np.kron(phi_b, phi_a), False)}
    for name, (psi, exact) in states.items():
        flip = Symmetry.of(psi).flip
        assert flip == (name == "ghz")
        coeff = window_coefficient_matrix(psi, 0, 5)
        _, weights, _ = entropy._schmidt_sectors(coeff, flip)
        if exact:
            assert np.count_nonzero(weights == 0.0) >= weights.size - 2
        ks, ls, _ = entropy._kept_pairs(weights, entropy._purity_floor(coeff))
        # GHZ: one vector per flip sector, and their cross pair
        assert ks.size == (3 if name == "ghz" else 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = entropy._LowRankPlan(coeff, flip)
            for p_m in (0.0, 0.2, 0.5):
                oracle = r2gse_dense(psi, Bipartition(7, 5), "Z", p_m)
                value = entropy._entropy_of(plan.purity(entropy._contraction(p_m, "p_m")))
                assert abs(value - oracle) < 1e-12


def test_gaussian_oracle_checks_both_kernels_at_L20(critical):
    # the free-fermion mixture oracle on a dense_gram window (10 sites) and a
    # truncated low_rank one (13 sites) of the L=20 ground state, all axes,
    # and on the 8- and 10-site windows that a sweep's chain derives from
    # its 11-site window's Gram blocks
    psi = critical(20)
    for axis in ("X", "Y", "Z"):
        rot = rotate_to_basis(psi, axis)
        sweep = build_mi_plans(psi, range(6, 15), axis)
        for length, algorithm in ((10, "dense_gram"), (13, "low_rank")):
            plan = GsePlan(rot, 0, length)
            assert plan.algorithm == algorithm
            for p_m in (0.1, 0.35):
                exact = gaussian_dephased_renyi2(20, length, axis, p_m)
                assert abs(plan.entropy(p_m) - exact) <= 1e-11, (axis, length, p_m)
        for length in (8, 10):
            plan = sweep[length].plans[0]
            assert (plan.window, plan.algorithm) == ((0, length), "dense_gram")
            for p_m in (0.1, 0.35):
                exact = gaussian_dephased_renyi2(20, length, axis, p_m)
                assert abs(plan.entropy(p_m) - exact) <= 1e-11, (axis, length, p_m, "chain")


def test_wht_with_a_spare_writes_only_into_its_two_buffers():
    # the factors alternate between the input and the spare; the result is
    # the allocating transform's, in whichever of the two took the last factor
    rng = np.random.default_rng(SEED + 7)
    for n in (0, 1, 5, 6, 11, 12):
        for dtype in (np.float64, np.complex128):
            a = rng.standard_normal((3, 2**n))
            if dtype == np.complex128:
                a = a + 1j * rng.standard_normal(a.shape)
            for arr, axis in ((a, -1), (np.ascontiguousarray(a.T), 0)):
                ref = _wht(arr, n, axis)
                work, spare = arr.copy(), np.empty_like(arr)
                out = _wht(work, n, axis, spare)
                assert np.shares_memory(out, work) or np.shares_memory(out, spare)
                assert out.shape == arr.shape and np.array_equal(out, ref)


def test_r2gse_pure_checks_the_state_against_the_bipartition():
    # as renyi2_ee and the other (state, bipartition) entropies do, rather
    # than reading an L=8 state as a window of some other chain
    psi = random_state(8, np.random.default_rng(SEED + 8))
    for part in (Bipartition(10, 3), Bipartition(6, 3)):
        for entropy_of in (
            lambda: r2gse_pure(psi, part, "Z", 0.1),
            lambda: renyi2_ee(psi, part),
        ):
            with pytest.raises(ValueError, match="not 2\\^L"):
                entropy_of()


@pytest.mark.parametrize("L", range(3, 13))
def test_y_rotated_ground_state_is_flip_symmetric(critical, L):
    # label 1 is i|y->, so the flip maps the Y-rotated ring ground state to +-itself
    assert Symmetry.of(rotate_to_basis(critical(L), "Y")) == Symmetry(flip=True, translation=True)


def test_flip_guard_decides_once_per_rotated_state(critical, monkeypatch):
    psi = critical(10)
    assert GsePlan(psi, 0, 4).symmetry.flip
    assert GsePlan(psi, 0, 10).symmetry.flip
    assert not GsePlan(rotate_to_basis(psi, "X"), 0, 4).symmetry.flip
    assert GsePlan(rotate_to_basis(psi, "Y"), 0, 4).symmetry.flip
    assert not GsePlan(random_state(10, np.random.default_rng(SEED + 3)), 0, 4).symmetry.flip
    with pytest.raises(AttributeError):
        GsePlan(psi, 0, 4).symmetry.flip = False
    records = []
    of = Symmetry.of

    def counting(state):
        records.append(of(state))
        return records[-1]

    monkeypatch.setattr(Symmetry, "of", staticmethod(counting))
    nears = _counting(monkeypatch, "_near")
    # the Pauli-weight sweep of case 2 shares the one record as well, and
    # its whole-chain plan still takes the orbit path that the record permits,
    # after one more test, of the site reversal, on that plan alone
    for axis, plan, halved in (("Z", None, True), ("X", None, False), ("Z", PauliWeightPlan, True)):
        records.clear()
        nears.clear()
        plans = build_mi_plans(psi, range(2, 9), axis, plan=plan)
        assert len(records) == 1 and len(nears) == (3 if plan else 2)
        assert records[0] == Symmetry(flip=halved, translation=True)
        built = {id(p): p for mi in plans.values()
                 for p in mi.plans}
        assert len(built) == 8
        assert all(p.symmetry is records[0] for p in built.values())
    assert plans[2].plans[2].algorithm == "chain_orbits"


def _counting(monkeypatch, name):
    # wrap entropy.<name> so that each call is counted
    calls = []
    inner = getattr(entropy, name)

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(entropy, name, counted)
    return calls


def _recording_offsets(monkeypatch):
    # wrap entropy._gram_orbits: each offset it yields adds its kinds to the
    # returned set, "X=0", "X=F" (F = nq - 1 on the flip) and "orbit of 4"
    kinds = set()
    inner = entropy._gram_orbits

    def recorded(coeff, flip, block):
        top = coeff.shape[0] // block - 1 if flip else 0
        for x, rows, weight, products in inner(coeff, flip, block):
            kinds.update(k for k, hit in (("X=0", x == 0), ("X=F", x == top > 0),
                                          ("orbit of 4", weight == 4)) if hit)
            yield x, rows, weight, products

    monkeypatch.setattr(entropy, "_gram_orbits", recorded)
    return kinds


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("nq", [1, 2, 4, 8, 16, 32, 64])
def test_gram_orbits_cover_every_block_pair_once(flip, nq):
    # one-row blocks of a random complex C: block pair (i, j) is G[i, j]
    rng = np.random.default_rng(SEED + nq)
    coeff = rng.standard_normal((nq, 3)) + 1j * rng.standard_normal((nq, 3))
    gram = coeff @ coeff.conj().T
    top = nq - 1 if flip else 0
    covered, reps, total = set(), set(), 0
    for x, rows, weight, products in entropy._gram_orbits(coeff, flip, 1):
        assert len(products) == len(rows)
        for i, block in zip(rows, products):
            assert i < max(1, nq // 2) or not flip
            assert np.allclose(block, gram[i, i ^ x], rtol=0, atol=1e-14)
            orbit = {(i, i ^ x), (i ^ x, i), (i ^ top, i ^ x ^ top), (i ^ x ^ top, i ^ top)}
            assert len(orbit) == weight and i == min(a for a, _ in orbit)
            assert not covered & orbit
            covered |= orbit
            reps.add((int(i), int(i ^ x)))
            total += weight
    assert covered == set(product(range(nq), repeat=2)) and total == nq * nq
    # the block pairs the row-by-row loop took: j >= i, and j <= nq-1-i in the
    # first half of the rows on the flip
    if flip:
        expected = {(i, j) for i in range(max(1, nq // 2)) for j in range(i, nq - i)}
    else:
        expected = {(i, j) for i in range(nq) for j in range(i, nq)}
    assert reps == expected


@pytest.mark.parametrize("kind, axis", [
    ("critical", "Z"), ("odd", "Z"), ("critical", "X"), ("critical", "Y"), ("random", "Z"),
])
def test_multi_block_plans_match_oracle(critical, monkeypatch, kind, axis):
    # blocks small enough that every block loop of the three plans runs many
    # times at L = 8: the Gram block offsets of both consumers (fold
    # placement, orbit weights and reads), the low_rank pair-vector blocks
    # and the X-string blocks (case 2's Gram blocks take an eighth: one row)
    monkeypatch.setattr(entropy, "_GRAM_BLOCK", 1 << 3)
    monkeypatch.setattr(entropy, "_WHT_BLOCK_ELEMENTS", 1 << 6)
    folds = _counting(monkeypatch, "_xor_fold")
    offsets = _recording_offsets(monkeypatch)
    # on the flip, X = 0 and X = F have orbits of 2, every other offset of 4
    kinds = {"X=0", "X=F", "orbit of 4"} if kind != "random" and axis != "X" else {"X=0"}
    transforms = _counting(monkeypatch, "_wht")
    L = 8
    if kind == "random":
        psi = random_state(L, np.random.default_rng(SEED + 4))
    else:
        psi = _flip_case_state(critical, L, kind, SEED + 4)
    rot = rotate_to_basis(psi, axis)
    flip = Symmetry.of(rot).flip
    assert flip == (axis in ("Z", "Y") and kind != "random")
    assert np.iscomplexobj(rot) == (kind != "critical" or axis == "Y")
    for length in range(1, L + 1):
        for start in range(L - length + 1):
            coeff = window_coefficient_matrix(rot, start, length)
            del folds[:], transforms[:]
            offsets.clear()
            dense = entropy._DenseGramPlan(coeff, flip)
            if length == L:
                assert len(folds) >= 8 and offsets == kinds
            low_rank = entropy._LowRankPlan(coeff, flip)
            if length == L // 2:
                assert len(transforms) >= 4
            for p_m in (0.0, 0.1, 0.3, 0.5):
                if length == L:
                    oracle = r2gse_dense(psi, Bipartition(L, 1), axis, p_m, subsystem="AB")
                else:
                    oracle = r2gse_dense(
                        _shift_to_start(psi, start), Bipartition(L, length), axis, p_m
                    )
                lam = entropy._contraction(p_m, "p_m")
                for plan in (dense, low_rank):
                    assert abs(entropy._entropy_of(plan.purity(lam)) - oracle) < 1e-10
    if axis != "Z":
        return
    rho = density_from_state(psi)
    for p_y in (0.0, 0.2):
        rho_y = y_decohere_dense(rho, p_y)
        for start, length in ((0, 3), (5, 3), (0, 5), (0, L)):
            del transforms[:]
            offsets.clear()
            plan = PauliWeightPlan(psi, start, length)
            assert len(transforms) >= 4
            if length == 5:
                assert offsets == kinds
            for p_m in (0.0, 0.1, 0.3, 0.5):
                ref = _dense_window_entropy(rho_y, L, start, length, p_m)
                assert abs(plan.entropy(p_m, p_y) - ref) < 1e-10


@pytest.mark.parametrize("kind", ["critical", "even", "odd", "near", "random"])
@PROPERTY
@example(L=8, seed=SEED, axis="Z")
@given(L=st.integers(3, 8), seed=st.integers(0, 2**32 - 1),
       axis=st.sampled_from(["X", "Y", "Z"]))
def test_dense_gram_chain_matches_oracle_on_every_start_0_window(critical, kind, L, seed, axis):
    # the chain of every top window n < L against the dense oracle on each
    # smaller start-0 window; blocks of four rows put levels above the block
    # size, at it and inside it, and at L = 8 with the top window of 5 sites
    # (eight blocks) the flip's offsets X = 0, X = F and orbits of 4 all run
    if kind == "random":
        psi = random_state(L, np.random.default_rng(seed))
    else:
        psi = _flip_case_state(critical, L, kind, seed)
    rot = rotate_to_basis(psi, axis)
    flip = Symmetry.of(rot).flip
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "_GRAM_BLOCK", 1 << 2)
        offsets = _recording_offsets(mp)
        levels = _counting(mp, "_fold_levels")
        chains = {}
        for top in range(2, L):
            nested = dict.fromkeys(range(1, top))
            offsets.clear()
            entropy._DenseGramPlan(window_coefficient_matrix(rot, 0, top), flip, nested)
            if (L, top) == (8, 5):
                assert offsets == ({"X=0", "X=F", "orbit of 4"} if flip else {"X=0"})
            chains[top] = nested
    assert levels
    for length in range(1, L - 2):
        for p_m in (0.0, 0.1, 0.3, 0.5):
            oracle = r2gse_dense(psi, Bipartition(L, length), axis, p_m)
            lam = entropy._contraction(p_m, "p_m")
            for top, nested in chains.items():
                if length < top:
                    value = entropy._entropy_of(nested[length].purity(lam))
                    assert abs(value - oracle) < 1e-10, (top, length, p_m)


def test_sweep_takes_one_gram_pass_for_its_start_0_dense_gram_windows(critical, monkeypatch):
    # the dense_gram windows 2..6 of an L=10 sweep: one pass of the 6-site
    # window, not five; a state without the shift nests only its A windows,
    # and its five dense_gram B windows (2..6 sites at L_A = 8..4) take their own
    passes = _counting(monkeypatch, "_gram_orbits")
    build_mi_plans(critical(10), range(2, 9), "Z")
    assert len(passes) == 1
    psi = random_state(10, np.random.default_rng(SEED + 13))
    assert not Symmetry.of(psi).translation
    for workers in (1, 2):
        passes.clear()
        plans = build_mi_plans(psi, range(2, 9), "Z", workers)
        assert len(passes) == 6
        rot = rotate_to_basis(psi, "Z")
        for l_a, mi in plans.items():
            for plan in mi.plans:
                assert plan.entropy(0.2) == pytest.approx(GsePlan(rot, *plan.window).entropy(0.2),
                                                          rel=0, abs=1e-12)


def _dense_window_entropy(rho, L, start, length, p_m):
    # oracle composition for the windows a bipartition can name
    if length == L:
        return r2gse_dense(rho, Bipartition(L, 1), "Z", p_m, subsystem="AB")
    if start == 0:
        return r2gse_dense(rho, Bipartition(L, length), "Z", p_m, subsystem="A")
    assert start + length == L
    return r2gse_dense(rho, Bipartition(L, start), "Z", p_m, subsystem="B")


@pytest.mark.parametrize("kind, L", [("random", 6), ("random", 8), ("critical", 8)])
def test_pauli_weight_plan_matches_oracles(critical, kind, L):
    # windows: at start 0, interior, ending at site L-1, whole chain
    windows = ((0, 3), (2, 3), (L - 4, 4), (0, L))
    if kind == "random":
        psi = random_state(L, np.random.default_rng(SEED + L))
    else:
        psi = critical(L)
        assert not np.any(psi.imag)
    plans = {w: PauliWeightPlan(psi, *w) for w in windows}
    rho = density_from_state(psi)
    sv_pure = pure_supervector(psi)
    worst_dense, worst_sv = 0.0, 0.0
    for p_y in (0.0, 0.3, 0.45):
        rho_y = y_decohere_dense(rho, p_y)
        sv = apply_lifted_channel(sv_pure, lift_channel(ChannelSpec("Y", p_y, tuple(range(L)))))
        for (start, length), plan in plans.items():
            window = tuple(range(start, start + length))
            rest = tuple(j for j in range(L) if j not in window)
            for p_m in (0.0, 0.2, 0.5):
                value = plan.entropy(p_m, p_y)
                ref_sv = generalized_entropy_supervector(sv, window, rest, "Z", p_m)
                worst_sv = max(worst_sv, abs(value - ref_sv))
                if start == 0 or start + length == L:
                    ref = _dense_window_entropy(rho_y, L, start, length, p_m)
                    worst_dense = max(worst_dense, abs(value - ref))
    assert worst_dense <= 1e-12
    assert worst_sv <= 1e-12


def test_pauli_weight_plan_at_zero_decoherence_matches_gse_plan(critical):
    psi = critical(10)
    for start, length in ((0, 4), (3, 5), (0, 10)):
        plan = PauliWeightPlan(psi, start, length)
        gse = GsePlan(psi, start, length)
        for p_m in (0.0, 0.1, 0.5):
            assert abs(plan.entropy(p_m, 0.0) - gse.entropy(p_m)) < 1e-12
        # at p_y = 0 only |x| is damped: summing out |x ^ z| leaves the
        # Hamming-distance bins of |G|^2, which pins every coefficient
        coeff = window_coefficient_matrix(psi, start, length)
        binned = entropy._DenseGramPlan(coeff, Symmetry.of(psi).flip).binned
        assert np.max(np.abs(plan.histogram.sum(axis=1) - binned)) <= 1e-12


def test_y_dephased_window_matches_y_decohered_pauli_weights_L14(critical):
    # dephasing a window along Y damps exactly the Pauli strings that the Y
    # channel of case 2 damps, so the complex Y-basis GsePlan kernels and the
    # real Pauli-weight bins (gram_blocks below 14 sites, chain_orbits on 14)
    # give one entropy with no kernel in common
    L = 14
    psi = critical(L)
    rot = rotate_to_basis(psi, "Y")
    for n in range(1, L + 1):
        plan = PauliWeightPlan(psi, 0, n)
        assert plan.algorithm == ("chain_orbits" if n == L else "gram_blocks")
        gse = GsePlan(rot, 0, n)
        for p in (0.1, 0.3, 0.5):
            ref = gse.entropy(p)
            assert abs(plan.entropy(0.0, p) - ref) <= 1e-12 * abs(ref), (n, p)


def test_pauli_weight_plan_strength_out_of_range(critical):
    plan = PauliWeightPlan(critical(6), 0, 3)
    with pytest.raises(ValueError, match="p_y"):
        plan.entropy(0.1, 0.7)
    with pytest.raises(ValueError, match="p_m"):
        plan.entropy(-0.1, 0.2)


@PROPERTY
@given(L=st.integers(3, 8), seed=st.integers(0, 2**32 - 1), p_m=strengths, p_y=strengths)
def test_pauli_weight_plan_matches_doubled_oracle(L, seed, p_m, p_y):
    psi = random_state(L, np.random.default_rng(seed))
    channel = lift_channel(ChannelSpec("Y", p_y, tuple(range(L))))
    sv = apply_lifted_channel(pure_supervector(psi), channel)
    for length in range(1, L + 1):
        for start in range(L - length + 1):
            window = tuple(range(start, start + length))
            rest = tuple(j for j in range(L) if j not in window)
            value = PauliWeightPlan(psi, start, length).entropy(p_m, p_y)
            ref = generalized_entropy_supervector(sv, window, rest, "Z", p_m)
            assert abs(value - ref) <= 1e-12


def _einsum_pauli_histogram(psi, start, length):
    # the gather-and-einsum formula the Gram-block path replaced, kept as its
    # reference: g[a, x] = sum_b C[a, b] conj(C[a ^ x, b]), transformed over a
    # by the Sylvester Hadamard matrix and binned at (|x|, |x ^ z|)
    coeff = window_coefficient_matrix(psi, start, length)
    dim, k = coeff.shape[0], length + 1
    labels = np.arange(dim)
    g = np.einsum("ab,axb->ax", coeff, coeff.conj()[labels[:, None] ^ labels])
    power = np.abs(hadamard(dim) @ g) ** 2  # [z, x]
    hist = np.zeros((k, k))
    bins = (np.bitwise_count(labels)[None, :], np.bitwise_count(labels[:, None] ^ labels))
    np.add.at(hist, bins, power / dim)
    return hist


@pytest.mark.parametrize("shrunk", [False, True])
@pytest.mark.parametrize("kind", ["random", "even", "odd"])
@pytest.mark.parametrize("L", [3, 6, 8])
def test_gram_block_windows_match_einsum_reference(monkeypatch, kind, L, shrunk):
    # every (start, length) of complex states; the flip-even and flip-odd ones
    # take the half-height blocks and the (n-1)-bit transform
    if shrunk:
        monkeypatch.setattr(entropy, "_GRAM_BLOCK", 1 << 3)
        monkeypatch.setattr(entropy, "_WHT_BLOCK_ELEMENTS", 1 << 6)
    transforms = _counting(monkeypatch, "_wht")
    offsets = _recording_offsets(monkeypatch)
    psi = random_state(L, np.random.default_rng(SEED + 6 + L))
    if kind != "random":
        psi = psi + psi[::-1] if kind == "even" else psi - psi[::-1]
        psi /= np.linalg.norm(psi)
    assert Symmetry.of(psi).flip == (kind != "random")
    for length in range(1, L + 1):
        for start in range(L - length + 1):
            del transforms[:]
            plan = PauliWeightPlan(psi, start, length)
            assert plan.algorithm == "gram_blocks"
            ref = _einsum_pauli_histogram(psi, start, length)
            assert np.max(np.abs(plan.histogram - ref)) <= 1e-14
            if shrunk and L == 8 and length >= 2:
                assert len(transforms) >= 2  # several block offsets ran
    if shrunk and L == 8:
        assert offsets == ({"X=0", "X=F", "orbit of 4"} if kind != "random" else {"X=0"})


def test_gram_block_histogram_block_does_not_shrink_with_the_chain(monkeypatch):
    # the row block of a window's Gram products is set by the window, not by
    # the complement: the 8-site window bins its strings in as many chunks at
    # L = 20 as at L = 12
    bins = _counting(monkeypatch, "_twisted_bins")
    counts = []
    for L in (12, 20):
        del bins[:]
        plan = PauliWeightPlan(random_state(L, np.random.default_rng(SEED + L)), 0, 8)
        assert plan.algorithm == "gram_blocks"
        counts.append(len(bins))
    assert counts[0] == counts[1]


# below L=6 the site reversal fixes every real shift-invariant state that the
# flip fixes up to sign, so the last two kinds start at L=6
@pytest.mark.parametrize(
    "L, kind",
    [
        (L, kind)
        for L in range(3, 13)
        for kind in ("critical", "odd", "reversal-odd", "reversal-broken")
        if L >= 6 or kind in ("critical", "odd")
    ],
)
def test_whole_chain_orbit_path_matches_gram_blocks(critical, L, kind):
    psi = critical(L)
    if kind != "critical":
        # real shift-invariant states that the flip fixes up to the sign -1, and
        # the site reversal R up to the sign +1, up to -1, or not at all
        v = random_state(L, np.random.default_rng(SEED + 8 + L)).real
        v = sum(translate(v, s) for s in range(L))
        v -= v[::-1]
        mirror = v[_reverse(np.arange(2**L), L)]
        psi = {"odd": v + mirror, "reversal-odd": v - mirror, "reversal-broken": v}[kind]
        psi /= np.linalg.norm(psi)
    assert Symmetry.of(psi) == Symmetry(flip=True, translation=True)
    plan = PauliWeightPlan(psi, 0, L)
    assert plan.algorithm == ("gram_blocks" if kind == "reversal-broken" else "chain_orbits")
    coeff = window_coefficient_matrix(psi, 0, L)
    for flip in (True, False):
        generic = entropy._gram_histogram(coeff, flip)
        assert np.max(np.abs(plan.histogram - generic)) <= 1e-15
    if L % 2 == 0:
        # the alternating string's complement is its one-site shift, so that
        # orbit holds both x and its complement, and is counted once
        alt = int("01" * (L // 2), 2)
        assert (alt >> 1) | ((alt & 1) << (L - 1)) == alt ^ (2**L - 1)


def test_whole_chain_orbit_path_needs_a_real_shift_and_flip_invariant_state(critical, monkeypatch):
    L = 8
    # count the vectors each path transforms
    transforms = []
    inner = entropy._wht

    def counted(arr, n_bits, axis):
        transforms.append(arr.size >> n_bits)
        return inner(arr, n_bits, axis)

    monkeypatch.setattr(entropy, "_wht", counted)
    rng = np.random.default_rng(SEED + 7)
    flip_even = rng.standard_normal(2**L)
    flip_even += flip_even[::-1]
    flip_even /= np.linalg.norm(flip_even)
    chiral = sum(translate(flip_even, s) for s in range(L))
    chiral /= np.linalg.norm(chiral)
    cases = {
        "critical": (critical(L), "chain_orbits"),
        "random": (random_state(L, rng), "gram_blocks"),
        # real and flip-even, but not shift-invariant
        "translation-broken": (flip_even, "gram_blocks"),
        # shift- and flip-invariant, but complex
        "complex": (critical(L) * np.exp(0.3j), "gram_blocks"),
        # real, shift- and flip-invariant, but the site reversal fixes it up to no sign
        "reflection-broken": (chiral, "gram_blocks"),
    }
    counts = {}
    for name, (psi, algorithm) in cases.items():
        del transforms[:]
        plan = PauliWeightPlan(psi, 0, L)
        assert plan.algorithm == algorithm, name
        counts[name] = sum(transforms)
    assert Symmetry.of(flip_even) == Symmetry(flip=True, translation=False)
    assert Symmetry.of(chiral) == Symmetry(flip=True, translation=True)
    # the orbit path transforms one vector per representative of the orbits
    # under the shifts, the flip and the reversal, the Gram blocks one per X-string
    assert counts == {
        "critical": len(_sector_basis(L)[0]),
        "random": 2**L,
        "translation-broken": 2**L,
        "complex": 2**L,
        "reflection-broken": 2**L,
    }


def _cached_tables(k):
    """The process-wide tables of k bits: one-hot counts, site-matrix powers and,
    for k >= 3, the orbit representatives and sizes of the ring of k sites."""
    tables = [entropy._bit_table(k), _factor(k, "X"), _factor(k, "Y")]
    return tables + list(_sector_basis(k)[:2]) if k >= 3 else tables


def test_cached_bit_tables_are_read_only():
    # worker threads and every caller of one length share the cached tables:
    # a second call returns the same arrays, and none may be written
    for k in range(5):
        labels = np.arange(2**k)
        hot, signs = entropy._bit_table(k), _factor(k, "X")
        assert np.array_equal(hot, np.bitwise_count(labels)[:, None] == np.arange(k + 1))
        assert np.array_equal(signs, hadamard(2**k))
        for table, again in zip(_cached_tables(k), _cached_tables(k), strict=True):
            assert again is table
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0


@pytest.mark.parametrize("n", range(13))
def test_wht_is_the_hadamard_product(n):
    # n = 0..12 is zero to three Hadamard factors of at most _WHT_FACTOR_BITS
    # bits, of unequal sizes where the factor count does not divide n; for
    # 0 < n <= 10 the Y site matrix too, whose Kronecker power (1 - iX)^(x)n
    # has the entry (-i)^|i ^ j|, one -i per site where the labels differ
    rng = np.random.default_rng(SEED + 5 + n)
    labels = np.arange(2**n)
    matrices = {"X": hadamard(2**n, dtype=np.float64)}
    if 0 < n <= 10:
        matrices["Y"] = np.array([1, -1j, -1, 1j])[np.bitwise_count(labels[:, None] ^ labels) & 3]
    for (site, h), batch in product(matrices.items(), (1, 7)):
        for dtype in (np.float64, np.complex128):
            a = rng.standard_normal((batch, 2**n))
            if dtype == np.complex128:
                a = a + 1j * rng.standard_normal(a.shape)
            for arr, axis, ref in ((a, -1, a @ h), (np.ascontiguousarray(a.T), 0, h @ a.T)):
                kept = arr.copy()
                out = _wht(arr, n, axis, site=site)
                assert out.shape == arr.shape and out.dtype == ref.dtype
                assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
                assert np.array_equal(arr, kept)


def test_conjectured_cn():
    assert conjectured_cn(2, 0.5) == 1.0
    assert conjectured_cn(1, 0.5) == 0.5
    assert conjectured_cn(3, 0.5) == 0.75
    with pytest.raises(ValueError):
        conjectured_cn(0, 0.5)
