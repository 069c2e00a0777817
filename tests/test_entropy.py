import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
    generalized_entropy_supervector,
    lift_channel,
    partial_trace_dense,
    pure_supervector,
    r2gse_dense,
    y_decohere_dense,
)
from renyimi.entropy import is_flip_symmetric, is_translation_invariant, sweep_plans
from renyimi.spin import _sector_basis, _wht, rotate_to_basis, window_coefficient_matrix

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


def test_window_size_picks_the_kernel(critical, monkeypatch):
    # a cap of 3 sites at L = 6 puts every branch of the rule in reach of the oracle
    monkeypatch.setattr(entropy, "DENSE_GRAM_MAX_SITES", 3)
    psi = critical(6)
    rules = {3: "dense_gram", 4: "low_rank", 6: "rank1_full"}
    for length, algorithm in rules.items():
        plan = GsePlan(psi, 0, length)
        assert plan.algorithm == algorithm
        for p_m in (0.0, 0.2, 0.5):
            if length == 6:
                oracle = r2gse_dense(psi, Bipartition(6, 3), "Z", p_m, subsystem="AB")
            else:
                oracle = r2gse_dense(psi, Bipartition(6, length), "Z", p_m)
            assert abs(plan.entropy(p_m) - oracle) < 1e-10


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
    assert is_translation_invariant(rot)
    plans = build_mi_plans(psi, [l_a, L - l_a], axis)
    # on the invariant state the B window of L_A is the A window of L - L_A
    assert plans[l_a]._plan_b is plans[L - l_a]._plan_a
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
    assert not is_translation_invariant(psi)
    plans = sweep_plans(psi, [l_a], PauliWeightPlan)
    assert all(plan.window == window for window, plan in plans.items())
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
    assert sorted(built) == sorted(
        [((0, n), "dense_gram") for n in range(2, 9)] + [((0, 10), "rank1_full")]
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
    flip = is_flip_symmetric(rot)
    if axis == "Z":
        # a 1e-6 change of one amplitude breaks the symmetry past the 1e-12 check
        assert flip == (kind != "near")
    for length in range(1, L + 1):
        for start in range(L - length + 1):
            plan = GsePlan(rot, start, length)
            assert plan.flip_halved == flip
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
    # sector SVDs and pair vectors add the rest
    psi = critical(16)
    tracemalloc.start()
    try:
        plan = GsePlan(psi, 0, length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (plan.algorithm, plan.flip_halved) == (algorithm, True)
    assert peak <= 3.1 * psi.nbytes


@pytest.mark.parametrize("axis, work, expected, bound", [
    ("Z", is_flip_symmetric, True, 0.25),
    ("Z", is_translation_invariant, True, 0.25),
    ("Z", 20, "rank1_full", 1.0),
    ("X", 20, "rank1_full", 1.5),
    ("Z", 14, "low_rank", 1.05),
    ("Z", 13, "dense_gram", 1.1),
])
def test_case1_stages_hold_one_working_copy_beside_the_state(critical, axis, work, expected, bound):
    # peak traced bytes over the state's, on the L=20 ground state (8 MB), of
    # a symmetry check or of the GsePlan of a window length: the checks sum
    # over blocks, the whole chain transforms |psi|^2 in place, the low_rank
    # blocks reuse their buffers and a dense_gram row block's GEMM runs after
    # the last one's product is freed
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
            assert is_flip_symmetric(phi) == flip
            assert is_translation_invariant(phi) == (np.linalg.norm(translate(phi) - phi) <= 1e-12)
    assert is_flip_symmetric(base[0]) and is_translation_invariant(base[0])
    phi = base[0].copy()
    phi[[3, 100]] += 6e-13
    assert not is_flip_symmetric(phi) and not is_translation_invariant(phi)
    assert is_flip_symmetric(base[1]) and not is_flip_symmetric(base[2])
    # a nan anywhere fails both
    phi = base[0].copy()
    phi[200] = np.nan
    assert not is_flip_symmetric(phi) and not is_translation_invariant(phi)


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
            flip = is_flip_symmetric(rot)
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


def test_flip_guard_decides_once_per_rotated_state(critical, monkeypatch):
    psi = critical(10)
    assert GsePlan(psi, 0, 4).flip_halved
    assert GsePlan(psi, 0, 10).flip_halved
    assert not GsePlan(rotate_to_basis(psi, "X"), 0, 4).flip_halved
    assert not GsePlan(rotate_to_basis(psi, "Y"), 0, 4).flip_halved
    assert not GsePlan(random_state(10, np.random.default_rng(SEED + 3)), 0, 4).flip_halved
    with pytest.raises(AttributeError):
        GsePlan(psi, 0, 4).flip_halved = False
    checks = []

    def counting(state):
        checks.append(len(state))
        return is_flip_symmetric(state)

    monkeypatch.setattr(entropy, "is_flip_symmetric", counting)
    for axis, halved in (("Z", True), ("X", False)):
        checks.clear()
        plans = build_mi_plans(psi, range(2, 9), axis)
        assert checks == [2**10]
        built = {id(p): p for mi in plans.values()
                 for p in (mi._plan_a, mi._plan_b, mi._plan_ab)}
        assert len(built) == 8
        assert all(p.flip_halved == halved for p in built.values())
    # the Pauli-weight sweep of case 2 shares the one check as well, and
    # its whole-chain plan still takes the orbit path that the flip permits
    checks.clear()
    plans = build_mi_plans(psi, range(2, 9), "Z", plan=PauliWeightPlan)
    assert checks == [2**10]
    built = {id(p): p for mi in plans.values() for p in (mi._plan_a, mi._plan_b, mi._plan_ab)}
    assert len(built) == 8
    assert plans[2]._plan_ab.algorithm == "chain_orbits"


def _counting(monkeypatch, name):
    # wrap entropy.<name> so that each call is counted
    calls = []
    inner = getattr(entropy, name)

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(entropy, name, counted)
    return calls


@pytest.mark.parametrize("kind, axis", [
    ("critical", "Z"), ("odd", "Z"), ("critical", "X"), ("critical", "Y"), ("random", "Z"),
])
def test_multi_block_plans_match_oracle(critical, monkeypatch, kind, axis):
    # blocks small enough that every block loop of the three plans runs many
    # times at L = 8: the dense_gram row blocks (fold placement and orbit
    # weights), the low_rank pair-vector blocks and the X-string blocks
    monkeypatch.setattr(entropy, "_BLOCK_ELEMENTS", 1 << 9)
    monkeypatch.setattr(entropy, "_WHT_BLOCK_ELEMENTS", 1 << 6)
    folds = _counting(monkeypatch, "_xor_fold")
    transforms = _counting(monkeypatch, "_wht")
    L = 8
    if kind == "random":
        psi = random_state(L, np.random.default_rng(SEED + 4))
    else:
        psi = _flip_case_state(critical, L, kind, SEED + 4)
    rot = rotate_to_basis(psi, axis)
    flip = is_flip_symmetric(rot)
    assert flip == (axis == "Z" and kind != "random")
    assert np.iscomplexobj(rot) == (kind != "critical" or axis == "Y")
    for length in range(1, L + 1):
        for start in range(L - length + 1):
            coeff = window_coefficient_matrix(rot, start, length)
            del folds[:], transforms[:]
            dense = entropy._DenseGramPlan(coeff, flip)
            if length == L:
                assert len(folds) >= 8
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
        for start, length in ((0, 3), (5, 3), (0, L)):
            del transforms[:]
            plan = PauliWeightPlan(psi, start, length)
            assert len(transforms) >= 4
            for p_m in (0.0, 0.1, 0.3, 0.5):
                ref = _dense_window_entropy(rho_y, L, start, length, p_m)
                assert abs(plan.entropy(p_m, p_y) - ref) < 1e-10


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
        binned = entropy._DenseGramPlan(coeff, is_flip_symmetric(psi)).binned
        assert np.max(np.abs(plan.histogram.sum(axis=1) - binned)) <= 1e-12


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
        monkeypatch.setattr(entropy, "_BLOCK_ELEMENTS", 1 << 9)
        monkeypatch.setattr(entropy, "_WHT_BLOCK_ELEMENTS", 1 << 6)
    transforms = _counting(monkeypatch, "_wht")
    psi = random_state(L, np.random.default_rng(SEED + 6 + L))
    if kind != "random":
        psi = psi + psi[::-1] if kind == "even" else psi - psi[::-1]
        psi /= np.linalg.norm(psi)
    assert is_flip_symmetric(psi) == (kind != "random")
    for length in range(1, L + 1):
        for start in range(L - length + 1):
            del transforms[:]
            plan = PauliWeightPlan(psi, start, length)
            assert plan.algorithm == "gram_blocks"
            ref = _einsum_pauli_histogram(psi, start, length)
            assert np.max(np.abs(plan.histogram - ref)) <= 1e-14
            if shrunk and L == 8 and length >= 2:
                assert len(transforms) >= 2  # several block offsets ran


@pytest.mark.parametrize("kind", ["critical", "odd"])
@pytest.mark.parametrize("L", range(3, 13))
def test_whole_chain_orbit_path_matches_gram_blocks(critical, L, kind):
    psi = critical(L)
    if kind == "odd":
        # a real shift-invariant state that the flip fixes up to the sign -1
        v = random_state(L, np.random.default_rng(SEED + 8 + L)).real
        v = sum(translate(v, s) for s in range(L))
        psi = (v - v[::-1]) / np.linalg.norm(v - v[::-1])
    plan = PauliWeightPlan(psi, 0, L)
    assert plan.algorithm == "chain_orbits"
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
    cases = {
        "critical": (critical(L), "chain_orbits"),
        "random": (random_state(L, rng), "gram_blocks"),
        # real and flip-even, but not shift-invariant
        "translation-broken": (flip_even, "gram_blocks"),
        # shift- and flip-invariant, but complex
        "complex": (critical(L) * np.exp(0.3j), "gram_blocks"),
    }
    counts = {}
    for name, (psi, algorithm) in cases.items():
        del transforms[:]
        plan = PauliWeightPlan(psi, 0, L)
        assert plan.algorithm == algorithm, name
        counts[name] = sum(transforms)
    assert not is_translation_invariant(flip_even) and is_flip_symmetric(flip_even)
    # the orbit path transforms one vector per representative, the Gram
    # blocks one per X-string
    assert counts == {
        "critical": len(_sector_basis(L)[0]),
        "random": 2**L,
        "translation-broken": 2**L,
        "complex": 2**L,
    }


@pytest.mark.parametrize("n", range(13))
def test_wht_is_the_hadamard_product(n):
    # n = 0..12 is zero to three Hadamard factors of at most _WHT_FACTOR_BITS
    # bits, of unequal sizes where the factor count does not divide n
    rng = np.random.default_rng(SEED + 5 + n)
    h = hadamard(2**n, dtype=np.float64)
    for batch in (1, 7):
        for dtype in (np.float64, np.complex128):
            a = rng.standard_normal((batch, 2**n))
            if dtype == np.complex128:
                a = a + 1j * rng.standard_normal(a.shape)
            for arr, axis, ref in ((a, -1, a @ h), (np.ascontiguousarray(a.T), 0, h @ a.T)):
                kept = arr.copy()
                out = _wht(arr, n, axis)
                assert out.shape == arr.shape and out.dtype == arr.dtype
                assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
                assert np.array_equal(arr, kept)


def test_conjectured_cn():
    assert conjectured_cn(2, 0.5) == 1.0
    assert conjectured_cn(1, 0.5) == 0.5
    assert conjectured_cn(3, 0.5) == 0.75
    with pytest.raises(ValueError):
        conjectured_cn(0, 0.5)
