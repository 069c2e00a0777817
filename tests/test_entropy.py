import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ChannelSpec,
    GsePlan,
    PauliWeightPlan,
    apply_lifted_channel,
    build_mi_plans,
    conjectured_cn,
    generalized_entropy_supervector,
    lift_channel,
    marginal_probabilities,
    pure_supervector,
    r2gse_pure,
    r2gsmi,
    r2smi,
    renyi2_ee,
    renyi2_shannon_entropy,
)
from renyimi import entropy
from renyimi.channels import y_decohere_dense
from renyimi.oracle import partial_trace_dense, density_from_state, r2gse_dense
from renyimi.entropy import is_flip_symmetric, is_translation_invariant, sweep_plans
from renyimi.spin import rotate_to_basis, window_coefficient_matrix

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
            plan = GsePlan(psi, 0, 8, axis)
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
        plan = GsePlan(psi, 0, length, "Z")
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
    plan = GsePlan(psi, 0, 8, "X")
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
    assert abs(pt.S_A - GsePlan(rot, 0, l_a, "Z").entropy(p_m)) <= 1e-12
    assert abs(pt.S_B - GsePlan(rot, l_a, L - l_a, "Z").entropy(p_m)) <= 1e-12
    assert abs(pt.S_AB - GsePlan(rot, 0, L, "Z").entropy(p_m)) <= 1e-12


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
    assert abs(s_b - GsePlan(rot, l_a, L - l_a, "Z").entropy(0.25)) <= 1e-12
    # the start-0 window of the same length is a different subsystem here
    assert abs(s_b - GsePlan(rot, 0, L - l_a, "Z").entropy(0.25)) > 1e-6


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
    rot = entropy._real_if_exact(rotate_to_basis(psi, axis))
    flip = is_flip_symmetric(rot)
    if axis == "Z":
        # a 1e-6 change of one amplitude breaks the symmetry past the 1e-12 check
        assert flip == (kind != "near")
    for length in range(1, L + 1):
        for start in range(L - length + 1):
            plan = GsePlan(psi, start, length, axis)
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


def test_flip_guard_decides_once_per_rotated_state(critical, monkeypatch):
    psi = critical(10)
    assert GsePlan(psi, 0, 4, "Z").flip_halved
    assert GsePlan(psi, 0, 10, "Z").flip_halved
    assert not GsePlan(psi, 0, 4, "X").flip_halved
    assert not GsePlan(psi, 0, 4, "Y").flip_halved
    assert not GsePlan(random_state(10, np.random.default_rng(SEED + 3)), 0, 4, "Z").flip_halved
    with pytest.raises(AttributeError):
        GsePlan(psi, 0, 4, "Z").flip_halved = False
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
        gse = GsePlan(psi, start, length, "Z")
        for p_m in (0.0, 0.1, 0.5):
            assert abs(plan.entropy(p_m, 0.0) - gse.entropy(p_m)) < 1e-12


def test_pauli_weight_plan_strength_out_of_range(critical):
    plan = PauliWeightPlan(critical(6), 0, 3)
    with pytest.raises(ValueError, match="p_y"):
        plan.entropy(0.1, 0.7)
    with pytest.raises(ValueError, match="p_m"):
        plan.entropy(-0.1, 0.2)


def test_conjectured_cn():
    assert conjectured_cn(2, 0.5) == 1.0
    assert conjectured_cn(1, 0.5) == 0.5
    assert conjectured_cn(3, 0.5) == 0.75
    with pytest.raises(ValueError):
        conjectured_cn(0, 0.5)
