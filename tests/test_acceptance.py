"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The quantitative
criteria (1-5) use finite-size tolerance bands at exact-diagonalization
scale; the property criteria (6-10) are strict.  The L=20 ground state is
computed once into a shared on-disk cache, and its wall time is charged to
criterion 1.
"""

import time

import numpy as np
import pytest

from conftest import SEED, ghz_state, kernel_entropy, random_density, random_state, zero_state
from renyimi import (
    Bipartition,
    GsePlan,
    entropy,
    fit_cft,
    r2gse_pure,
    r2gsmi,
    renyi2_ee,
    renyi2_shannon_entropy,
    scaling_variable,
)
from renyimi.experiments import ExperimentConfig, cached_ground_state, run_case1, run_case2
from renyimi.oracle import (
    ChannelSpec,
    apply_channel_dense,
    apply_lifted_channel,
    depolarize_subsystem,
    devectorize,
    lift_channel,
    partial_trace_dense,
    pure_supervector,
    purity_dense,
    r2gse_dense,
    r2gse_supervector,
    vectorize,
)

LOG2 = np.log(2.0)

PM_GRID_Z = (0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)
PM_GRID_X = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("cache"))
    out_dir = tmp_path_factory.mktemp("out")
    t0 = time.perf_counter()
    gs20, _ = cached_ground_state(20, cache_dir=cache_dir)
    gs_elapsed = time.perf_counter() - t0
    return {"cache": cache_dir, "out": out_dir, "gs20": gs20, "gs_elapsed": gs_elapsed}


def _case1_cfg(shared, name, axis, p_m, window=(6, 14)):
    return ExperimentConfig(
        L=20,
        axis=axis,
        p_m=tuple(p_m),
        L_A=tuple(range(window[0], window[1] + 1)),
        window=window,
        out=str(shared["out"] / f"{name}.csv"),
        cache_dir=shared["cache"],
    )


def test_criterion_1_projective_central_charge(shared):
    t0 = time.perf_counter()
    _, fits = run_case1(_case1_cfg(shared, "crit1", "Z", [0.5]))
    elapsed = shared["gs_elapsed"] + (time.perf_counter() - t0)
    c2 = fits[0].c2
    ok = abs(c2 - 1.0) <= 0.15 and elapsed <= 300.0
    report(
        "criterion 1 (case I, Z, p_m=0.5, L=20, window 6:14)",
        ok,
        f"c2 = {c2:.4f} (band 1.0 +- 0.15), runtime {elapsed:.0f}s <= 300s",
    )
    assert shared["gs20"].residual <= 1e-8


def test_criterion_2_unmeasured_central_charge(shared):
    t0 = time.perf_counter()
    _, fits = run_case1(_case1_cfg(shared, "crit2", "Z", [0.0]))
    elapsed = time.perf_counter() - t0
    c2 = fits[0].c2
    ok = abs(c2 - 1.0) <= 0.15 and c2 >= 1.0 and elapsed <= 120.0
    report(
        "criterion 2 (case I, Z, p_m=0, L=20)",
        ok,
        f"c2 = {c2:.4f} (band [1.0, 1.15]), runtime {elapsed:.0f}s <= 120s",
    )


def test_criterion_3_dip_ordering(shared):
    _, fits = run_case1(_case1_cfg(shared, "crit3", "Z", PM_GRID_Z))
    c2 = {f.p_m: f.c2 for f in fits}
    b2 = {f.p_m: f.b2 for f in fits}
    dip_ok = c2[0.1] < c2[0.35] - 0.05
    b2_argmin = min(b2, key=b2.get)
    b2_ok = b2_argmin <= 0.2
    report(
        "criterion 3 (case I, Z-axis dip ordering)",
        dip_ok and b2_ok,
        f"c2(0.1) = {c2[0.1]:.4f} < c2(0.35) - 0.05 = {c2[0.35] - 0.05:.4f}; "
        f"b2 minimum at p_m = {b2_argmin}",
    )


def test_criterion_4_x_axis_flat(shared):
    _, fits = run_case1(_case1_cfg(shared, "crit4", "X", PM_GRID_X))
    c2 = [f.c2 for f in fits]
    spread = max(c2) - min(c2)
    ok = spread <= 0.1 and all(abs(v - 1.0) <= 0.15 for v in c2)
    report(
        "criterion 4 (case I, X axis flat)",
        ok,
        f"c2 range [{min(c2):.4f}, {max(c2):.4f}], spread {spread:.4f} <= 0.1",
    )


def test_criterion_5_decohered_map(shared):
    cfg = ExperimentConfig(
        L=10,
        axis="Z",
        p_m=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
        p_y=(0.0, 0.1, 0.2, 0.3, 0.4, 0.45),
        L_A=(3, 4, 5, 6, 7),
        out=str(shared["out"] / "crit5.csv"),
        cache_dir=shared["cache"],
    )
    t0 = time.perf_counter()
    _, fits = run_case2(cfg)
    elapsed = time.perf_counter() - t0
    c2 = {(f.p_m, f.p_y): f.c2 for f in fits}
    band_ok = abs(c2[(0.5, 0.1)] - 1.0) <= 0.25
    decay_ok = c2[(0.0, 0.45)] < c2[(0.0, 0.2)]
    ok = band_ok and decay_ok and elapsed <= 600.0
    report(
        "criterion 5 (case II, L=10, 6x6 grid)",
        ok,
        f"c2(p_m=0.5, p_y=0.1) = {c2[(0.5, 0.1)]:.4f} (band 1.0 +- 0.25); "
        f"c2(0, 0.45) = {c2[(0.0, 0.45)]:.4f} < c2(0, 0.2) = {c2[(0.0, 0.2)]:.4f}; "
        f"runtime {elapsed:.0f}s <= 600s",
    )


def test_criterion_6_limit_laws():
    rng = np.random.default_rng(SEED)
    worst_ee, worst_sh = 0.0, 0.0
    for i in range(20):
        L = 6 if i % 2 else 8
        psi = random_state(L, rng)
        part = Bipartition(L, L // 2)
        for axis in ("X", "Y", "Z"):
            worst_ee = max(
                worst_ee, abs(r2gse_pure(psi, part, axis, 0.0) - renyi2_ee(psi, part))
            )
            worst_sh = max(
                worst_sh,
                abs(
                    r2gse_pure(psi, part, axis, 0.5)
                    - renyi2_shannon_entropy(psi, part, axis)
                ),
            )
    ok = worst_ee <= 1e-10 and worst_sh <= 1e-10
    report(
        "criterion 6 (limit laws, 20 random states, all axes)",
        ok,
        f"max |R2GSE(0) - EE| = {worst_ee:.2e}, max |R2GSE(1/2) - R2SE| = {worst_sh:.2e}",
    )


def test_criterion_7_path_equivalence(critical):
    psi = critical(8)
    sv = pure_supervector(psi)
    worst = 0.0
    for l_a in (2, 3, 4):
        part = Bipartition(8, l_a)
        for p_m in (0.0, 0.1, 0.25, 0.5):
            values = [
                kernel_entropy(entropy._DenseGramPlan, psi, 0, l_a, "Z", p_m),
                kernel_entropy(entropy._LowRankPlan, psi, 0, l_a, "Z", p_m),
                r2gse_supervector(sv, part, "Z", p_m),
                r2gse_dense(psi, part, "Z", p_m),
            ]
            worst = max(worst, max(values) - min(values))
    # whole chain: rank1_full joins, depolarizing nothing on the doubled side
    part = Bipartition(8, 4)
    for p_m in (0.0, 0.1, 0.25, 0.5):
        values = [
            GsePlan(psi, 0, 8).entropy(p_m),  # the size rule picks rank1_full
            kernel_entropy(entropy._DenseGramPlan, psi, 0, 8, "Z", p_m),
            kernel_entropy(entropy._LowRankPlan, psi, 0, 8, "Z", p_m),
            r2gse_dense(psi, part, "Z", p_m, subsystem="AB"),
        ]
        worst = max(worst, max(values) - min(values))
    ok = worst <= 1e-10
    report(
        "criterion 7 (five-way path equivalence, L=8 critical)",
        ok,
        f"max pairwise discrepancy = {worst:.2e} <= 1e-10",
    )


def test_criterion_8_depolarization_identities():
    rng = np.random.default_rng(SEED + 1)
    worst_eq16, worst_norm = 0.0, 0.0
    for i in range(50):
        L = 2 + i % 3
        rho = random_density(L, rng)
        part = Bipartition(L, 1 + i % (L - 1))
        sv = vectorize(rho)
        lhs = devectorize(depolarize_subsystem(sv, part.sites_B))
        rhs = np.kron(
            np.eye(part.d_B) / part.d_B, partial_trace_dense(rho, part, keep="A")
        )
        worst_eq16 = max(worst_eq16, float(np.max(np.abs(lhs - rhs))))
        axis = "XYZ"[i % 3]
        spec = ChannelSpec(axis, 0.1 + 0.1 * (i % 4), tuple(range(L)))
        lifted = apply_lifted_channel(sv, lift_channel(spec))
        worst_norm = max(
            worst_norm,
            abs(
                float(np.vdot(lifted, lifted).real)
                - purity_dense(apply_channel_dense(rho, spec))
            ),
        )
    ok = worst_eq16 <= 1e-12 and worst_norm <= 1e-12
    report(
        "criterion 8 (depolarization and norm-purity identities, 50 mixed states)",
        ok,
        f"max depolarize-vs-trace error = {worst_eq16:.2e}, "
        f"max norm-vs-purity error = {worst_norm:.2e}",
    )


def test_criterion_9_channel_properties_and_symmetry(critical):
    rng = np.random.default_rng(SEED + 2)
    worst_trace, worst_herm, min_eig = 0.0, 0.0, 0.0
    for i in range(12):
        L = 2 + i % 3
        rho = random_density(L, rng)
        axis = "XYZ"[i % 3]
        out = apply_channel_dense(rho, ChannelSpec(axis, (i % 5) / 8.0, tuple(range(L))))
        worst_trace = max(worst_trace, abs(np.trace(out).real - 1.0))
        worst_herm = max(worst_herm, float(np.max(np.abs(out - out.conj().T))))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(out))))
    psi = critical(8)
    worst_sym = 0.0
    for axis in ("Z", "X"):
        for p_m in (0.0, 0.2, 0.5):
            for l_a in (1, 2, 3):
                a = r2gsmi(psi, Bipartition(8, l_a), axis, p_m).I2
                b = r2gsmi(psi, Bipartition(8, 8 - l_a), axis, p_m).I2
                worst_sym = max(worst_sym, abs(a - b))
    ok = (
        worst_trace <= 1e-12
        and worst_herm <= 1e-12
        and min_eig >= -1e-10
        and worst_sym <= 1e-10
    )
    report(
        "criterion 9 (channel properties and mutual-information symmetry)",
        ok,
        f"trace {worst_trace:.2e}, hermiticity {worst_herm:.2e}, "
        f"min eigenvalue {min_eig:.2e}, max |I2(L_A) - I2(L-L_A)| = {worst_sym:.2e}",
    )


def test_criterion_10_exact_fit_and_closed_forms():
    L = 32
    synth = [
        (L, l_a, 0.25 * scaling_variable(L, l_a) + 0.5) for l_a in range(8, 25)
    ]
    res = fit_cft(synth)
    fit_ok = abs(res.c2 - 1.0) <= 1e-12 and abs(res.b2 - 0.5) <= 1e-12

    ghz = ghz_state(6)
    part = Bipartition(6, 2)
    ghz_pt = r2gsmi(ghz, part, "Z", 0.5)
    zero_pt = r2gsmi(zero_state(6), part, "Z", 0.3)
    closed_ok = (
        abs(ghz_pt.S_A - LOG2) <= 1e-12
        and abs(ghz_pt.I2 - LOG2) <= 1e-12
        and abs(zero_pt.I2) <= 1e-12
        and abs(renyi2_ee(ghz_state(2), Bipartition(2, 1)) - LOG2) <= 1e-12
    )
    ok = fit_ok and closed_ok
    report(
        "criterion 10 (exact fit recovery and closed-form entropies)",
        ok,
        f"fit errors ({abs(res.c2 - 1.0):.1e}, {abs(res.b2 - 0.5):.1e}); "
        f"GHZ/product deviations <= 1e-12: {closed_ok}",
    )
