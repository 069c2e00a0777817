import math

import numpy as np
import pytest

from renyimi import default_window, fit_cft, scaling_variable
from renyimi.scaling import fit_rows


def ansatz(L, L_A, c2, b2):
    return (c2 / 4.0) * scaling_variable(L, L_A) + b2


def test_scaling_variable_half_chain():
    assert abs(scaling_variable(32, 16) - math.log(32 / math.pi)) < 1e-14


def test_scaling_variable_quarter_chain_closed_form():
    assert abs(scaling_variable(20, 5) - math.log(20 / (math.pi * math.sqrt(2)))) < 1e-14


def test_scaling_variable_symmetric():
    for L_A in range(1, 20):
        assert scaling_variable(20, L_A) == pytest.approx(scaling_variable(20, 20 - L_A), abs=1e-14)


def test_scaling_variable_range_check():
    with pytest.raises(ValueError):
        scaling_variable(16, 0)
    with pytest.raises(ValueError):
        scaling_variable(16, 16)


def test_fit_recovers_exact_synthetic_data():
    L = 32
    pts = [(L, L_A, ansatz(L, L_A, 1.0, 0.5)) for L_A in range(8, 25)]
    res = fit_cft(pts)
    assert abs(res.c2 - 1.0) < 1e-12
    assert abs(res.b2 - 0.5) < 1e-12
    assert res.rms < 1e-12


def test_two_points_interpolate_exactly():
    pts = [(16, 4, 0.9), (16, 8, 1.3)]
    res = fit_cft(pts)
    assert res.rms < 1e-12
    assert max(abs(r) for r in res.residuals) < 1e-12


def test_fit_is_affine_equivariant():
    rng = np.random.default_rng(7)
    L = 24
    pts = [(L, L_A, ansatz(L, L_A, 1.1, 0.3) + 0.01 * rng.standard_normal()) for L_A in range(6, 19)]
    base = fit_cft(pts)
    shifted = fit_cft([(L, L_A, i2 + 2.5) for (L, L_A, i2) in pts])
    assert abs(shifted.c2 - base.c2) < 1e-12
    assert abs(shifted.b2 - (base.b2 + 2.5)) < 1e-12


def test_fit_is_permutation_invariant_bitwise():
    rng = np.random.default_rng(8)
    L = 20
    pts = [(L, L_A, ansatz(L, L_A, 0.97, 0.4) + 0.02 * rng.standard_normal()) for L_A in range(5, 16)]
    res_a = fit_cft(pts)
    res_b = fit_cft(list(reversed(pts)))
    assert res_a.c2 == res_b.c2
    assert res_a.b2 == res_b.b2
    assert res_a.residuals == res_b.residuals


def test_batched_fit_keeps_the_bits_of_the_one_row_fit():
    # fit_rows on many groups at once, each row's samples shuffled, against a
    # one-group OLS in scalar steps: sorted samples, means, one dot each
    rng = np.random.default_rng(10)
    L, l_a = 20, np.arange(3, 18)
    x = np.array([scaling_variable(L, v) for v in l_a])
    y = 0.25 * x + 0.3 + 0.01 * rng.standard_normal((40, l_a.size))
    order = np.argsort(rng.random((40, l_a.size)), axis=1)
    c2, b2, rms, _ = fit_rows(x[order], np.take_along_axis(y, order, axis=1))
    for g in range(40):
        xs, ys = np.array(sorted(zip(x, y[g]))).T
        dx = xs - xs.mean()
        slope = float(dx @ (ys - ys.mean())) / float(dx @ dx)
        intercept = ys.mean() - slope * xs.mean()
        residuals = ys - slope * xs - intercept
        assert (c2[g], b2[g], rms[g]) == (4.0 * slope, intercept, np.sqrt(np.mean(residuals**2)))


def test_fit_residual_definition():
    rng = np.random.default_rng(9)
    L = 20
    pts = [(L, L_A, ansatz(L, L_A, 1.0, 0.0) + 0.05 * rng.standard_normal()) for L_A in range(5, 16)]
    res = fit_cft(pts)
    xs = sorted((scaling_variable(L, L_A), i2) for (L, L_A, i2) in pts)
    expect = [y - (res.c2 / 4.0) * x - res.b2 for x, y in xs]
    assert np.max(np.abs(np.array(expect) - np.array(res.residuals))) < 1e-14
    assert res.rms == pytest.approx(float(np.sqrt(np.mean(np.array(expect) ** 2))), abs=1e-15)


def test_fit_rejects_rank_deficient_design():
    # symmetric pairs collapse onto one scaling value
    pts = [(16, 6, 1.0), (16, 10, 1.0)]
    with pytest.raises(ValueError, match="rank-deficient"):
        fit_cft(pts)
    with pytest.raises(ValueError):
        fit_cft([(16, 8, 1.0)])


def test_default_window():
    assert default_window(32) == (8, 24)
    assert default_window(20) == (5, 15)
    assert default_window(10) == (3, 7)
