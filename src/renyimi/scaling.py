"""Least-squares fit of mutual-information data to the chord-length scaling form

    I2(L_A) = (c2 / 4) * ln((L / pi) * sin(pi * L_A / L)) + b2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def scaling_variable(L, L_A):
    """ln((L/pi) sin(pi L_A / L)); symmetric under L_A -> L - L_A."""
    if not 0 < L_A < L:
        raise ValueError(f"L_A={L_A} outside (0, {L})")
    return math.log((L / math.pi) * math.sin(math.pi * L_A / L))


def degenerate_design(xs):
    """True when the scaling values xs fix no slope: fewer than two, or all within 1e-12."""
    return len(xs) < 2 or max(xs) - min(xs) < 1e-12


def default_window(L):
    """Interior fit window: excludes L_A < L/4 and L_A > 3L/4."""
    return (math.ceil(L / 4), math.floor(3 * L / 4))


@dataclass(frozen=True)
class FitResult:
    """OLS fit of I2 against the scaling variable x.

    residuals[i] = y_i - (c2/4) x_i - b2, stored in the internal sorted
    order (ascending x, then y); rms is their root mean square.
    """

    c2: float
    b2: float
    rms: float
    residuals: tuple


def fit_rows(x, y):
    """OLS of each row of y on the same row of x, both (groups, n) arrays with n >= 2.

    Each row is sorted by (x, y) first, so permuting a row's samples leaves
    its fit bit-identical, and then takes the row means and one dot per
    row for the slope, the arithmetic of a one-row fit in its order.
    Returns the arrays (c2, b2, rms, residuals), the residuals in the sorted
    order of each row.
    """
    order = np.lexsort((y, x), axis=-1)
    x = np.take_along_axis(x, order, axis=-1)
    y = np.take_along_axis(y, order, axis=-1)
    xm = x.mean(axis=1)
    ym = y.mean(axis=1)
    dx = x - xm[:, None]
    dy = y - ym[:, None]
    slope = np.array(list(map(np.dot, dx, dy))) / np.array(list(map(np.dot, dx, dx)))
    b2 = ym - slope * xm
    c2 = 4.0 * slope
    residuals = y - (c2 / 4.0)[:, None] * x - b2[:, None]
    rms = np.sqrt(np.mean(residuals**2, axis=1))
    return c2, b2, rms, residuals


def fit_cft(points) -> FitResult:
    """Ordinary least squares of (L, L_A, I2) samples on the scaling form.

    Inputs are sorted internally, so permuting the points leaves the
    result bit-identical.  Raises on a rank-deficient design (fewer than
    two distinct scaling-variable values, e.g. only symmetric L_A pairs).
    The fit is the one-row case of `fit_rows`.
    """
    data = [(scaling_variable(L, L_A), float(i2)) for L, L_A, i2 in points]
    if degenerate_design([x for x, _ in data]):
        raise ValueError(
            "rank-deficient design: fewer than two distinct scaling-variable values "
            "(symmetric L_A pairs collapse)"
        )
    xy = np.array(data)
    c2, b2, rms, residuals = fit_rows(xy[None, :, 0], xy[None, :, 1])
    return FitResult(c2=float(c2[0]), b2=float(b2[0]), rms=float(rms[0]), residuals=tuple(residuals[0].tolist()))
