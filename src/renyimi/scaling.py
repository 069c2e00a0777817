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


def fit_cft(points) -> FitResult:
    """Ordinary least squares of (L, L_A, I2) samples on the scaling form.

    Inputs are sorted internally, so permuting the points leaves the
    result bit-identical.  Raises on a rank-deficient design (fewer than
    two distinct scaling-variable values, e.g. only symmetric L_A pairs).
    """
    data = sorted((scaling_variable(L, L_A), float(i2)) for L, L_A, i2 in points)
    x = np.array([d[0] for d in data])
    y = np.array([d[1] for d in data])
    if degenerate_design(x):
        raise ValueError(
            "rank-deficient design: fewer than two distinct scaling-variable values "
            "(symmetric L_A pairs collapse)"
        )
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    slope = float(dx @ (y - ym)) / float(dx @ dx)
    intercept = ym - slope * xm
    c2 = 4.0 * slope
    b2 = intercept
    residuals = y - (c2 / 4.0) * x - b2
    rms = float(np.sqrt(np.mean(residuals**2)))
    return FitResult(c2=c2, b2=b2, rms=rms, residuals=tuple(float(r) for r in residuals))
