"""Experiment orchestration: configs, ground-state caching, sweeps, CSV output.

Config files are plain `key = value` lines with `#` comments; lists are
comma-separated and integer ranges may be written lo:hi (inclusive).
Recognized keys: the fields of `ExperimentConfig`, and `method`, which
accepts only `lanczos`, the sector solver every run uses.  L must lie in
3..LANCZOS_MAX_SITES.

Case 1 (pure state, strengths p_m) and case 2 (Y-decohered, strengths
(p_m, p_y)) differ only in their validation and plan family: both build one
`MiPlan` per L_A and run the same sweep, in the row order of the points CSV.
The points and fits CSVs, like the ground-state cache record, are written
through `tfim.atomic_write`; their columns are the fields of `MiPoint` and
`FitRow`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from itertools import product
from operator import attrgetter

import numpy as np

from .entropy import MiPoint, PauliWeightPlan, build_mi_plans
# fit_cft, the one-group form of fit_rows, is not called here, but
# perfbench/tracing.py wraps experiments.fit_cft by name
from .scaling import default_window, degenerate_design, fit_cft, fit_rows, scaling_variable  # noqa: F401
from .spin import AXES
from .tfim import (
    LANCZOS_MAX_SITES,
    GroundStateResult,
    atomic_write,
    cache_path,
    ground_state,
    load_ground_state,
    save_ground_state,
)

# the whole-chain Pauli-weight histogram transforms about 2^L / 4L orbit
# representatives over L - 1 bits; a warm run (L_A 4:L-4, 6x6 grid, one BLAS
# thread, 2-vCPU VM) takes 0.8 s at L=16 and 10.1-11.3 s at L=18 (three runs
# with the cap lifted), of which that histogram takes 5-10 s from run to run,
# so L=18 is not reliably within a 15 s budget
CASE2_MAX_SITES = 16

_POINTS_PREAMBLE = "# entropies in nats (natural log)"
_FITS_PREAMBLE = "# fit method: ordinary least squares"


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    L: int
    axis: str = "Z"
    p_m: tuple = (0.0,)
    p_y: tuple = ()
    L_A: tuple = ()
    window: tuple = ()
    out: str = ""
    cache_dir: str = "cache"
    workers: int = 1


@dataclass(frozen=True)
class FitRow:
    axis: str
    p_m: float
    p_y: float
    c2: float
    b2: float
    rms: float
    window: tuple


POINT_COLUMNS = tuple(f.name for f in fields(MiPoint))
FIT_COLUMNS = tuple(f.name for f in fields(FitRow))


def _parse_int(text, key):
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {text!r}") from exc


def _parse_float_list(text, key):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse float list {text!r}") from exc
    if not values:
        raise ConfigError(f"{key}: empty list")
    return values


def _parse_range(text, key):
    """(lo, hi) from the text lo:hi."""
    lo, sep, hi = str(text).partition(":")
    if not sep:
        raise ConfigError(f"{key} must be lo:hi, got {text!r}")
    try:
        return (int(lo), int(hi))
    except ValueError as exc:
        raise ConfigError(f"{key} must be lo:hi with integers, got {text!r}") from exc


def _parse_int_list(text, key):
    text = text.strip()
    if ":" in text:
        lo, hi = _parse_range(text, key)
        if lo > hi:
            raise ConfigError(f"{key}: empty range {text!r}")
        if not 0 < lo <= hi < LANCZOS_MAX_SITES:  # checked before the tuple is built
            raise ConfigError(f"{key}: range {text!r} outside (0, {LANCZOS_MAX_SITES})")
        return tuple(range(lo, hi + 1))
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse int list {text!r}") from exc
    if not values:
        raise ConfigError(f"{key}: empty list")
    return values


def parse_window(text):
    return _parse_range(text, "window")


# the parser of each ExperimentConfig field; build_config checks and drops `method`
_PARSERS = {
    "L": _parse_int,
    "axis": lambda text, key: text,
    "p_m": _parse_float_list,
    "p_y": _parse_float_list,
    "L_A": _parse_int_list,
    "window": _parse_range,
    "out": lambda text, key: text,
    "cache_dir": lambda text, key: text,
    "workers": _parse_int,
}


def parse_config_text(text) -> dict:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS and key != "method":
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _check_window(window, L):
    """Reject a fit window lo:hi unless 0 < lo <= hi < L."""
    lo, hi = window
    if not 0 < lo <= hi < L:
        raise ConfigError(f"window {lo}:{hi} outside (0, {L})")


def build_config(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    raw = dict(raw)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    if "L" not in raw:
        raise ConfigError("missing required key L")
    method = raw.pop("method", "lanczos")
    for key in raw:
        if key not in _PARSERS:
            raise ConfigError(f"unknown key {key!r}")
    cfg = ExperimentConfig(**{k: _PARSERS[k](v, k) for k, v in raw.items()})
    if cfg.L < 3:
        raise ConfigError(f"L must be >= 3, got {cfg.L}")
    if cfg.L > LANCZOS_MAX_SITES:
        raise ConfigError(f"L must be <= {LANCZOS_MAX_SITES}, the sector solver's cap, got {cfg.L}")
    if method != "lanczos":
        raise ConfigError(
            f"method must be lanczos, got {method!r}; the full-space "
            "dense solver is renyimi.oracle.dense_ground_state"
        )
    if cfg.axis not in AXES:
        raise ConfigError(f"axis must be one of {AXES}, got {cfg.axis!r}")
    if cfg.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg.workers}")
    for name in ("p_m", "p_y"):
        for p in getattr(cfg, name):
            if not 0.0 <= p <= 0.5:
                raise ConfigError(f"{name} value {p} outside [0, 1/2]")
    for la in cfg.L_A:
        if not 0 < la < cfg.L:
            raise ConfigError(f"L_A value {la} outside (0, {cfg.L})")
    if cfg.window:
        _check_window(cfg.window, cfg.L)
    return cfg


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_config(parse_config_text(text), overrides)


def effective_window(cfg: ExperimentConfig):
    return cfg.window if cfg.window else default_window(cfg.L)


def _check_fittable(L, l_a_values, window):
    """Reject a fit window that holds fewer than two distinct scaling values of a chain of L."""
    lo, hi = window
    if degenerate_design([scaling_variable(L, la) for la in l_a_values if lo <= la <= hi]):
        raise ConfigError(
            f"window {lo}:{hi} leaves fewer than two distinct scaling values "
            f"over L_A={list(l_a_values)}"
        )


def check_output_paths(*paths):
    """Reject, before any work, an output path that cannot be written as a file."""
    for path in paths:
        out_dir, name = os.path.split(path)  # the head, where `atomic_write` writes
        out_dir = out_dir or os.curdir
        if not name:
            raise ConfigError(f"output path {path} ends in a separator and names no file")
        if not os.path.isdir(out_dir):
            raise ConfigError(f"output directory {out_dir} does not exist")
        if os.path.isdir(path):
            raise ConfigError(f"output path {path} is a directory")
        name_max = os.pathconf(out_dir, "PC_NAME_MAX")
        if len(os.fsencode(os.path.basename(path))) > name_max:
            raise ConfigError(f"output name of {path} is longer than {name_max} bytes")


def _check_out(cfg: ExperimentConfig, case):
    if not cfg.out:
        raise ConfigError(f"{case} requires an output path (out = ... or --out)")
    check_output_paths(cfg.out, fits_csv_path(cfg.out))


def validate_case1(cfg: ExperimentConfig):
    _check_out(cfg, "case1")
    if not cfg.L_A:
        raise ConfigError("case1 requires an L_A list")
    if cfg.p_y and set(cfg.p_y) != {0.0}:
        raise ConfigError("case1 is a pure-state sweep; p_y must be absent")
    _check_fittable(cfg.L, cfg.L_A, effective_window(cfg))


def validate_case2(cfg: ExperimentConfig):
    _check_out(cfg, "case2")
    if not cfg.L_A:
        raise ConfigError("case2 requires an L_A list")
    if not cfg.p_y:
        raise ConfigError("case2 requires a p_y grid")
    if cfg.axis != "Z":
        raise ConfigError("case2 dephases in the Z basis; set axis = Z")
    if cfg.L > CASE2_MAX_SITES:
        raise ConfigError(f"case2 is capped at L <= {CASE2_MAX_SITES}")
    _check_fittable(cfg.L, cfg.L_A, effective_window(cfg))


def cached_ground_state(L, cache_dir="cache"):
    """Ground state with on-disk reuse; returns (result, cache_hit).

    Neither a hit nor a miss forms the 2^L state.  A record of another L or
    format version, such as version 4 with the 2^L amplitudes or version 5
    with the shift-and-flip sector's, is a miss; it is overwritten.  A cache_dir or a record path that cannot be used is a
    ConfigError, raised before any solve.
    """
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use cache directory {cache_dir}: {exc}") from exc
    path = cache_path(cache_dir, L)
    check_output_paths(path)
    if os.path.exists(path):
        try:
            result = load_ground_state(path)
            if result.L == L:
                return result, True
        except (ValueError, OSError):
            pass  # stale or foreign file: recompute and overwrite
    result = ground_state(L)
    save_ground_state(path, result)
    return result, False


def _sweep(cfg: ExperimentConfig, ground, plan, grid):
    """Points over L_A and the strength grid, and their fits, for a validated config.

    `plan` is the window plan class that `build_mi_plans` builds (None for
    GsePlan); `grid` holds the strength lists, (p_m,) or (p_m, p_y).  Rows
    come in (p_m, p_y, L_A) order, the order of the points CSV.
    """
    if ground is None:
        ground, _ = cached_ground_state(cfg.L, cache_dir=cfg.cache_dir)
    if ground.L != cfg.L:
        raise ConfigError(f"ground state of L={ground.L} is not one of L={cfg.L}")
    l_a_values = sorted(set(cfg.L_A))
    grid = [sorted(set(values)) for values in grid]
    window = effective_window(cfg)
    _check_window(window, cfg.L)
    # the module global, looked up at each call, so a traced one is the one that runs
    plans = build_mi_plans(ground.state, l_a_values, cfg.axis, cfg.workers, plan)
    mis = [plans[l_a] for l_a in l_a_values]
    # the MiPlans share plans: each distinct one evaluates the whole grid once,
    # flattened in (p_m, p_y) order
    entropies = {}
    for mi in mis:
        for p in mi.plans:
            if p not in entropies:
                entropies[p] = p.entropies(*grid).reshape(-1)
    # (strength tuple, L_A) arrays in the row order of the points CSV
    s_a, s_b, s_ab = (np.stack([entropies[mi.plans[k]] for mi in mis], axis=1) for k in range(3))
    i2 = s_a + s_b - s_ab
    strengths = [(*map(float, t), 0.0)[:2] for t in product(*grid)]  # p_y = 0 on pure-state plans
    points = [
        MiPoint(cfg.L, l_a, cfg.axis, p_m, p_y, *row)
        for (p_m, p_y), rows in zip(strengths, np.stack((s_a, s_b, s_ab, i2), axis=-1).tolist())
        for l_a, row in zip(l_a_values, rows)
    ]
    keys = [(cfg.axis, p_m, p_y) for p_m, p_y in strengths]
    return points, _fit_groups(cfg.L, l_a_values, i2, window, keys)


def run_case1(cfg: ExperimentConfig, ground: GroundStateResult | None = None):
    """Pure-state sweep over (L_A, p_m) on GsePlans; returns (points, fit rows)."""
    validate_case1(cfg)
    return _sweep(cfg, ground, None, (cfg.p_m,))


def run_case2(cfg: ExperimentConfig, ground: GroundStateResult | None = None):
    """Sweep over (L_A, p_m, p_y) for the Y-decohered ground state.

    One PauliWeightPlan per distinct window (the whole chain, and A and B
    for each L_A; see `build_mi_plans`) serves every (p_m, p_y) point.
    """
    validate_case2(cfg)
    return _sweep(cfg, ground, PauliWeightPlan, (cfg.p_m, cfg.p_y))


def _fit_groups(L, l_a, i2, window, keys):
    """FitRows of the groups `keys`, (axis, p_m, p_y) each, in one batched fit.

    Row g of `i2` holds the I2 of group g at the L_A values `l_a`; the
    values inside `window` share one design.
    """
    lo, hi = window
    inside = [j for j, v in enumerate(l_a) if lo <= v <= hi]
    x = np.array([scaling_variable(L, l_a[j]) for j in inside])
    c2, b2, rms, _ = fit_rows(np.broadcast_to(x, (len(keys), x.size)), i2[:, inside])
    return [FitRow(*key, *fit, window) for key, fit in zip(keys, zip(c2.tolist(), b2.tolist(), rms.tolist()))]


def fit_points(points, window=None):
    """Group loaded points by (axis, p_m, p_y) and fit each group; all share one L.

    The groups that hold the same L_A values share one window check and one
    design, and are fitted as one batch.
    """
    chains = sorted({p.L for p in points})
    if len(chains) > 1:
        raise ConfigError(f"points of more than one chain length L {chains}; fit each L alone")
    groups = {}
    for p in points:
        groups.setdefault((p.axis, p.p_m, p.p_y), []).append(p)
    if not groups:
        return []
    L = chains[0]
    win = window if window else default_window(L)
    _check_window(win, L)
    by_l_a = attrgetter("L_A")
    families = {}  # the sorted L_A values of a group: the keys of the groups that hold them
    for key in sorted(groups):
        groups[key].sort(key=by_l_a)
        families.setdefault(tuple(map(by_l_a, groups[key])), []).append(key)
    fits = {}
    for l_a, keys in families.items():
        _check_fittable(L, sorted(set(l_a)), win)
        i2 = np.array([[p.I2 for p in groups[key]] for key in keys])
        fits.update(zip(keys, _fit_groups(L, l_a, i2, win, keys)))
    return [fits[key] for key in sorted(groups)]


def _fmt(value):
    # shortest round-trip decimal for floats, lo:hi for a window, plain text otherwise
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return f"{value[0]}:{value[1]}"
    return str(value)


def _fmt_column(values, reprs):
    # plain floats, as the sweeps and the loader give them, take one repr per
    # distinct nonzero value, kept in `reprs` across the columns (a sweep
    # repeats its strengths, and S_B repeats S_A of a shared plan); zeros take
    # their own, as 0.0 == -0.0.  Ints and text take one str per distinct
    # value, and any other column goes through _fmt
    kinds = set(map(type, values))
    if kinds == {float}:
        reprs.update({v: repr(v) for v in set(values) - reprs.keys() if v})
        return [reprs[v] if v else repr(v) for v in values]
    if kinds <= {int, str}:  # no int equals a str, so one dict holds both
        text = {v: str(v) for v in set(values)}
        return list(map(text.__getitem__, values))
    return list(map(_fmt, values))


def _write_csv(path, preamble, columns, rows):
    """The rows formatted a column at a time, then written at once."""
    reprs = {}
    cells = [_fmt_column(values, reprs) for values in zip(*map(attrgetter(*columns), rows))]
    lines = map(",".join, zip(*cells))
    with atomic_write(path) as fh:
        fh.write("\n".join([preamble, ",".join(columns), *lines, ""]).encode())


def write_points_csv(path, points):
    _write_csv(path, _POINTS_PREAMBLE, POINT_COLUMNS, points)


def write_fits_csv(path, fits):
    _write_csv(path, _FITS_PREAMBLE, FIT_COLUMNS, fits)


def read_points_csv(path):
    """MiPoints of a points CSV; a bad header or row, a non-finite field, or an axis,
    L_A, p_m or p_y that no config accepts, is a ConfigError."""
    points = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read points CSV {path}: {exc}") from exc
    if not rows or rows[0].split(",") != list(POINT_COLUMNS):
        raise ConfigError(f"{path}: not a points CSV (bad header)")
    for row in rows[1:]:
        tok = row.split(",")
        if len(tok) != len(POINT_COLUMNS):
            raise ConfigError(f"{path}: malformed row {row!r}")
        try:  # fields in MiPoint order: L, L_A, axis, then six floats
            values = [int(tok[0]), int(tok[1]), tok[2]] + [float(t) for t in tok[3:]]
        except ValueError as exc:
            raise ConfigError(f"{path}: non-numeric field in row {row!r}") from exc
        if not all(map(math.isfinite, values[3:])):
            raise ConfigError(f"{path}: non-finite field in row {row!r}")
        L, l_a, axis, p_m, p_y = values[:5]  # in the domain that `build_config` holds a config to
        if axis not in AXES or not 0 < l_a < L or not (0.0 <= p_m <= 0.5 and 0.0 <= p_y <= 0.5):
            raise ConfigError(f"{path}: row {row!r} is not axis X/Y/Z, 0 < L_A < L, p in [0, 1/2]")
        points.append(MiPoint(*values))
    return points


def fits_csv_path(points_path):
    root, ext = os.path.splitext(points_path)
    return f"{root}_fits{ext or '.csv'}"
