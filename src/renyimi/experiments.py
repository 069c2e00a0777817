"""Experiment orchestration: configs, ground-state caching, sweeps, CSV output.

Config files are plain `key = value` lines with `#` comments; lists are
comma-separated and integer ranges may be written lo:hi (inclusive).
Recognized keys: L, method, axis, p_m, p_y, L_A, window, out, cache_dir,
workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .entropy import MiPoint, PauliWeightPlan, build_mi_plans, sweep_plans
from .scaling import default_window, fit_cft, scaling_variable
from .spin import AXES
from .tfim import (
    GroundStateResult,
    TfimModel,
    cache_path,
    ground_state,
    load_ground_state,
    save_ground_state,
)

# the whole-chain Pauli-weight histogram costs O(L 4^L): about 20 s at L=14
CASE2_MAX_SITES = 14

POINT_COLUMNS = ("L", "L_A", "axis", "p_m", "p_y", "S_A", "S_B", "S_AB", "I2")
FIT_COLUMNS = ("axis", "p_m", "p_y", "c2", "b2", "rms", "window")
_POINTS_PREAMBLE = "# entropies in nats (natural log)"
_FITS_PREAMBLE = "# fit method: ordinary least squares"


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    L: int
    method: str = "lanczos"
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


_KEYS = ("L", "method", "axis", "p_m", "p_y", "L_A", "window", "out", "cache_dir", "workers")


def _parse_float_list(text, key):
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse float list {text!r}") from exc
    if not values:
        raise ConfigError(f"{key}: empty list")
    return values


def _parse_int_list(text, key):
    text = text.strip()
    if ":" in text:
        lo, _, hi = text.partition(":")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse range {text!r}") from exc
        if lo > hi:
            raise ConfigError(f"{key}: empty range {text!r}")
        return tuple(range(lo, hi + 1))
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse int list {text!r}") from exc
    if not values:
        raise ConfigError(f"{key}: empty list")
    return values


def parse_window(text):
    lo, sep, hi = str(text).partition(":")
    if not sep:
        raise ConfigError(f"window must be lo:hi, got {text!r}")
    try:
        return (int(lo), int(hi))
    except ValueError as exc:
        raise ConfigError(f"window must be lo:hi with integers, got {text!r}") from exc


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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def build_config(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    raw = dict(raw)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    if "L" not in raw:
        raise ConfigError("missing required key L")
    try:
        L = int(raw["L"])
    except ValueError as exc:
        raise ConfigError(f"L: not an integer: {raw['L']!r}") from exc
    if L < 2:
        raise ConfigError(f"L must be >= 2, got {L}")

    cfg = ExperimentConfig(L=L)
    if "method" in raw:
        if raw["method"] not in ("lanczos", "dense"):
            raise ConfigError(f"method must be lanczos or dense, got {raw['method']!r}")
        cfg = replace(cfg, method=raw["method"])
    if "axis" in raw:
        if raw["axis"] not in AXES:
            raise ConfigError(f"axis must be one of {AXES}, got {raw['axis']!r}")
        cfg = replace(cfg, axis=raw["axis"])
    if "p_m" in raw:
        cfg = replace(cfg, p_m=_parse_float_list(raw["p_m"], "p_m"))
    if "p_y" in raw:
        cfg = replace(cfg, p_y=_parse_float_list(raw["p_y"], "p_y"))
    if "L_A" in raw:
        cfg = replace(cfg, L_A=_parse_int_list(raw["L_A"], "L_A"))
    if "window" in raw:
        cfg = replace(cfg, window=parse_window(raw["window"]))
    if "out" in raw:
        cfg = replace(cfg, out=raw["out"])
    if "cache_dir" in raw:
        cfg = replace(cfg, cache_dir=raw["cache_dir"])
    if "workers" in raw:
        try:
            workers = int(raw["workers"])
        except ValueError as exc:
            raise ConfigError(f"workers: not an integer: {raw['workers']!r}") from exc
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        cfg = replace(cfg, workers=workers)

    for name in ("p_m", "p_y"):
        for p in getattr(cfg, name):
            if not 0.0 <= p <= 0.5:
                raise ConfigError(f"{name} value {p} outside [0, 1/2]")
    for la in cfg.L_A:
        if not 0 < la < cfg.L:
            raise ConfigError(f"L_A value {la} outside (0, {cfg.L})")
    if cfg.window:
        lo, hi = cfg.window
        if not (0 < lo <= hi < cfg.L):
            raise ConfigError(f"window {lo}:{hi} outside (0, {cfg.L})")
    if cfg.method == "lanczos" and cfg.L < 3:
        raise ConfigError("lanczos needs L >= 3; use method = dense for L = 2")
    return cfg


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_config(parse_config_text(text), overrides)


def effective_window(cfg: ExperimentConfig):
    return cfg.window if cfg.window else default_window(cfg.L)


def _check_fittable(cfg: ExperimentConfig):
    lo, hi = effective_window(cfg)
    xs = {round(scaling_variable(cfg.L, la), 12) for la in cfg.L_A if lo <= la <= hi}
    if len(xs) < 2:
        raise ConfigError(
            f"window {lo}:{hi} leaves fewer than two distinct scaling values "
            f"over L_A={list(cfg.L_A)}"
        )


def validate_case1(cfg: ExperimentConfig):
    if not cfg.out:
        raise ConfigError("case1 requires an output path (out = ... or --out)")
    if not cfg.L_A:
        raise ConfigError("case1 requires an L_A list")
    if cfg.p_y and set(cfg.p_y) != {0.0}:
        raise ConfigError("case1 is a pure-state sweep; p_y must be absent")
    _check_fittable(cfg)


def validate_case2(cfg: ExperimentConfig):
    if not cfg.out:
        raise ConfigError("case2 requires an output path (out = ... or --out)")
    if not cfg.L_A:
        raise ConfigError("case2 requires an L_A list")
    if not cfg.p_y:
        raise ConfigError("case2 requires a p_y grid")
    if cfg.axis != "Z":
        raise ConfigError("case2 dephases in the Z basis; set axis = Z")
    if cfg.L > CASE2_MAX_SITES:
        raise ConfigError(f"case2 is capped at L <= {CASE2_MAX_SITES}")
    _check_fittable(cfg)


def cached_ground_state(L, method="lanczos", cache_dir="cache"):
    """Ground state with on-disk reuse; returns (result, cache_hit).

    A record written by the other solver is a miss: the dense and Lanczos
    states differ in their last digits.  So is a record of another format
    version, such as version 2 with complex amplitudes; it is overwritten.
    """
    path = cache_path(cache_dir, L)
    if os.path.exists(path):
        try:
            result = load_ground_state(path)
            if len(result.state) == 2**L and result.residual <= 1e-8 and result.method == method:
                return result, True
        except (ValueError, OSError):
            pass  # stale or foreign file: recompute and overwrite
    result = ground_state(TfimModel(L), method=method)
    os.makedirs(cache_dir, exist_ok=True)
    save_ground_state(path, result)
    return result, False


def _fit_group(points, window):
    lo, hi = window
    data = [(p.L, p.L_A, p.I2) for p in points if lo <= p.L_A <= hi]
    return fit_cft(data)


def run_case1(cfg: ExperimentConfig, ground: GroundStateResult | None = None):
    """Pure-state sweep over (L_A, p_m); returns (points, fit rows)."""
    validate_case1(cfg)
    if ground is None:
        ground, _ = cached_ground_state(cfg.L, method=cfg.method, cache_dir=cfg.cache_dir)
    l_a_values = sorted(set(cfg.L_A))
    plans = build_mi_plans(ground.state, l_a_values, cfg.axis, workers=cfg.workers)
    # rows in (p_m, L_A) order, the order of the points CSV
    points = [plans[l_a].point(p_m) for p_m in sorted(set(cfg.p_m)) for l_a in l_a_values]
    return points, fit_points(points, effective_window(cfg))


def run_case2(cfg: ExperimentConfig, ground: GroundStateResult | None = None):
    """Sweep over (L_A, p_m, p_y) for the Y-decohered ground state.

    One Pauli-weight plan per distinct window (the whole chain, and A and B
    for each L_A; see `sweep_plans`) serves every (p_m, p_y) point.
    """
    validate_case2(cfg)
    if ground is None:
        ground, _ = cached_ground_state(cfg.L, method=cfg.method, cache_dir=cfg.cache_dir)
    l_a_values = sorted(set(cfg.L_A))
    plans = sweep_plans(ground.state, l_a_values, PauliWeightPlan, cfg.workers)

    # rows in (p_m, p_y, L_A) order, the order of the points CSV
    points = []
    for p_m in sorted(set(cfg.p_m)):
        for p_y in sorted(set(cfg.p_y)):
            for l_a in l_a_values:
                s_a, s_b, s_ab = (
                    plans[w].entropy(p_m, p_y) for w in ((0, l_a), (l_a, cfg.L - l_a), (0, cfg.L))
                )
                points.append(MiPoint(
                    L=cfg.L, L_A=l_a, axis=cfg.axis, p_m=p_m, p_y=p_y,
                    S_A=s_a, S_B=s_b, S_AB=s_ab, I2=s_a + s_b - s_ab,
                ))
    return points, fit_points(points, effective_window(cfg))


def fit_points(points, window=None):
    """Group loaded points by (axis, p_m, p_y) and fit each group."""
    groups = {}
    for p in points:
        groups.setdefault((p.axis, p.p_m, p.p_y), []).append(p)
    fits = []
    for (axis, p_m, p_y) in sorted(groups):
        group = groups[(axis, p_m, p_y)]
        win = window if window else default_window(group[0].L)
        res = _fit_group(group, win)
        fits.append(FitRow(axis, p_m, p_y, res.c2, res.b2, res.rms, win))
    return fits


def _fmt(value):
    # shortest round-trip decimal for floats, plain text otherwise
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_points_csv(path, points):
    lines = [_POINTS_PREAMBLE, ",".join(POINT_COLUMNS)]
    for p in points:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (p.L, p.L_A, p.axis, p.p_m, p.p_y, p.S_A, p.S_B, p.S_AB, p.I2)
            )
        )
    _write_text_atomic(path, "\n".join(lines) + "\n")


def write_fits_csv(path, fits):
    lines = [_FITS_PREAMBLE, ",".join(FIT_COLUMNS)]
    for f in fits:
        window = f"{f.window[0]}:{f.window[1]}"
        lines.append(
            ",".join(_fmt(v) for v in (f.axis, f.p_m, f.p_y, f.c2, f.b2, f.rms, window))
        )
    _write_text_atomic(path, "\n".join(lines) + "\n")


def _write_text_atomic(path, text):
    """Write `text` to a new file beside `path`, then rename it over `path`, so a
    failed or interrupted write leaves any old file intact.

    The file is created with mode 0666 minus the umask, as a plain open()
    would, not with the 0600 of tempfile.mkstemp.
    """
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_points_csv(path):
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    if not rows or rows[0].split(",") != list(POINT_COLUMNS):
        raise ConfigError(f"{path}: not a points CSV (bad header)")
    for row in rows[1:]:
        tok = row.split(",")
        if len(tok) != len(POINT_COLUMNS):
            raise ConfigError(f"{path}: malformed row {row!r}")
        points.append(
            MiPoint(
                L=int(tok[0]), L_A=int(tok[1]), axis=tok[2],
                p_m=float(tok[3]), p_y=float(tok[4]),
                S_A=float(tok[5]), S_B=float(tok[6]), S_AB=float(tok[7]), I2=float(tok[8]),
            )
        )
    return points


def fits_csv_path(points_path):
    root, ext = os.path.splitext(points_path)
    return f"{root}_fits{ext or '.csv'}"
