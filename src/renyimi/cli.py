"""Command-line driver.

    renyimi ground --config exp.cfg [--cache-dir DIR]
    renyimi case1  --config exp.cfg [--out FILE] [--window lo:hi] [--workers N]
    renyimi case2  --config exp.cfg [--out FILE] [--window lo:hi] [--workers N]
    renyimi fit    points.csv [--window lo:hi] [--out FILE]

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments
from .experiments import ConfigError
from .tfim import LanczosError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="renyimi",
        description="Renyi-2 mutual information sweeps for the critical Ising chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--cache-dir", default=None, help="ground-state cache directory")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--workers", type=int, default=None, help="worker thread count")
        p.add_argument("--window", default=None, help="fit window lo:hi")

    add_common(sub.add_parser("ground", help="compute and cache the ground state"))
    add_common(sub.add_parser("case1", help="pure-state (L_A, p_m) sweep and fits"))
    add_common(sub.add_parser("case2", help="Y-decohered (p_m, p_y) sweep and fits"))
    fit = sub.add_parser("fit", help="fit an existing points CSV")
    fit.add_argument("csv", help="points CSV produced by case1/case2")
    fit.add_argument("--window", default=None, help="fit window lo:hi")
    fit.add_argument("--out", default=None, help="output CSV path")
    return parser


def _overrides(args):
    ov = {}
    if args.cache_dir is not None:
        ov["cache_dir"] = args.cache_dir
    if args.out is not None:
        ov["out"] = args.out
    if args.workers is not None:
        ov["workers"] = str(args.workers)
    if args.window is not None:
        ov["window"] = args.window
    return ov


def _cmd_ground(args) -> int:
    cfg = experiments.load_config(args.config, _overrides(args))
    result, hit = experiments.cached_ground_state(
        cfg.L, method=cfg.method, cache_dir=cfg.cache_dir
    )
    path = experiments.cache_path(cfg.cache_dir, cfg.L)
    print(f"L = {cfg.L}")
    print(f"E0 = {result.energy!r}")
    print(f"E0/L = {result.energy / cfg.L!r}")
    print(f"residual = {result.residual:.3e}")
    print(f"cache = {'hit' if hit else 'miss'} ({path})")
    return 0


def _print_fits(fits, path):
    print(f"wrote {len(fits)} fits to {path}")
    for f in fits:
        print(
            f"axis={f.axis} p_m={f.p_m!r} p_y={f.p_y!r} "
            f"c2={f.c2:.4f} b2={f.b2:.4f} rms={f.rms:.2e}"
        )


def _write_outputs(cfg, points, fits):
    experiments.write_points_csv(cfg.out, points)
    fits_path = experiments.fits_csv_path(cfg.out)
    experiments.write_fits_csv(fits_path, fits)
    print(f"wrote {len(points)} points to {cfg.out}")
    _print_fits(fits, fits_path)


def _cmd_case1(args) -> int:
    cfg = experiments.load_config(args.config, _overrides(args))
    points, fits = experiments.run_case1(cfg)
    _write_outputs(cfg, points, fits)
    return 0


def _cmd_case2(args) -> int:
    cfg = experiments.load_config(args.config, _overrides(args))
    points, fits = experiments.run_case2(cfg)
    _write_outputs(cfg, points, fits)
    return 0


def _cmd_fit(args) -> int:
    points = experiments.read_points_csv(args.csv)
    window = experiments.parse_window(args.window) if args.window else None
    fits = experiments.fit_points(points, window=window)
    out = args.out if args.out else experiments.fits_csv_path(args.csv)
    experiments.write_fits_csv(out, fits)
    _print_fits(fits, out)
    return 0


_COMMANDS = {
    "ground": _cmd_ground,
    "case1": _cmd_case1,
    "case2": _cmd_case2,
    "fit": _cmd_fit,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (LanczosError, ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
