"""Command-line driver.

    renyimi ground --config exp.cfg [--cache-dir DIR]
    renyimi case1  --config exp.cfg [--cache-dir DIR] [--out FILE] [--window lo:hi] [--workers N]
    renyimi case2  --config exp.cfg [--cache-dir DIR] [--out FILE] [--window lo:hi] [--workers N]
    renyimi fit    points.csv [--window lo:hi] [--out FILE]

Flags override the config's keys.  case1 and case2 share one command: it
runs `experiments.run_case1` or `run_case2` and writes the points CSV and
the fits CSV beside it.

Exit codes: 0 success, 2 configuration error (also an L above the sector
solver's cap, before any solve), 3 numeric failure.
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

    ground = argparse.ArgumentParser(add_help=False)
    ground.add_argument("--config", required=True, help="key = value config file")
    ground.add_argument("--cache-dir", default=None, help="ground-state cache directory")
    case = argparse.ArgumentParser(add_help=False, parents=[ground])
    case.add_argument("--out", default=None, help="output CSV path")
    case.add_argument("--workers", type=int, default=None, help="worker thread count")
    case.add_argument("--window", default=None, help="fit window lo:hi")

    sub.add_parser("ground", parents=[ground], help="compute and cache the ground state")
    sub.add_parser("case1", parents=[case], help="pure-state (L_A, p_m) sweep and fits")
    sub.add_parser("case2", parents=[case], help="Y-decohered (p_m, p_y) sweep and fits")
    fit = sub.add_parser("fit", help="fit an existing points CSV")
    fit.add_argument("csv", help="points CSV produced by case1/case2")
    fit.add_argument("--window", default=None, help="fit window lo:hi")
    fit.add_argument("--out", default=None, help="output CSV path")
    return parser


def _overrides(args):
    # the flags a command has and was given; build_config drops the None ones
    return {key: getattr(args, key, None) for key in ("cache_dir", "out", "workers", "window")}


def _cmd_ground(args) -> int:
    cfg = experiments.load_config(args.config, _overrides(args))
    result, hit = experiments.cached_ground_state(cfg.L, cache_dir=cfg.cache_dir)
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


def _cmd_case(args) -> int:
    cfg = experiments.load_config(args.config, _overrides(args))
    # looked up at each call, so a traced or patched runner is the one that runs
    run = experiments.run_case1 if args.command == "case1" else experiments.run_case2
    points, fits = run(cfg)
    experiments.write_points_csv(cfg.out, points)
    fits_path = experiments.fits_csv_path(cfg.out)
    experiments.write_fits_csv(fits_path, fits)
    print(f"wrote {len(points)} points to {cfg.out}")
    _print_fits(fits, fits_path)
    return 0


def _cmd_fit(args) -> int:
    out = args.out if args.out else experiments.fits_csv_path(args.csv)
    experiments.check_output_paths(out)
    points = experiments.read_points_csv(args.csv)
    if not points:
        raise ConfigError(f"{args.csv}: no data rows to fit")
    window = experiments.parse_window(args.window) if args.window else None
    fits = experiments.fit_points(points, window=window)
    experiments.write_fits_csv(out, fits)
    _print_fits(fits, out)
    return 0


_COMMANDS = {
    "ground": _cmd_ground,
    "case1": _cmd_case,
    "case2": _cmd_case,
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
