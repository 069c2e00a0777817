"""Benchmark of the renyimi command line: three batch workloads, one run at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Closed loop with a single client: each run of `renyimi.cli.main` happens
in a fresh process (perfbench/child.py) with workers = 1 and the BLAS and
OpenMP thread pools pinned to BLAS_THREADS.  Runs repeat until at least
`--seconds` of run time has been measured: one run of the two L=20
workloads, several of case2_L9_warm.  Every run is checked by
seed-independent correctness gates, untimed.

--trace 0 reports the end-to-end metrics (medians over the runs):
  wall_s       cli.main call to return, outputs written
  cpu_s        user + sys CPU of the run process inside cli.main
  peak_rss_mb  peak resident set of the run process (VmHWM; see tracing.peak_rss_kb)
  setup_s      process start to the first call into cli.main (interpreter,
               imports, seeded config), median over SETUP_PROBES extra
               processes that stop there and the runs themselves
fail_frac (failed / attempted processes) is printed, not reported as a
metric, because it is 0 when nothing fails.

--trace 1 makes one untraced run on the default seed and one traced run
on the given seed (same sizes, so the same work), and reports the
per-layer metrics of perfbench/tracing.py plus experiments.csv_match_ref
(1 when the default-seed outputs are byte-identical to the fixed hashes
in perfbench/reference.json, taken when the benchmark was defined).
The traced run's spans are written to .bench_build/perfbench/ at the end.

The metrics printed, and their units, are the ones BENCHMARK.json lists.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Working files go to .bench_build/perfbench/ in the checkout.
"""

import os

BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:  # before numpy loads in this process and the runs
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_config  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 10
RUN_BUDGET_S = 170.0  # every run of one workload ends within this, after set-up
TOL = 1e-9  # gate tolerance on entropies in nats
C2_BAND = (0.85, 1.15)  # acceptance criterion 1 at p_m = 1/2


class BenchError(Exception):
    """The checkout holds no renyimi sources to benchmark."""


def _import_renyimi():
    src = ROOT / "src"
    if not (src / "renyimi" / "__init__.py").is_file():
        raise BenchError(f"no renyimi sources under {src}")
    sys.path.insert(0, str(src))
    import renyimi
    import renyimi.experiments  # noqa: F401  (loads every layer module)

    return renyimi


def _read_fits(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh if line.strip() and line[0] != "#"]
    head = rows[0]
    return [dict(zip(head, row)) for row in rows[1:]]


class Gate:
    """Seed-independent correctness checks of one workload's outputs."""

    def __init__(self, renyimi, name, warm_cache):
        self.r = renyimi
        spec = WORKLOADS[name]
        self.command = spec["command"]
        self.L = spec["L"]
        if spec["cold"]:
            return
        # fills the warm cache on first use in a checkout; untimed
        ground, _ = renyimi.experiments.cached_ground_state(self.L, cache_dir=str(warm_cache))
        self.state = ground.state
        lo, hi = spec["L_A"]
        self.l_a = list(range(lo, hi + 1))
        if self.command == "case1":
            parts = {la: renyimi.Bipartition(self.L, la) for la in self.l_a}
            self.ee = {la: renyimi.renyi2_ee(self.state, p) for la, p in parts.items()}
            self.smi = {la: renyimi.r2smi(self.state, p, "Z") for la, p in parts.items()}
        else:
            self.plans = renyimi.build_mi_plans(self.state, self.l_a, "Z")

    def check(self, cfg):
        """Problems found in the outputs of one run of `cfg`; empty when correct."""
        if self.command == "ground":
            return self._check_ground(cfg)
        points = self.r.experiments.read_points_csv(cfg["out"])
        p_y = cfg.get("p_y", [0.0])
        expected = {(la, pm, py) for la in self.l_a for pm in cfg["p_m"] for py in p_y}
        if {(p.L_A, p.p_m, p.p_y) for p in points} != expected or len(points) != len(expected):
            return [f"points CSV holds {len(points)} rows, not the {len(expected)} configured"]
        if self.command == "case1":
            return self._check_case1(points, cfg)
        return self._check_case2(points)

    def _check_ground(self, cfg):
        tfim = self.r.tfim
        res = tfim.load_ground_state(tfim.cache_path(cfg["cache_dir"], self.L))
        exact = -2.0 / math.sin(math.pi / (2 * self.L))
        problems = []
        if not abs(res.energy - exact) <= TOL:
            problems.append(f"E0 {res.energy!r} differs from {exact!r} by more than {TOL}")
        if not res.residual <= 1e-8:
            problems.append(f"residual {res.residual:.3e} above 1e-8")
        return problems

    def _check_case1(self, points, cfg):
        problems = []
        by_la = {}
        for p in points:
            by_la.setdefault(p.L_A, []).append(p)
            if p.p_m == 0.0:
                ee = self.ee[p.L_A]
                if max(abs(p.S_A - ee), abs(p.S_B - ee), abs(p.S_AB)) > TOL:
                    problems.append(f"L_A={p.L_A} p_m=0 row differs from renyi2_ee {ee!r}")
            if p.p_m == 0.5 and abs(p.I2 - self.smi[p.L_A]) > TOL:
                problems.append(f"L_A={p.L_A} p_m=1/2 I2 differs from r2smi")
        for la, rows in by_la.items():
            s_a = [p.S_A for p in sorted(rows, key=lambda p: p.p_m)]
            if any(b < a - 1e-12 for a, b in zip(s_a, s_a[1:])):
                problems.append(f"L_A={la}: S_A decreases with p_m")
        fits = _read_fits(self.r.experiments.fits_csv_path(cfg["out"]))
        c2 = [float(f["c2"]) for f in fits if float(f["p_m"]) == 0.5]
        if len(c2) != 1 or not C2_BAND[0] <= c2[0] <= C2_BAND[1]:
            problems.append(f"c2 at p_m=1/2 is {c2}, outside {C2_BAND}")
        return problems

    def _check_case2(self, points):
        problems = []
        for p in points:
            if p.p_y != 0.0:
                continue
            ref = self.plans[p.L_A].point(p.p_m)
            err = max(abs(getattr(p, k) - getattr(ref, k)) for k in ("S_A", "S_B", "S_AB", "I2"))
            if err > TOL:
                problems.append(f"L_A={p.L_A} p_m={p.p_m} p_y=0 row differs from "
                                f"build_mi_plans by {err:.2e}")
        return problems


class Bench:
    """Runs of one workload, in fresh processes, with their gate."""

    def __init__(self, renyimi, name, deadline_s):
        self.r = renyimi
        self.name = name
        self.spec = WORKLOADS[name]
        self.run_dir = WORK / "run"
        self.cache_dir = WORK / ("cold_cache" if self.spec["cold"] else "warm_cache")
        self.gate = Gate(renyimi, name, self.cache_dir)
        self.deadline = time.monotonic() + deadline_s
        self.attempted = 0
        self.failed = 0

    def _outputs(self, cfg):
        if self.spec["command"] == "ground":
            return [Path(self.r.tfim.cache_path(cfg["cache_dir"], cfg["L"]))]
        out = cfg["out"]
        return [Path(out), Path(self.r.experiments.fits_csv_path(out))]

    def output_hashes(self, cfg):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in self._outputs(cfg)}

    def once(self, seed, mode):
        """One process; returns (result dict or None, cfg).  Counts the attempt."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        if self.spec["cold"] and mode != "probe":
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        cfg = make_config(self.name, seed, str(self.cache_dir), str(self.run_dir / "points.csv"))
        job = {
            "root": str(ROOT), "workload": self.name, "seed": seed, "mode": mode,
            "cache_dir": cfg["cache_dir"], "out": cfg.get("out", ""),
            "config": str(self.run_dir / "run.cfg"), "result": str(self.run_dir / "result.json"),
        }
        self.attempted += 1
        job["t_spawn"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                capture_output=True, text=True, cwd=str(ROOT),
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} run killed at the time budget"), cfg
        if proc.returncode != 0:
            return self._fail(f"{mode} run exited {proc.returncode}: {proc.stderr[-2000:]}"), cfg
        with open(job["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        if mode == "probe":
            return result, cfg
        if result["rc"] != 0:
            return self._fail(f"cli.main returned {result['rc']}: {result['stdout'][-2000:]}"), cfg
        try:
            problems = self.gate.check(cfg)
        except Exception as exc:  # unreadable or missing outputs fail the run
            problems = [f"outputs could not be checked: {exc!r}"]
        if problems:
            return self._fail("correctness gate: " + "; ".join(problems)), cfg
        return result, cfg

    def _fail(self, message):
        self.failed += 1
        print(f"{self.name}: FAILED {message}", file=sys.stderr)
        return None

    def measure(self, seed, seconds):
        """End-to-end metrics: medians over the runs of `seconds` of measurement."""
        setups = []
        for _ in range(SETUP_PROBES):
            result, _ = self.once(seed, "probe")
            if result:
                setups.append(result["setup_s"])
        runs = []
        start = time.monotonic()
        for n in itertools.count():
            if n and time.monotonic() - start >= seconds:
                break
            result, _ = self.once(seed, "run")
            if result:
                runs.append(result)
                setups.append(result["setup_s"])
                print(f"{self.name}: run {len(runs)} wall_s {result['wall_s']:.4f} "
                      f"cpu_s {result['cpu_s']:.4f} setup_s {result['setup_s']:.4f}")
            if time.monotonic() >= self.deadline:
                break
        if not runs:
            return {}
        metrics = {k: statistics.median(r[k] for r in runs) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        return metrics

    def trace(self, seed):
        """Per-layer metrics from one traced run; CSV bytes from one untraced run."""
        base, base_cfg = self.once(DEFAULT_SEED, "run")
        if not base:
            return {}
        reference = json.loads(REFERENCE.read_text()).get(self.name)
        match_ref = reference == self.output_hashes(base_cfg)
        traced, _ = self.once(seed, "trace")
        if not traced:
            return {}
        metrics = tracing.summarize(traced["spans"], traced["span_cost_s"])
        metrics["experiments.csv_match_ref"] = float(match_ref)
        WORK.mkdir(parents=True, exist_ok=True)
        spans_path = WORK / f"spans_{self.name}_seed{seed}.json"
        spans_path.write_text(json.dumps({"workload": self.name, "seed": seed,
                                          "spans": traced["spans"]}))
        if traced["untraced"]:
            print(f"{self.name}: not traced (missing): {', '.join(traced['untraced'])}")
        return metrics


def environment():
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         model)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def _declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def run_one(renyimi, name, seed, seconds, trace):
    t0 = time.monotonic()
    bench = Bench(renyimi, name, RUN_BUDGET_S)
    print(f"{name}: seed {seed}, gate set-up {time.monotonic() - t0:.1f} s (untimed)")
    if trace:
        values = bench.trace(seed)
    else:
        values = bench.measure(seed, seconds)
    declared = _declared_metrics(trace)
    metrics = {}
    for metric, unit in declared:
        if metric in values:
            metrics[metric] = {"value": values[metric], "unit": unit}
            print(f"{name}: {metric} = {values[metric]:.6g} {unit}")
    print(f"{name}: fail_frac = {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} failed / {bench.attempted} attempted processes)")
    correct = bench.failed == 0 and len(metrics) == len(declared)
    return {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        renyimi = _import_renyimi()
        _declared_metrics(0)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    for name in names:
        reports[name] = run_one(renyimi, name, args.seed, args.seconds, args.trace)
        if len(names) > 1:
            print(json.dumps(reports[name]))
    if len(names) == 1:
        summary = reports[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{n}/{k}": v for n, r in reports.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
