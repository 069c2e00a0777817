"""Spans around renyimi's public functions, recorded from outside the package.

Each traced function is replaced where its caller looks it up (for
example `renyimi.experiments.ground_state`, which `cached_ground_state`
calls), so the package itself is unchanged.  A span is
[name, parent, start, end, peak_rss_start_kb, peak_rss_end_kb, work], kept in
memory until the run ends.  `summarize` turns the spans into the
per-layer metrics: time, self time, calls, peak-RSS growth and computed
work counts.  `span_cost_s` measures what one span adds to a call, so the
tracing overhead of a run is its span count times that cost.  The layer
of a span is the part of its name before the first dot, named after the
renyimi module that defines the function.
"""

from __future__ import annotations

import functools
import os
import resource
import statistics
import time
from collections import defaultdict

ROOT = "cli.main"

# (module the caller looks the name up in, attribute, span name, work)
# where work(args, result) is the span's computed work count.
TARGETS = (
    ("experiments", "cached_ground_state", "experiments.cached_ground_state", None),
    ("experiments", "ground_state", "tfim.ground_state", None),
    ("tfim", "apply_hamiltonian", "tfim.apply_hamiltonian", lambda a, r: 8 * len(a[1])),
    ("experiments", "save_ground_state", "tfim.save_ground_state",
     lambda a, r: os.path.getsize(a[0])),
    ("experiments", "load_ground_state", "tfim.load_ground_state", None),
    ("experiments", "run_case1", "experiments.run_case1", None),
    ("experiments", "run_case2", "experiments.run_case2", None),
    ("experiments", "build_mi_plans", "entropy.build_mi_plans", None),
    ("entropy", "rotate_to_basis", "spin.rotate_to_basis", None),
    ("entropy", "window_coefficient_matrix", "spin.window_coefficient_matrix", None),
    ("experiments", "pure_supervector", "doubled.pure_supervector", None),
    ("experiments", "generalized_entropy_supervector",
     "doubled.generalized_entropy_supervector", None),
    ("experiments", "apply_lifted_channel", "doubled.apply_lifted_channel",
     lambda a, r: 16 * len(a[0])),
    ("doubled", "apply_lifted_channel", "doubled.apply_lifted_channel",
     lambda a, r: 16 * len(a[0])),
    ("doubled", "depolarize_subsystem", "doubled.depolarize_subsystem",
     lambda a, r: 16 * len(a[0])),
    ("experiments", "fit_cft", "scaling.fit_cft", None),
    ("experiments", "write_points_csv", "experiments.write_points_csv", None),
    ("experiments", "write_fits_csv", "experiments.write_fits_csv", None),
)

PLAN_ALGORITHMS = ("dense_gram", "low_rank", "rank1_full")


def peak_rss_kb():
    """Peak resident set of this process, KiB.

    Read from VmHWM, which exec resets: on Linux ru_maxrss also keeps the
    resident set the parent had when it started this process.
    """
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, peak_rss_kb(), None, 0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[5] = peak_rss_kb()
        self._stack.pop()

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if work is not None:
                self.spans[idx][6] = work(args, result)
            return result

        return traced

    def install(self, package):
        """Replace every target in `package` (the imported renyimi) by a traced wrapper."""
        for module_name, attr, name, work in TARGETS:
            module = getattr(package, module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, getattr(module, attr), work))
        entropy = package.entropy
        if hasattr(entropy, "GsePlan"):
            entropy.GsePlan = self._traced_plan_class(entropy.GsePlan)
        else:
            self.missing.append("entropy.GsePlan")

    def _traced_plan_class(self, base):
        tracer = self

        class TracedGsePlan(base):
            # a plan's build is bucketed by the algorithm it chose; its
            # work count is the window dimension 2^length
            def __init__(self, *args, **kwargs):
                idx = tracer.open("entropy.plan")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.close(idx)
                tracer.spans[idx][0] = f"entropy.plan.{self.algorithm}"
                tracer.spans[idx][6] = 2 ** self.window[1]

            entropy = tracer.wrap("entropy.GsePlan.entropy", base.entropy)

        TracedGsePlan.__name__ = base.__name__
        TracedGsePlan.__qualname__ = base.__qualname__
        return TracedGsePlan

    def call_root(self, fn, *args):
        idx = self.open(ROOT)
        try:
            return fn(*args)
        finally:
            self.close(idx)


def span_cost_s(calls=2000, repeats=5):
    """Time one span adds to a call (wrapper, open and close), median of `repeats`, s."""

    def noop():
        return None

    traced = Tracer().wrap("calibrate", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(costs)


def _layer(name):
    return name.split(".", 1)[0]


def summarize(spans, span_cost):
    """Per-layer metrics of one traced run, from its spans and `span_cost_s()`."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    rss_kb = defaultdict(float)
    layer_s = defaultdict(float)
    child_s = [0.0] * len(spans)
    for name, parent, t0, t1, *_ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    root_s = 0.0
    for i, (name, parent, t0, t1, r0, r1, w) in enumerate(spans):
        d = t1 - t0
        total[name] += d
        own[name] += d - child_s[i]
        calls[name] += 1
        work[name] += w
        if name == ROOT:
            root_s += d
            continue
        layer = _layer(name)
        if parent < 0 or _layer(spans[parent][0]) != layer:
            # outermost span of its layer: its time and peak growth are the layer's
            layer_s[layer] += d
            rss_kb[layer] += r1 - r0
            rss_kb[name] += r1 - r0
    if root_s <= 0.0:
        raise ValueError(f"no {ROOT} span recorded")
    matvecs = calls["tfim.apply_hamiltonian"]
    m = {
        "tfim.ground_state.s": total["tfim.ground_state"],
        "tfim.ground_state.self_s": own["tfim.ground_state"],
        "tfim.ground_state.rss_mb": rss_kb["tfim.ground_state"] / 1024.0,
        "tfim.apply_hamiltonian.calls": matvecs,
        "tfim.apply_hamiltonian.s_per_call": (
            total["tfim.apply_hamiltonian"] / matvecs if matvecs else 0.0
        ),
        "tfim.matvec_bytes_computed": work["tfim.apply_hamiltonian"],
        "tfim.save_ground_state.s": total["tfim.save_ground_state"],
        "tfim.cache.bytes_written": work["tfim.save_ground_state"],
        "tfim.load_ground_state.s": total["tfim.load_ground_state"],
        "tfim.wall_frac": layer_s["tfim"] / root_s,
        "spin.rotate_to_basis.s": total["spin.rotate_to_basis"],
        "spin.rotate_to_basis.calls": calls["spin.rotate_to_basis"],
        "spin.window_coefficient_matrix.calls": calls["spin.window_coefficient_matrix"],
        "entropy.GsePlan.entropy.s": total["entropy.GsePlan.entropy"],
        "entropy.GsePlan.entropy.calls": calls["entropy.GsePlan.entropy"],
        "entropy.build_mi_plans.s": total["entropy.build_mi_plans"],
        "entropy.wall_frac": layer_s["entropy"] / root_s,
        "doubled.generalized_entropy_supervector.s": total[
            "doubled.generalized_entropy_supervector"
        ],
        "doubled.generalized_entropy_supervector.calls": calls[
            "doubled.generalized_entropy_supervector"
        ],
        "doubled.apply_lifted_channel.s": total["doubled.apply_lifted_channel"],
        "doubled.apply_lifted_channel.calls": calls["doubled.apply_lifted_channel"],
        "doubled.depolarize_subsystem.s": total["doubled.depolarize_subsystem"],
        "doubled.depolarize_subsystem.calls": calls["doubled.depolarize_subsystem"],
        "doubled.pure_supervector.s": total["doubled.pure_supervector"],
        "doubled.bytes_computed": (
            work["doubled.apply_lifted_channel"] + work["doubled.depolarize_subsystem"]
        ),
        "doubled.rss_mb": rss_kb["doubled"] / 1024.0,
        "doubled.wall_frac": layer_s["doubled"] / root_s,
        "scaling.fit_cft.s": total["scaling.fit_cft"],
        "scaling.fit_cft.calls": calls["scaling.fit_cft"],
        "experiments.write_points_csv.s": total["experiments.write_points_csv"],
        "experiments.write_fits_csv.s": total["experiments.write_fits_csv"],
        "experiments.cached_ground_state.s": total["experiments.cached_ground_state"],
        "experiments.run_case1.self_s": own["experiments.run_case1"],
        "experiments.run_case2.self_s": own["experiments.run_case2"],
        "cli.self_s": own[ROOT],
        "trace.uncovered_frac": own[ROOT] / root_s,
        "trace.overhead_s": len(spans) * span_cost,
    }
    for alg in PLAN_ALGORITHMS:
        name = f"entropy.plan.{alg}"
        m[f"{name}.s"] = total[name]
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.dim_computed"] = work[name]
    return m
