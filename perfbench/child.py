"""One run process of the benchmark: write the seeded config, call renyimi.cli.main.

    python3 perfbench/child.py '<job json>'

The job names the checkout root, workload, seed, mode and result file,
and carries `t_spawn`, the CLOCK_MONOTONIC reading the parent took just
before starting this process.  Modes:

  probe   stop where `run` would call cli.main; report setup time only
  run     call cli.main once and report wall, CPU and peak RSS (VmHWM)
  trace   as run, with spans around renyimi's public functions

The result file gets one JSON object.  cli.main's stdout is captured into
it, so the parent can read what the command printed.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main():
    job = json.loads(sys.argv[1])
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import renyimi
    from renyimi import cli

    if not os.path.abspath(renyimi.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"renyimi imported from {renyimi.__file__}, not from {src}")
    import tracing
    import workloads

    cfg = workloads.make_config(job["workload"], job["seed"], job["cache_dir"], job["out"])
    argv = workloads.write_config(job["workload"], cfg, job["config"])
    tracer = None
    if job["mode"] == "trace":
        tracer = tracing.Tracer()
        tracer.install(renyimi)
    result = {"setup_s": time.monotonic() - job["t_spawn"]}
    if job["mode"] != "probe":
        stdout = io.StringIO()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call_root(cli.main, argv)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            rc=rc,
            wall_s=wall,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=tracing.peak_rss_kb() / 1024.0,
            stdout=stdout.getvalue(),
        )
        if tracer is not None:
            result["spans"] = tracer.spans
            result["untraced"] = tracer.missing
            result["span_cost_s"] = tracing.span_cost_s()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
