"""The benchmark's tracer (perfbench/tracing.py) still finds the plans it times.

The tracer patches renyimi's modules for the whole process, so it runs in a
subprocess: case1 and case2 at L=8 under `Tracer.install`, reporting the
span names, the run span above each one, and the targets it did not find.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json, sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import renyimi
    from renyimi import cli
    import tracing

    tracer = tracing.Tracer()
    tracer.install(renyimi)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [tracer.call_root(cli.main, [cmd, "--config", path])
                 for cmd, path in zip(("case1", "case2"), sys.argv[3:5])]

    def run_of(i):
        while i >= 0 and not tracer.spans[i][0].startswith("experiments.run_case"):
            i = tracer.spans[i][1]
        return tracer.spans[i][0] if i >= 0 else None

    print(json.dumps({
        "codes": codes,
        "spans": [[s[0], run_of(s[1])] for s in tracer.spans],
        "missing": tracer.missing,
    }))
    """
)


def test_tracer_sees_the_window_plans_of_both_cases(tmp_path):
    configs = []
    for case, extra in (("case1", ""), ("case2", "p_y = 0.0, 0.2\n")):
        path = tmp_path / f"{case}.cfg"
        path.write_text(
            f"L = 8\naxis = Z\np_m = 0.0, 0.5\n{extra}L_A = 2:6\nwindow = 2:6\n"
            f"out = {tmp_path / case}.csv\ncache_dir = {tmp_path / 'cache'}\n"
        )
        configs.append(str(path))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"), *configs],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0]
    names = [name for name, _ in report["spans"]]
    assert "entropy.plan.dense_gram" in names
    assert {run for name, run in report["spans"] if name == "entropy.build_mi_plans"} == {
        "experiments.run_case1",
        "experiments.run_case2",
    }
    # experiments never calls the doubled-space engine, and tfim has no
    # full-space Hamiltonian; every other target is found
    assert sorted(report["missing"]) == [
        "experiments.apply_lifted_channel",
        "experiments.generalized_entropy_supervector",
        "experiments.pure_supervector",
        "tfim.apply_hamiltonian",
    ]
