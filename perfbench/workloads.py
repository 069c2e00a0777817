"""The benchmark's workloads and the seeded configs they run.

Sizes, windows and grid shapes are fixed, so every seed does the same
work; the seed draws only the interior dephasing and decoherence
strengths.  The endpoints that the correctness gates rely on (p_m = 0 and
1/2, p_y = 0 and 0.45) are always present.
"""

from __future__ import annotations

import os
import random

DEFAULT_SEED = 0

WORKLOADS = {
    "ground_L20_cold": {
        "command": "ground",
        "L": 20,
        "cold": True,
    },
    "case1_Z_L20_warm": {
        "command": "case1",
        "L": 20,
        "axis": "Z",
        "L_A": (6, 14),
        "window": (6, 14),
        "p_m_interior": 10,
        "cold": False,
    },
    # L=9, not the L=10 of acceptance criterion 5: the 4^L supervector is
    # then 4 MB and its working set stays cache-resident, where at L=10 it
    # straddles the last-level cache and its run time drifted by 30%
    # between sets of runs on a shared host.
    "case2_L9_warm": {
        "command": "case2",
        "L": 9,
        "axis": "Z",
        "L_A": (3, 6),
        "p_m_interior": 4,
        "p_y_interior": 4,
        "cold": False,
    },
}


def _interior(rng, count, hi):
    # distinct values strictly inside (0, hi), three decimals
    values = set()
    while len(values) < count:
        values.add(round(rng.uniform(0.01, hi - 0.01), 3))
    return sorted(values)


def make_config(name, seed, cache_dir, out):
    """Config of one run of `name` under `seed`, as {key: value}."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    cfg = {"L": spec["L"], "method": "lanczos", "cache_dir": cache_dir, "workers": 1}
    if spec["command"] == "ground":
        return cfg
    cfg["axis"] = spec["axis"]
    cfg["p_m"] = [0.0] + _interior(rng, spec["p_m_interior"], 0.5) + [0.5]
    if "p_y_interior" in spec:
        cfg["p_y"] = [0.0] + _interior(rng, spec["p_y_interior"], 0.45) + [0.45]
    cfg["L_A"] = spec["L_A"]
    if "window" in spec:
        cfg["window"] = spec["window"]
    cfg["out"] = out
    return cfg


def _render(value):
    if isinstance(value, tuple):
        return f"{value[0]}:{value[1]}"
    if isinstance(value, list):
        return ", ".join(repr(v) for v in value)
    return str(value)


def write_config(name, cfg, path):
    """Write `cfg` as a renyimi config file; return the cli.main argv."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in cfg.items():
            fh.write(f"{key} = {_render(value)}\n")
    return [WORKLOADS[name]["command"], "--config", os.fspath(path)]
