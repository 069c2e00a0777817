import errno
import os
import struct
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from renyimi import Bipartition, cli, entropy, experiments, fit_cft, tfim
from renyimi.oracle import (
    ChannelSpec,
    apply_lifted_channel,
    free_fermion_renyi2,
    generalized_entropy_supervector,
    lift_channel,
    pure_supervector,
)
from renyimi.experiments import (
    CASE2_MAX_SITES,
    ConfigError,
    ExperimentConfig,
    build_config,
    cached_ground_state,
    fit_points,
    load_config,
    parse_config_text,
    read_points_csv,
    run_case1,
    run_case2,
    write_points_csv,
)
from renyimi.spin import _sector_basis

CONFIG_TEXT = """
# small pure-state sweep
L = 8
method = lanczos
axis = Z
p_m = 0.0, 0.25, 0.5
L_A = 2:6
window = 2:6
workers = 2
"""


def small_cfg(tmp_path, **kw):
    base = dict(
        L=8,
        axis="Z",
        p_m=(0.0, 0.25, 0.5),
        L_A=(2, 3, 4, 5, 6),
        window=(2, 6),
        out=str(tmp_path / "points.csv"),
        cache_dir=str(tmp_path / "cache"),
        workers=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_parse_config_text():
    raw = parse_config_text(CONFIG_TEXT)
    cfg = build_config(raw, {"out": "x.csv", "cache_dir": "c"})
    assert cfg.L == 8
    assert cfg.p_m == (0.0, 0.25, 0.5)
    assert cfg.L_A == (2, 3, 4, 5, 6)
    assert cfg.window == (2, 6)
    assert cfg.workers == 2


def test_config_naming_every_field_and_method_parses():
    raw = parse_config_text(
        "L = 10\nmethod = lanczos\naxis = Y\np_m = 0.0, 0.5\np_y = 0.1\nL_A = 3, 5, 7\n"
        "window = 3:7\nout = pts.csv\ncache_dir = gs\nworkers = 3\n"
    )
    assert set(raw) == {f.name for f in fields(ExperimentConfig)} | {"method"}
    assert build_config(raw) == ExperimentConfig(
        L=10,
        axis="Y",
        p_m=(0.0, 0.5),
        p_y=(0.1,),
        L_A=(3, 5, 7),
        window=(3, 7),
        out="pts.csv",
        cache_dir="gs",
        workers=3,
    )


@pytest.mark.parametrize(
    "flag, value, key, expected",
    [
        ("--cache-dir", "flag_cache", "cache_dir", "flag_cache"),
        ("--out", "flag.csv", "out", "flag.csv"),
        ("--workers", "4", "workers", 4),
        ("--window", "4:6", "window", (4, 6)),
    ],
)
def test_cli_flags_override_config_keys(tmp_path, flag, value, key, expected):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "L = 10\nL_A = 3:7\nwindow = 3:7\nout = file.csv\ncache_dir = file_cache\nworkers = 2\n"
    )
    args = cli._build_parser().parse_args(["case1", "--config", str(cfg_file), flag, value])
    cfg = load_config(args.config, cli._overrides(args))
    assert cfg == replace(load_config(cfg_file), **{key: expected})


def test_reversed_L_A_range_names_the_key():
    with pytest.raises(ConfigError, match="L_A: empty range '6:2'"):
        build_config(parse_config_text("L = 8\nL_A = 6:2\n"))


def test_huge_L_A_range_is_rejected_before_it_is_built():
    # a range past any chain length fails on its bounds, not after a tuple of
    # two million ints (about 70 MB) has been built
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="L_A: range '1:2000000' outside"):
            build_config(parse_config_text("L = 8\nL_A = 1:2000000\n"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 2: unknown key 'bond_dim'"):
        parse_config_text("L = 8\nbond_dim = 64\n")


def test_build_config_rejects_unknown_key():
    # a misspelt key in a dict config fails as it does in a config file
    with pytest.raises(ConfigError, match="unknown key 'l_a'"):
        build_config({"L": "8", "l_a": "2:4"})
    with pytest.raises(ConfigError, match="unknown key 'bond_dim'"):
        build_config({"L": "8"}, {"bond_dim": "64"})


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="line 2: duplicate key 'L'"):
        parse_config_text("L = 8\nL = 10\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'method'"):
        parse_config_text("L = 8\nmethod = lanczos\nmethod = lanczos\n")


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")


def test_build_config_validation():
    with pytest.raises(ConfigError, match="missing required key L"):
        build_config({})
    with pytest.raises(ConfigError, match="outside"):
        build_config({"L": "8", "p_m": "0.7"})
    with pytest.raises(ConfigError, match="outside"):
        build_config({"L": "8", "L_A": "9"})
    with pytest.raises(ConfigError, match="method"):
        build_config({"L": "8", "method": "dmrg"})
    with pytest.raises(ConfigError, match="workers"):
        build_config({"L": "8", "workers": "0"})
    with pytest.raises(ConfigError, match="window"):
        build_config({"L": "8", "window": "0:9"})
    with pytest.raises(ConfigError, match="L must be >= 3"):
        build_config({"L": "2"})


def test_config_accepts_only_the_sector_solver(tmp_path, capsys):
    assert build_config({"L": "8", "method": "lanczos"}) == build_config({"L": "8"})
    with pytest.raises(ConfigError, match="oracle.dense_ground_state"):
        build_config({"L": "8", "method": "dense"})
    with pytest.raises(ConfigError, match="L must be >= 3"):
        build_config({"L": "2"})
    cfg_file = tmp_path / "dense.cfg"
    cfg_file.write_text(f"L = 6\nmethod = dense\ncache_dir = {tmp_path / 'cache'}\n")
    assert cli.main(["ground", "--config", str(cfg_file)]) == 2
    assert "oracle.dense_ground_state" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "cache")


def test_case_preconditions(tmp_path):
    with pytest.raises(ConfigError, match="pure-state"):
        run_case1(small_cfg(tmp_path, p_y=(0.1,)))
    with pytest.raises(ConfigError, match="p_y grid"):
        run_case2(small_cfg(tmp_path))
    with pytest.raises(ConfigError, match="axis = Z"):
        run_case2(small_cfg(tmp_path, axis="X", p_y=(0.1,)))
    with pytest.raises(ConfigError, match="capped"):
        run_case2(
            small_cfg(
                tmp_path, L=CASE2_MAX_SITES + 1, L_A=(4, 5, 6), window=(4, 6), p_y=(0.1,)
            )
        )
    with pytest.raises(ConfigError, match="distinct scaling"):
        run_case1(small_cfg(tmp_path, L_A=(3, 5), window=(3, 5)))


def test_cached_ground_state_energy_matches_dense(tmp_path):
    from renyimi.oracle import dense_ground_state

    cached, _ = cached_ground_state(8, cache_dir=str(tmp_path))
    energy, _ = dense_ground_state(8)
    assert abs(cached.energy - energy) < 1e-8


def test_cached_ground_state_roundtrip(tmp_path):
    first, hit_a = cached_ground_state(6, cache_dir=str(tmp_path))
    second, hit_b = cached_ground_state(6, cache_dir=str(tmp_path))
    assert (hit_a, hit_b) == (False, True)
    assert np.array_equal(first.state, second.state)


def test_cached_ground_state_recovers_from_corruption(tmp_path):
    cached_ground_state(5, cache_dir=str(tmp_path))
    path = experiments.cache_path(str(tmp_path), 5)
    with open(path, "wb") as fh:
        fh.write(b"garbage")
    result, hit = cached_ground_state(5, cache_dir=str(tmp_path))
    assert not hit
    assert result.residual <= 1e-8


def test_cached_ground_state_recovers_from_truncated_energy(tmp_path):
    cached_ground_state(6, cache_dir=str(tmp_path))
    path = experiments.cache_path(str(tmp_path), 6)
    with open(path, "r+b") as fh:
        fh.truncate(15)  # ends inside the 8-byte energy field
    result, hit = cached_ground_state(6, cache_dir=str(tmp_path))
    assert not hit
    assert result.residual <= 1e-8
    assert os.path.getsize(path) == 20 + 8 * len(result.amp)


def test_cached_ground_state_rewrites_version_2_record(tmp_path):
    # version 2 stored complex128 amplitudes; such a record is recomputed and overwritten
    fresh, _ = cached_ground_state(6, cache_dir=str(tmp_path))
    path = experiments.cache_path(str(tmp_path), 6)
    head = struct.pack("<4sIId8s", b"TFGS", 2, 6, fresh.energy, b"dense")
    with open(path, "wb") as fh:
        fh.write(head + np.ascontiguousarray(fresh.state, dtype="<c16").tobytes())
    result, hit = cached_ground_state(6, cache_dir=str(tmp_path))
    assert not hit
    assert result.state.dtype == np.float64
    raw = Path(path).read_bytes()
    assert struct.unpack("<I", raw[4:8]) == (6,)
    assert len(raw) == 20 + 8 * len(result.amp)
    assert cached_ground_state(6, cache_dir=str(tmp_path))[1]


def test_cached_ground_state_rewrites_version_3_record(tmp_path):
    # version 3 held the solver name in 8 header bytes, version 4 the 2^L
    # amplitudes after a 20-byte header; either record is recomputed
    fresh, _ = cached_ground_state(6, cache_dir=str(tmp_path))
    path = experiments.cache_path(str(tmp_path), 6)
    amplitudes = np.ascontiguousarray(fresh.state, dtype="<f8").tobytes()
    for head in (
        struct.pack("<4sIId8s", b"TFGS", 3, 6, fresh.energy, b"lanczos"),
        struct.pack("<4sIId", b"TFGS", 4, 6, fresh.energy),
    ):
        Path(path).write_bytes(head + amplitudes)
        result, hit = cached_ground_state(6, cache_dir=str(tmp_path))
        assert not hit
        assert np.array_equal(result.state, fresh.state)
        raw = Path(path).read_bytes()
        assert struct.unpack("<4sIId", raw[:20]) == (b"TFGS", 6, 6, fresh.energy)
        assert len(raw) == 20 + 8 * len(fresh.amp)
        assert cached_ground_state(6, cache_dir=str(tmp_path))[1]


def test_cached_ground_state_rewrites_version_5_record(tmp_path):
    # version 5 held one amplitude per orbit of the shift-and-flip sector, 20 + 8 * 180
    # bytes at L=12, whose representatives are the labels equal to their
    # `_canonical` form; the record is a miss and is overwritten with version 6
    from renyimi.spin import _canonical

    L = 12
    fresh, _ = cached_ground_state(L, cache_dir=str(tmp_path))
    path = experiments.cache_path(str(tmp_path), L)
    labels = np.arange(2**L)
    reps = labels[_canonical(labels, L) == labels]
    assert len(reps) == 180
    head = struct.pack("<4sIId", b"TFGS", 5, L, fresh.energy)
    Path(path).write_bytes(head + np.ascontiguousarray(fresh.state[reps], dtype="<f8").tobytes())
    result, hit = cached_ground_state(L, cache_dir=str(tmp_path))
    assert not hit
    assert np.array_equal(result.state, fresh.state)
    raw = Path(path).read_bytes()
    assert struct.unpack("<4sIId", raw[:20]) == (b"TFGS", 6, L, fresh.energy)
    assert len(raw) == 20 + 8 * len(fresh.amp) < 20 + 8 * len(reps)
    assert cached_ground_state(L, cache_dir=str(tmp_path))[1]


def test_run_case1_outputs(tmp_path):
    cfg = small_cfg(tmp_path)
    points, fits = run_case1(cfg)
    assert len(points) == len(cfg.L_A) * len(cfg.p_m)
    assert len(fits) == len(cfg.p_m)
    # points carry the exact mutual-information identity
    for p in points:
        assert p.I2 == p.S_A + p.S_B - p.S_AB
        assert p.p_y == 0.0


def test_case1_csv_format_and_determinism(tmp_path):
    cfg = small_cfg(tmp_path)
    points, fits = run_case1(cfg)
    write_points_csv(cfg.out, points)
    experiments.write_fits_csv(experiments.fits_csv_path(cfg.out), fits)
    with open(cfg.out) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("#")
    assert "natural log" in lines[0]
    assert lines[1] == "L,L_A,axis,p_m,p_y,S_A,S_B,S_AB,I2"
    assert len(lines) == 2 + len(points)

    first = Path(cfg.out).read_bytes()
    points2, _ = run_case1(cfg)
    write_points_csv(cfg.out, points2)
    assert Path(cfg.out).read_bytes() == first

    with open(experiments.fits_csv_path(cfg.out)) as fh:
        fit_lines = fh.read().splitlines()
    assert "ordinary least squares" in fit_lines[0]
    assert fit_lines[1] == "axis,p_m,p_y,c2,b2,rms,window"
    assert fit_lines[2].split(",")[-1] == "2:6"


def _csv_bytes(cfg, points, fits):
    write_points_csv(cfg.out, points)
    experiments.write_fits_csv(experiments.fits_csv_path(cfg.out), fits)
    return [Path(path).read_bytes() for path in (cfg.out, experiments.fits_csv_path(cfg.out))]


def test_worker_count_does_not_change_results(tmp_path):
    outputs = []
    for workers in (1, 3):
        cfg = small_cfg(tmp_path, workers=workers, out=str(tmp_path / f"points_w{workers}.csv"))
        outputs.append(_csv_bytes(cfg, *run_case1(cfg)))
    assert outputs[0] == outputs[1]


def test_case1_unmeasured_column_matches_free_fermions(tmp_path):
    # at p_m = 0 the sweep's entropies are Renyi-2 entanglement entropies, known
    # exactly from the free-fermion solution: an anchor for the window plans at
    # production size that does not use them as their own reference
    cfg = small_cfg(tmp_path, L=20, p_m=(0.0,), L_A=tuple(range(6, 15)), window=(6, 14))
    points, _ = run_case1(cfg)
    exact = free_fermion_renyi2(20)
    assert [p.L_A for p in points] == list(range(6, 15))
    for p in points:
        assert abs(p.S_A - exact[p.L_A]) < 1e-10
        assert abs(p.S_B - exact[20 - p.L_A]) < 1e-10
        assert abs(p.S_AB) < 1e-12


@pytest.mark.parametrize("writer", ["points", "fits"])
def test_failed_csv_write_keeps_old_file(tmp_path, monkeypatch, writer):
    cfg = small_cfg(tmp_path)
    points, fits = run_case1(cfg)
    if writer == "points":
        path, write, rows = cfg.out, write_points_csv, points
    else:
        path, write, rows = experiments.fits_csv_path(cfg.out), experiments.write_fits_csv, fits
    write(path, rows)
    old = Path(path).read_bytes()
    real_open = open

    def open_failing_mid_write(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        real_write = fh.write

        def write_half(text):
            real_write(text[: len(text) // 2])
            fh.flush()
            raise OSError(28, "No space left on device")

        fh.write = write_half
        return fh

    # the CSV writers write through tfim.atomic_write, which opens the file
    monkeypatch.setattr(tfim, "open", open_failing_mid_write, raising=False)
    with pytest.raises(OSError, match="No space"):
        write(path, rows[:1])
    monkeypatch.undo()
    assert Path(path).read_bytes() == old
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


def test_csv_files_get_the_mode_of_a_plain_open(tmp_path):
    cfg = small_cfg(tmp_path)
    _csv_bytes(cfg, *run_case1(cfg))
    plain = tmp_path / "plain.csv"
    plain.write_text("x\n")
    record = tfim.cache_path(cfg.cache_dir, cfg.L)
    for path in (cfg.out, experiments.fits_csv_path(cfg.out), record):
        assert os.stat(path).st_mode & 0o777 == os.stat(plain).st_mode & 0o777


def test_points_csv_roundtrip(tmp_path):
    case1 = small_cfg(tmp_path)
    case2 = small_cfg(tmp_path, L=6, L_A=(2, 3, 4), window=(2, 4), p_y=(0.0, 0.2))
    for cfg, run in ((case1, run_case1), (case2, run_case2)):
        points, fits = run(cfg)
        write_points_csv(cfg.out, points)
        loaded = read_points_csv(cfg.out)
        assert loaded == points  # repr round-trips floats exactly
        assert fit_points(loaded, window=cfg.window) == fits


def test_run_case2_small_grid(tmp_path):
    cfg = small_cfg(
        tmp_path,
        L=6,
        L_A=(2, 3, 4),
        window=(2, 4),
        p_m=(0.0, 0.5),
        p_y=(0.0, 0.2),
    )
    points, fits = run_case2(cfg)
    assert len(points) == 3 * 2 * 2
    assert len(fits) == 4
    # p_y = 0 column reproduces the pure-state sweep
    pure_points, _ = run_case1(
        small_cfg(tmp_path, L=6, L_A=(2, 3, 4), window=(2, 4), p_m=(0.0, 0.5))
    )
    pure = {(p.L_A, p.p_m): p.I2 for p in pure_points}
    for p in points:
        if p.p_y == 0.0:
            assert abs(p.I2 - pure[(p.L_A, p.p_m)]) < 1e-10


def _doubled_case2_rows(state, cfg):
    # the doubled-space sweep that run_case2 replaced, kept as its reference
    L = cfg.L
    all_sites = tuple(range(L))
    sv_pure = pure_supervector(state)
    rows = {}
    for p_y in cfg.p_y:
        sv = apply_lifted_channel(sv_pure, lift_channel(ChannelSpec("Y", p_y, all_sites)))
        for p_m in cfg.p_m:
            s_ab = generalized_entropy_supervector(sv, all_sites, (), "Z", p_m)
            for l_a in cfg.L_A:
                part = Bipartition(L, l_a)
                s_a = generalized_entropy_supervector(sv, part.sites_A, part.sites_B, "Z", p_m)
                s_b = generalized_entropy_supervector(sv, part.sites_B, part.sites_A, "Z", p_m)
                rows[(l_a, p_m, p_y)] = (s_a, s_b, s_ab, s_a + s_b - s_ab)
    return rows


@pytest.mark.parametrize("run", [run_case1, run_case2])
def test_runs_reject_a_ground_state_of_another_length(tmp_path, run):
    ground, _ = cached_ground_state(8, cache_dir=str(tmp_path / "cache"))
    cfg = small_cfg(tmp_path, L=10, window=(), p_y=(0.0, 0.3) if run is run_case2 else ())
    with pytest.raises(ConfigError, match="L=10"):
        run(cfg, ground=ground)


def test_run_case2_matches_doubled_path_L9(tmp_path):
    cfg = small_cfg(
        tmp_path, L=9, L_A=(3, 4, 5, 6), window=(3, 6),
        p_m=(0.0, 0.2, 0.5), p_y=(0.0, 0.3, 0.45),
    )
    ground, _ = cached_ground_state(9, cache_dir=cfg.cache_dir)
    points, _ = run_case2(cfg, ground=ground)
    ref = _doubled_case2_rows(ground.state, cfg)
    assert len(points) == len(ref)
    worst = 0.0
    for p in points:
        expect = ref[(p.L_A, p.p_m, p.p_y)]
        worst = max(worst, max(abs(a - b) for a, b in zip((p.S_A, p.S_B, p.S_AB, p.I2), expect)))
    assert worst <= 1e-12


def test_run_case2_csvs_do_not_depend_on_worker_count(tmp_path):
    outputs = []
    for workers in (1, 2):
        cfg = small_cfg(
            tmp_path, L=8, L_A=(2, 3, 4, 5, 6), p_m=(0.0, 0.3, 0.5), p_y=(0.0, 0.2, 0.45),
            workers=workers, out=str(tmp_path / f"points_w{workers}.csv"),
        )
        outputs.append(_csv_bytes(cfg, *run_case2(cfg)))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("run, plan_class, grid", [
    (run_case1, "GsePlan", dict(p_m=(0.5, 0.0, 0.2, 0.0))),
    (run_case2, "PauliWeightPlan", dict(p_m=(0.5, 0.0), p_y=(0.45, 0.0, 0.2, 0.2))),
])
def test_sweep_evaluates_each_distinct_plan_once_per_strength_tuple(
    tmp_path, monkeypatch, run, plan_class, grid
):
    # every strength tuple of the sweep comes from one grid call per distinct plan
    calls = []
    cls = getattr(entropy, plan_class)
    inner = cls.entropies

    def counted(self, *grids):
        calls.append((id(self), tuple(tuple(g) for g in grids)))
        return inner(self, *grids)

    monkeypatch.setattr(cls, "entropies", counted)
    cfg = small_cfg(tmp_path, L_A=(2, 3, 4, 5, 6), **grid)
    points, _ = run(cfg)
    sorted_grid = tuple(tuple(sorted(set(values))) for values in grid.values())
    assert len(points) == 5 * int(np.prod([len(values) for values in sorted_grid]))
    # the whole chain and the start-0 windows of lengths 2..6, each B window
    # being the A window of L - L_A on the shift-invariant ground state
    assert len({plan for plan, _ in calls}) == len(calls) == 6
    assert all(grids == sorted_grid for _, grids in calls)


@pytest.mark.parametrize("case, axis", [("case1", "Z"), ("case1", "Y"), ("case2", "Z")])
def test_fine_grid_csvs_match_the_one_point_path(tmp_path, case, axis):
    # an 11-value p_m grid (by 10 p_y values in case 2): the grid evaluation,
    # the batched fits and the one-write CSVs give the bytes of MiPlan.point,
    # fit_cft and one repr per cell; case 1 at L=8 runs dense_gram (chained),
    # low_rank and rank1_full, and on Y in complex arithmetic
    p_m = tuple(round(0.05 * i, 2) for i in range(11))
    if case == "case2":
        p_y, plan, run = tuple(round(0.05 * i, 2) for i in range(10)), entropy.PauliWeightPlan, run_case2
    else:
        p_y, plan, run = (), None, run_case1
    cfg = small_cfg(tmp_path, axis=axis, p_m=p_m, p_y=p_y, L_A=tuple(range(1, 8)), window=(2, 6))
    points_csv, fits_csv = _csv_bytes(cfg, *run(cfg))

    state = cached_ground_state(8, cache_dir=cfg.cache_dir)[0].state
    plans = entropy.build_mi_plans(state, range(1, 8), axis, plan=plan)
    point_lines, fit_lines = [], []
    for pm in p_m:
        for strengths in [(pm, py) for py in p_y] or [(pm,)]:
            py = (*strengths, 0.0)[1]
            group = [plans[l_a].point(*strengths) for l_a in range(1, 8)]
            point_lines += [
                f"8,{pt.L_A},{axis},{pm!r},{py!r},{pt.S_A!r},{pt.S_B!r},{pt.S_AB!r},{pt.I2!r}"
                for pt in group
            ]
            res = fit_cft([(8, pt.L_A, pt.I2) for pt in group if 2 <= pt.L_A <= 6])
            fit_lines.append(f"{axis},{pm!r},{py!r},{res.c2!r},{res.b2!r},{res.rms!r},2:6")
    header = "# entropies in nats (natural log)\nL,L_A,axis,p_m,p_y,S_A,S_B,S_AB,I2\n"
    assert points_csv.decode() == header + "".join(line + "\n" for line in point_lines)
    header = "# fit method: ordinary least squares\naxis,p_m,p_y,c2,b2,rms,window\n"
    assert fits_csv.decode() == header + "".join(line + "\n" for line in fit_lines)

    refit = tmp_path / "refit.csv"
    assert cli.main(["fit", cfg.out, "--window", "2:6", "--out", str(refit)]) == 0
    assert refit.read_bytes() == fits_csv


def test_cli_case2_csvs_do_not_depend_on_worker_count_L10(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "L = 10\naxis = Z\np_m = 0.0, 0.2, 0.5\np_y = 0.0, 0.3, 0.45\nL_A = 2:8\n"
        f"cache_dir = {tmp_path / 'cache'}\n"
    )
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"c2_w{workers}.csv"
        argv = ["case2", "--config", str(cfg_file), "--workers", str(workers), "--out", str(out)]
        assert cli.main(argv) == 0
        outputs.append([Path(p).read_bytes() for p in (out, experiments.fits_csv_path(str(out)))])
    assert outputs[0] == outputs[1]


def test_cli_ground_and_case1(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "L = 6\naxis = Z\np_m = 0.0, 0.5\nL_A = 2:4\nwindow = 2:4\n"
        f"out = {tmp_path / 'pts.csv'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    assert cli.main(["ground", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "cache = miss" in out
    assert cli.main(["ground", "--config", str(cfg_file)]) == 0
    assert "cache = hit" in capsys.readouterr().out

    assert cli.main(["case1", "--config", str(cfg_file)]) == 0
    assert os.path.exists(tmp_path / "pts.csv")
    assert os.path.exists(tmp_path / "pts_fits.csv")

    assert cli.main(["fit", str(tmp_path / "pts.csv"), "--window", "2:4",
                     "--out", str(tmp_path / "refit.csv")]) == 0
    assert os.path.exists(tmp_path / "refit.csv")


def test_cli_case2(tmp_path):
    # a cold run, then a warm one: the loader, the expansion and the whole
    # chain's orbit histogram read one orbit table, built once
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "L = 9\naxis = Z\np_m = 0.0, 0.5\np_y = 0.0, 0.2\n"
        f"L_A = 2:4\nwindow = 2:4\nout = {tmp_path / 'c2.csv'}\n"
        f"cache_dir = {tmp_path / 'cache'}\n"
    )
    assert cli.main(["case2", "--config", str(cfg_file)]) == 0
    assert os.path.exists(tmp_path / "c2.csv")
    _sector_basis.cache_clear()
    assert cli.main(["case2", "--config", str(cfg_file)]) == 0
    assert _sector_basis.cache_info().misses == 1


def test_cli_case2_above_cap_exits_2(tmp_path, capsys):
    L = CASE2_MAX_SITES + 1
    assert L == 17
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        f"L = {L}\naxis = Z\np_m = 0.0, 0.5\np_y = 0.0, 0.2\nL_A = 4:{L - 4}\n"
        f"out = {tmp_path / 'c2.csv'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    assert cli.main(["case2", "--config", str(cfg_file)]) == 2
    assert "capped" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "cache")


@pytest.mark.parametrize("command", ["ground", "case1"])
def test_cli_l_above_the_solver_cap_exits_2(tmp_path, capsys, command):
    L = tfim.LANCZOS_MAX_SITES + 1
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        f"L = {L}\naxis = Z\np_m = 0.0, 0.5\nL_A = 6:14\n"
        f"out = {tmp_path / 'pts.csv'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    assert cli.main([command, "--config", str(cfg_file)]) == 2
    assert f"L must be <= {tfim.LANCZOS_MAX_SITES}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "cache")


@pytest.mark.parametrize(
    "flag", [["--workers", "2"], ["--out", "x.csv"], ["--window", "3:30"]],
    ids=["workers", "out", "window"],
)
def test_cli_ground_rejects_case_flags(tmp_path, capsys, flag):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"L = 8\ncache_dir = {tmp_path / 'cache'}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["ground", "--config", str(cfg_file), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "cache")


def test_cli_config_error_exit_code(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("L = 8\np_m = 0.9\n")
    assert cli.main(["ground", "--config", str(cfg_file)]) == 2
    missing = tmp_path / "missing.cfg"
    assert cli.main(["ground", "--config", str(missing)]) == 2


def test_cli_fit_missing_csv_exits_2(tmp_path, capsys):
    assert cli.main(["fit", str(tmp_path / "missing.csv")]) == 2
    assert "cannot read points CSV" in capsys.readouterr().err


def test_cli_fit_non_numeric_field_exits_2(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    points, _ = run_case1(small_cfg(tmp_path))
    write_points_csv(csv, points)
    lines = csv.read_text().splitlines()
    bad = lines[3].replace(lines[3].split(",")[5], "nan-ish")
    csv.write_text("\n".join(lines[:3] + [bad] + lines[4:]) + "\n")
    assert cli.main(["fit", str(csv)]) == 2
    err = capsys.readouterr().err
    assert "non-numeric" in err and bad in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_fit_non_finite_field_exits_2_and_writes_nothing(tmp_path, capsys, value):
    csv = tmp_path / "pts.csv"
    points, _ = run_case1(small_cfg(tmp_path))
    write_points_csv(csv, points)
    lines = csv.read_text().splitlines()
    bad = lines[3].rsplit(",", 1)[0] + "," + value  # the I2 cell
    csv.write_text("\n".join(lines[:3] + [bad] + lines[4:]) + "\n")
    assert cli.main(["fit", str(csv)]) == 2
    err = capsys.readouterr().err
    assert "non-finite field" in err and bad in err
    assert sorted(os.listdir(tmp_path)) == ["cache", "pts.csv"]


@pytest.mark.parametrize(
    "column, value",
    [(1, "0"), (1, "8"), (1, "-1"), (2, "Q"), (2, "z"), (3, "0.7"), (3, "-0.2"), (4, "0.7"), (4, "-0.2")],
)
def test_cli_fit_row_outside_the_config_domain_exits_2_and_writes_nothing(tmp_path, capsys, column, value):
    # L_A outside (0, L), an axis outside X/Y/Z, p_m or p_y outside [0, 1/2]:
    # no config accepts these, so neither does a points CSV.  One L_A cell
    # changes, or the axis or strength of every row, so that each group
    # would still fit
    csv = tmp_path / "pts.csv"
    points, _ = run_case1(small_cfg(tmp_path))
    write_points_csv(csv, points)
    lines = csv.read_text().splitlines()
    for i in [3] if column == 1 else range(2, len(lines)):
        tok = lines[i].split(",")
        lines[i] = ",".join(tok[:column] + [value] + tok[column + 1 :])
    csv.write_text("\n".join(lines) + "\n")
    assert cli.main(["fit", str(csv)]) == 2
    err = capsys.readouterr().err
    assert "is not axis X/Y/Z, 0 < L_A < L, p in [0, 1/2]" in err
    assert lines[3 if column == 1 else 2] in err
    assert sorted(os.listdir(tmp_path)) == ["cache", "pts.csv"]


def test_cli_fit_rejects_a_csv_of_two_chain_lengths(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    short, _ = run_case1(small_cfg(tmp_path, p_m=(0.5,)))
    long, _ = run_case1(small_cfg(tmp_path, L=10, L_A=(2, 3, 4, 5, 6, 7, 8), p_m=(0.5,)))
    write_points_csv(csv, short + long)
    assert cli.main(["fit", str(csv)]) == 2
    assert "more than one chain length L [8, 10]" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cache", "pts.csv"]
    for points in (short, long):
        write_points_csv(csv, points)
        assert cli.main(["fit", str(csv)]) == 0


@pytest.mark.parametrize(
    "out, message",
    [
        ("missing/fits.csv", "does not exist"),
        ("fits_dir", "fits_dir is a directory"),
        (None, "pts_fits.csv is a directory"),
    ],
)
def test_cli_fit_unwritable_output_exits_2_and_writes_nothing(tmp_path, capsys, out, message):
    csv = tmp_path / "pts.csv"
    points, _ = run_case1(small_cfg(tmp_path, L_A=(2, 3, 4), p_m=(0.5,), window=(2, 4)))
    write_points_csv(csv, points)
    (tmp_path / ("fits_dir" if out else "pts_fits.csv")).mkdir()
    before = sorted(os.walk(tmp_path))
    argv = ["fit", str(csv)] + (["--out", str(tmp_path / out)] if out else [])
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert sorted(os.walk(tmp_path)) == before


@pytest.mark.parametrize("out", ["newname", "pts.csv"])
def test_cli_fit_output_ending_in_a_separator_exits_2_before_the_read(
    tmp_path, capsys, monkeypatch, out
):
    # the file would go into the directory `out`: missing, or the points CSV itself
    csv = tmp_path / "pts.csv"
    points, _ = run_case1(small_cfg(tmp_path, L_A=(2, 3, 4), p_m=(0.5,), window=(2, 4)))
    write_points_csv(csv, points)
    before = sorted(os.walk(tmp_path))

    def no_read(path):
        raise AssertionError("the points CSV was read before the output path was checked")

    monkeypatch.setattr(experiments, "read_points_csv", no_read)
    assert cli.main(["fit", str(csv), "--out", str(tmp_path / out) + os.sep]) == 2
    assert "names no file" in capsys.readouterr().err
    assert sorted(os.walk(tmp_path)) == before


def test_cli_fit_points_csv_without_rows_exits_2(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    write_points_csv(csv, [])
    assert cli.main(["fit", str(csv)]) == 2
    assert "no data rows" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["pts.csv"]


def test_cli_config_not_utf8_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(b"L = 8\n# \xff\n")
    assert cli.main(["ground", "--config", str(cfg_file), "--cache-dir", str(tmp_path / "c")]) == 2
    assert "config error: cannot read config" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.cfg"]


@pytest.mark.parametrize("command", ["case1", "case2"])
def test_cli_out_in_missing_directory_exits_2_before_the_solve(tmp_path, capsys, command):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "L = 6\naxis = Z\np_m = 0.0, 0.5\np_y = 0.0, 0.2\nL_A = 2:4\nwindow = 2:4\n"
        f"out = {tmp_path / 'no_such_dir' / 'pts.csv'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    if command == "case1":
        cfg_file.write_text(cfg_file.read_text().replace("p_y = 0.0, 0.2\n", ""))
    assert cli.main([command, "--config", str(cfg_file)]) == 2
    assert "does not exist" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "cache")


def _no_solve(model):
    raise AssertionError("the solver ran before the output paths were checked")


@pytest.mark.parametrize("command", ["ground", "case1", "case2"])
@pytest.mark.parametrize("sub", ["", "sub"])
def test_cli_unusable_cache_dir_exits_2_before_the_solve(
    tmp_path, capsys, monkeypatch, command, sub
):
    # a regular file where the cache directory, or one of its parents, should be
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "L = 6\naxis = Z\np_m = 0.0, 0.5\nL_A = 2:4\nwindow = 2:4\n"
        + ("p_y = 0.0, 0.2\n" if command == "case2" else "")
        + f"out = {tmp_path / 'pts.csv'}\ncache_dir = {blocker / sub}\n"
    )
    monkeypatch.setattr(experiments, "ground_state", _no_solve)
    assert cli.main([command, "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "cache directory" in err
    assert not os.path.exists(tmp_path / "pts.csv")


@pytest.mark.parametrize("command", ["ground", "case1"])
def test_cli_cache_record_naming_a_directory_exits_2_before_the_solve(
    tmp_path, capsys, monkeypatch, command
):
    # a directory where the L=8 cache record should be written
    record = Path(tfim.cache_path(str(tmp_path / "cache"), 8))
    record.mkdir(parents=True)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "L = 8\naxis = Z\np_m = 0.0, 0.5\nL_A = 2:6\nwindow = 2:6\n"
        f"out = {tmp_path / 'pts.csv'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    monkeypatch.setattr(experiments, "ground_state", _no_solve)
    assert cli.main([command, "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{record} is a directory" in err
    assert record.is_dir() and not os.listdir(record)
    assert not os.path.exists(tmp_path / "pts.csv")


@pytest.mark.parametrize("command", ["case1", "case2"])
@pytest.mark.parametrize("blocked", ["pts.csv", "pts_fits.csv"])
def test_cli_output_naming_a_directory_exits_2_before_the_solve(
    tmp_path, capsys, monkeypatch, command, blocked
):
    # the points CSV `out`, or the fits CSV written beside it, is a directory
    (tmp_path / blocked).mkdir()
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "L = 6\naxis = Z\np_m = 0.0, 0.5\nL_A = 2:4\nwindow = 2:4\n"
        + ("p_y = 0.0, 0.2\n" if command == "case2" else "")
        + f"out = {tmp_path / 'pts.csv'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    monkeypatch.setattr(experiments, "ground_state", _no_solve)
    assert cli.main([command, "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{blocked} is a directory" in err
    assert sorted(os.listdir(tmp_path)) == sorted(["exp.cfg", blocked])


def _case1_config(tmp_path, stem):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "L = 8\naxis = Z\np_m = 0.0, 0.5\nL_A = 2:6\nwindow = 2:6\n"
        f"out = {tmp_path / stem}.csv\ncache_dir = {tmp_path / 'cache'}\n"
    )
    return str(cfg_file)


def test_cli_writes_outputs_whose_names_fill_the_directory_limit(tmp_path):
    # <stem>_fits.csv is one byte short of the limit, so the file that the
    # write goes through before its rename must have a shorter name
    stem = "p" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 10)
    assert cli.main(["case1", "--config", _case1_config(tmp_path, stem)]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["cache", "exp.cfg", f"{stem}.csv", f"{stem}_fits.csv"]
    )


def test_cli_output_name_past_the_directory_limit_exits_2_before_the_solve(
    tmp_path, capsys, monkeypatch
):
    # <stem>.csv fits the limit, and <stem>_fits.csv is two bytes past it
    stem = "p" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 7)
    monkeypatch.setattr(experiments, "ground_state", _no_solve)
    assert cli.main(["case1", "--config", _case1_config(tmp_path, stem)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{stem}_fits.csv is longer than" in err
    assert os.listdir(tmp_path) == ["exp.cfg"]


def _refusing(real, error):
    """`real` (os.open or os.replace), raising `error` on a temporary file."""

    def call(path, *args, **kwargs):
        if str(path).endswith(".tmp"):
            raise error
        return real(path, *args, **kwargs)

    return call


@pytest.mark.parametrize("target", ["record", "csv"])
@pytest.mark.parametrize(
    "call, error",
    [
        ("open", PermissionError(errno.EACCES, "Permission denied")),
        ("replace", OSError(errno.ENOSPC, "No space left on device")),
    ],
    ids=["open", "replace"],
)
def test_cli_refused_write_exits_2_and_leaves_no_temporary_file(
    tmp_path, capsys, monkeypatch, target, call, error
):
    # past the checks a write can still fail (root ignores permission bits, a
    # disk fills up): the cache record's on a cold cache, or a CSV's over an
    # existing one, which keeps its bytes
    cfg_file = _case1_config(tmp_path, "pts")
    if target == "csv":
        assert cli.main(["case1", "--config", cfg_file]) == 0
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    monkeypatch.setattr(os, call, _refusing(getattr(os, call), error))
    assert cli.main(["case1", "--config", cfg_file]) == 2
    assert f"write error: {error}" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("command", ["ground", "case1"])
def test_cli_unwritable_output_directory_exits_2_before_the_solve(
    tmp_path, capsys, monkeypatch, command
):
    monkeypatch.setattr(experiments, "ground_state", _no_solve)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert cli.main([command, "--config", _case1_config(tmp_path, "pts")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "is not writable" in err
    assert not os.path.exists(tmp_path / "pts.csv")


def test_cli_fit_checks_the_window_as_case1_does(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    csv = tmp_path / "pts.csv"
    cfg_file.write_text(
        f"L = 8\np_m = 0.0, 0.5\nL_A = 2:6\nout = {csv}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    assert cli.main(["case1", "--config", str(cfg_file)]) == 0
    fits_csv = Path(experiments.fits_csv_path(str(csv)))
    fits_csv.unlink()
    capsys.readouterr()
    for window, message in (
        ("5:2", "window 5:2 outside (0, 8)"),
        ("3:30", "window 3:30 outside (0, 8)"),
        ("4:4", "window 4:4 leaves fewer than two distinct scaling values"),
    ):
        for argv in (["case1", "--config", str(cfg_file)], ["fit", str(csv)]):
            assert cli.main([*argv, "--window", window]) == 2
            assert f"config error: {message}" in capsys.readouterr().err
            assert not fits_csv.exists()
    # symmetric L_A pairs collapse to one scaling value in the default window 2:6
    pairs = tmp_path / "pairs.csv"
    write_points_csv(pairs, [p for p in read_points_csv(csv) if p.L_A in (2, 6)])
    assert cli.main(["fit", str(pairs)]) == 2
    assert "leaves fewer than two distinct scaling values" in capsys.readouterr().err
    assert not Path(experiments.fits_csv_path(str(pairs))).exists()
    assert cli.main(["fit", str(csv), "--window", "3:5"]) == 0
    rows = fits_csv.read_text().splitlines()[2:]
    assert len(rows) == 2 and all(row.endswith(",3:5") for row in rows)


@pytest.mark.parametrize("pair", [(4, 38), (5, 37)])
def test_cli_fit_rejects_symmetric_pairs_that_round_apart(tmp_path, capsys, pair):
    # s(42, 4) and s(42, 38) differ in their last digits, past a 12-decimal
    # rounding; the fit's own spread test sees one value, as for (5, 37)
    csv = tmp_path / "pts.csv"
    write_points_csv(csv, [
        entropy.MiPoint(42, la, "Z", 0.0, 0.0, 0.5, 0.5, 0.0, 1.0 + la / 100) for la in pair
    ])
    assert cli.main(["fit", str(csv), "--window", "4:38"]) == 2
    assert "leaves fewer than two distinct scaling values" in capsys.readouterr().err
    assert not Path(experiments.fits_csv_path(str(csv))).exists()


def test_cli_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a solver that does not converge is a numeric failure, not a config error
    def no_convergence(L):
        raise tfim.LanczosError("no convergence")

    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"L = 6\ncache_dir = {tmp_path / 'cache'}\n")
    monkeypatch.setattr(experiments, "ground_state", no_convergence)
    assert cli.main(["ground", "--config", str(cfg_file)]) == 3
    assert "numeric failure: no convergence" in capsys.readouterr().err
