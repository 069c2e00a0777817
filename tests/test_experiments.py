import os
import struct

import numpy as np
import pytest

from renyimi import (
    Bipartition,
    ChannelSpec,
    apply_lifted_channel,
    cli,
    experiments,
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
    parse_config_text,
    read_points_csv,
    run_case1,
    run_case2,
    write_points_csv,
)

CONFIG_TEXT = """
# small pure-state sweep
L = 8
method = dense
axis = Z
p_m = 0.0, 0.25, 0.5
L_A = 2:6
window = 2:6
workers = 2
"""


def small_cfg(tmp_path, **kw):
    base = dict(
        L=8,
        method="dense",
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


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("L = 8\nbond_dim = 64\n")


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("L = 8\nL = 10\n")


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
    with pytest.raises(ConfigError, match="dense for L = 2"):
        build_config({"L": "2", "method": "lanczos"})


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
    from renyimi import TfimModel, ground_state

    cached, _ = cached_ground_state(8, method="lanczos", cache_dir=str(tmp_path))
    dense = ground_state(TfimModel(8), method="dense")
    assert abs(cached.energy - dense.energy) < 1e-8


def test_cached_ground_state_roundtrip(tmp_path):
    first, hit_a = cached_ground_state(6, method="dense", cache_dir=str(tmp_path))
    second, hit_b = cached_ground_state(6, method="dense", cache_dir=str(tmp_path))
    assert (hit_a, hit_b) == (False, True)
    assert np.array_equal(first.state, second.state)


def test_cached_ground_state_recovers_from_corruption(tmp_path):
    cached_ground_state(5, method="dense", cache_dir=str(tmp_path))
    path = experiments.cache_path(str(tmp_path), 5)
    with open(path, "wb") as fh:
        fh.write(b"garbage")
    result, hit = cached_ground_state(5, method="dense", cache_dir=str(tmp_path))
    assert not hit
    assert result.residual <= 1e-8


def test_cached_ground_state_recovers_from_truncated_energy(tmp_path):
    cached_ground_state(6, method="dense", cache_dir=str(tmp_path))
    path = experiments.cache_path(str(tmp_path), 6)
    with open(path, "r+b") as fh:
        fh.truncate(15)  # ends inside the 8-byte energy field
    result, hit = cached_ground_state(6, method="dense", cache_dir=str(tmp_path))
    assert not hit
    assert result.residual <= 1e-8
    assert os.path.getsize(path) == 28 + 8 * 2**6


def test_cached_ground_state_rewrites_version_2_record(tmp_path):
    # version 2 stored complex128 amplitudes; such a record is recomputed and overwritten
    fresh, _ = cached_ground_state(6, method="dense", cache_dir=str(tmp_path))
    path = experiments.cache_path(str(tmp_path), 6)
    head = struct.pack("<4sIId8s", b"TFGS", 2, 6, fresh.energy, b"dense")
    with open(path, "wb") as fh:
        fh.write(head + np.ascontiguousarray(fresh.state, dtype="<c16").tobytes())
    result, hit = cached_ground_state(6, method="dense", cache_dir=str(tmp_path))
    assert not hit
    assert result.state.dtype == np.float64
    with open(path, "rb") as fh:
        raw = fh.read()
    assert struct.unpack("<I", raw[4:8]) == (3,)
    assert len(raw) == 28 + 8 * 2**6
    assert cached_ground_state(6, method="dense", cache_dir=str(tmp_path))[1]


@pytest.mark.parametrize("first, second", [("lanczos", "dense"), ("dense", "lanczos")])
def test_cached_ground_state_misses_on_other_method(tmp_path, first, second):
    cached_ground_state(8, method=first, cache_dir=str(tmp_path))
    result, hit = cached_ground_state(8, method=second, cache_dir=str(tmp_path))
    assert not hit
    assert result.method == second
    again, hit = cached_ground_state(8, method=second, cache_dir=str(tmp_path))
    assert hit
    assert np.array_equal(again.state, result.state)


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

    first = open(cfg.out, "rb").read()
    points2, _ = run_case1(cfg)
    write_points_csv(cfg.out, points2)
    assert open(cfg.out, "rb").read() == first

    with open(experiments.fits_csv_path(cfg.out)) as fh:
        fit_lines = fh.read().splitlines()
    assert "ordinary least squares" in fit_lines[0]
    assert fit_lines[1] == "axis,p_m,p_y,c2,b2,rms,window"
    assert fit_lines[2].split(",")[-1] == "2:6"


def _csv_bytes(cfg, points, fits):
    write_points_csv(cfg.out, points)
    experiments.write_fits_csv(experiments.fits_csv_path(cfg.out), fits)
    return [open(path, "rb").read() for path in (cfg.out, experiments.fits_csv_path(cfg.out))]


def test_worker_count_does_not_change_results(tmp_path):
    outputs = []
    for workers in (1, 3):
        cfg = small_cfg(tmp_path, workers=workers, out=str(tmp_path / f"points_w{workers}.csv"))
        outputs.append(_csv_bytes(cfg, *run_case1(cfg)))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("writer", ["points", "fits"])
def test_failed_csv_write_keeps_old_file(tmp_path, monkeypatch, writer):
    cfg = small_cfg(tmp_path)
    points, fits = run_case1(cfg)
    if writer == "points":
        path, write, rows = cfg.out, write_points_csv, points
    else:
        path, write, rows = experiments.fits_csv_path(cfg.out), experiments.write_fits_csv, fits
    write(path, rows)
    old = open(path, "rb").read()
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

    monkeypatch.setattr(experiments, "open", open_failing_mid_write, raising=False)
    with pytest.raises(OSError, match="No space"):
        write(path, rows[:1])
    monkeypatch.undo()
    assert open(path, "rb").read() == old
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


def test_csv_files_get_the_mode_of_a_plain_open(tmp_path):
    cfg = small_cfg(tmp_path)
    _csv_bytes(cfg, *run_case1(cfg))
    plain = tmp_path / "plain.csv"
    plain.write_text("x\n")
    for path in (cfg.out, experiments.fits_csv_path(cfg.out)):
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


def test_run_case2_matches_doubled_path_L9(tmp_path):
    cfg = small_cfg(
        tmp_path, L=9, method="lanczos", L_A=(3, 4, 5, 6), window=(3, 6),
        p_m=(0.0, 0.2, 0.5), p_y=(0.0, 0.3, 0.45),
    )
    ground, _ = cached_ground_state(9, method="lanczos", cache_dir=cfg.cache_dir)
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


def test_cli_ground_and_case1(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "L = 6\nmethod = dense\naxis = Z\np_m = 0.0, 0.5\nL_A = 2:4\nwindow = 2:4\n"
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
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "L = 6\nmethod = dense\naxis = Z\np_m = 0.0, 0.5\np_y = 0.0, 0.2\n"
        f"L_A = 2:4\nwindow = 2:4\nout = {tmp_path / 'c2.csv'}\n"
        f"cache_dir = {tmp_path / 'cache'}\n"
    )
    assert cli.main(["case2", "--config", str(cfg_file)]) == 0
    assert os.path.exists(tmp_path / "c2.csv")


def test_cli_case2_above_cap_exits_2(tmp_path, capsys):
    L = CASE2_MAX_SITES + 1
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        f"L = {L}\naxis = Z\np_m = 0.0, 0.5\np_y = 0.0, 0.2\nL_A = 4:{L - 4}\n"
        f"out = {tmp_path / 'c2.csv'}\ncache_dir = {tmp_path / 'cache'}\n"
    )
    assert cli.main(["case2", "--config", str(cfg_file)]) == 2
    assert "capped" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "cache")


def test_cli_config_error_exit_code(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("L = 8\np_m = 0.9\n")
    assert cli.main(["ground", "--config", str(cfg_file)]) == 2
    missing = tmp_path / "missing.cfg"
    assert cli.main(["ground", "--config", str(missing)]) == 2


def test_cli_numeric_failure_exit_code(tmp_path):
    # symmetric L_A pairs collapse to one scaling value: rank-deficient fit
    csv = tmp_path / "pts.csv"
    points, _ = run_case1(
        small_cfg(tmp_path, L_A=(2, 3, 6), window=(2, 6), p_m=(0.5,))
    )
    write_points_csv(csv, [p for p in points if p.L_A in (2, 6)])
    assert cli.main(["fit", str(csv)]) == 3
