import os
import subprocess
import sys

import numpy as np
import pytest

import mecsim
from mecsim.cli import build_parser, main
from mecsim.experiments import (CSV_COLUMNS, ExperimentConfig, SweepRow,
                                config_with_overrides, emit_csv, load_config,
                                load_csv, run_sweep, save_config, seed_average,
                                trend_check)

SMALL = ExperimentConfig(grid=(0.4, 0.6), deltas=(0.6,), seeds=(1, 2),
                         n_hrd=8, n_csd=8, m_sbs=3, n_mbs=1,
                         game_iters=200, patience=100)


@pytest.fixture(scope="module")
def small_rows():
    return run_sweep(SMALL, audit=True)


def test_one_row_per_point_seed_algorithm(small_rows):
    assert len(small_rows) == 2 * 2 * 2
    single = run_sweep(ExperimentConfig(grid=(0.5,), deltas=(0.6, 1.0),
                                        seeds=(3,), algorithms=("ABCG",),
                                        n_hrd=4, n_csd=4, m_sbs=2, n_mbs=1))
    assert len(single) == 2


def test_sweep_is_deterministic_to_the_byte(tmp_path):
    cfg = ExperimentConfig(grid=(0.5,), deltas=(0.6,), seeds=(4,),
                           n_hrd=6, n_csd=6, m_sbs=2, n_mbs=1,
                           game_iters=150, patience=80)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(cfg), p1)
    emit_csv(run_sweep(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_optimizer_dominates_initializer_rowwise(small_rows):
    by_key = {}
    for row in small_rows:
        by_key.setdefault((row.axis_value, row.delta, row.seed), {})[
            row.algorithm] = row.F
    for key, algs in by_key.items():
        assert algs["AMND"] <= algs["ABCG"] + 1e-9, key


def test_emit_rejects_empty_and_roundtrips(tmp_path, small_rows):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "empty.csv")
    path = tmp_path / "rows.csv"
    emit_csv(small_rows, path)
    text = path.read_text()
    assert text.endswith("\n")
    header, *lines = text.strip().split("\n")
    assert header == ",".join(CSV_COLUMNS)
    assert all(len(ln.split(",")) == len(CSV_COLUMNS) for ln in lines)
    back = load_csv(path)
    for a, b in zip(small_rows, back):
        assert b.F == pytest.approx(a.F, rel=1e-11)
        assert b.seed == a.seed and b.algorithm == a.algorithm
        assert b.n_backhauled_files == a.n_backhauled_files


def synth_rows(series, metric="hrd_total_s", algorithm="AMND", delta=0.6):
    rows = []
    for x, y in zip(np.linspace(0.1, 0.9, len(series)), series):
        kw = dict(axis="a", axis_value=float(x), delta=delta, seed=1,
                  algorithm=algorithm, F=0.0, hrd_total_s=0.0,
                  hrd_backhaul_s=0.0, csd_total_s=0.0, csd_local_s=0.0,
                  csd_offload_s=0.0, n_local_csd=0, n_edge_csd=0,
                  n_backhauled_files=0, accepted_moves=0, runtime_ms=0.0)
        kw[metric] = float(y)
        rows.append(SweepRow(**kw))
    return rows


def test_trend_shapes_on_synthetic_series():
    u = synth_rows([9, 5, 3, 4, 8])
    assert trend_check(u, "hrd_total_s", "u").passed
    mono = synth_rows([9, 8, 6, 5, 1])
    assert not trend_check(mono, "hrd_total_s", "u").passed
    assert trend_check(mono, "hrd_total_s", "nonincreasing").passed
    assert not trend_check(mono, "hrd_total_s", "nondecreasing").passed
    up = synth_rows([1, 2, 2, 3, 4])
    assert trend_check(up, "hrd_total_s", "nondecreasing").passed
    with pytest.raises(ValueError, match="grid points"):
        trend_check(synth_rows([1, 2, 3]), "hrd_total_s", "u")
    with pytest.raises(ValueError, match="shape"):
        trend_check(u, "hrd_total_s", "bowl")


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the start-up time; only trend_check needs it.
    src = os.path.dirname(os.path.dirname(mecsim.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mecsim; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_seed_average_filters_by_algorithm_and_delta(small_rows):
    xs, ys = seed_average(small_rows, "F", algorithm="AMND", delta=0.6)
    assert xs.tolist() == [0.4, 0.6]
    assert np.all(ys > 0)


def test_config_roundtrip_and_overrides(tmp_path):
    cfg = ExperimentConfig(axis="t1_frac", grid=(0.2, 0.4), seeds=(9,),
                           storage_bytes=1e7, cache_policy="popular_first",
                           stabilize=False)
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    bumped = config_with_overrides(loaded, {"seeds": "1 2 3", "a": "0.3",
                                            "algorithms": "AMND"})
    assert bumped.seeds == (1, 2, 3)
    assert bumped.a == 0.3
    assert bumped.algorithms == ("AMND",)
    with pytest.raises(ValueError, match="unknown config field"):
        config_with_overrides(loaded, {"bogus": "1"})


def test_config_validation():
    with pytest.raises(ValueError, match="axis"):
        ExperimentConfig(axis="power").validate()
    with pytest.raises(ValueError, match="strictly"):
        ExperimentConfig(grid=(0.0, 0.5)).validate()
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seeds=()).validate()


def test_cli_gen_run_and_trend(tmp_path, capsys):
    scn_path = tmp_path / "scn.txt"
    rc = main(["gen", "-o", str(scn_path), "--seed", "3", "--n-mbs", "1",
               "--m-sbs", "2", "--hrd", "4", "--csd", "4"])
    assert rc == 0 and scn_path.exists()

    rates_path = tmp_path / "rates.csv"
    row_path = tmp_path / "row.csv"
    rc = main(["run", "--scenario", str(scn_path), "--algorithm", "amnd",
               "--t2", "100", "--patience", "50",
               "--rates-csv", str(rates_path), "--row-csv", str(row_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[AMND] F =" in out and "objective trace:" in out
    assert rates_path.exists()
    assert len(rates_path.read_text().strip().split("\n")) == 3
    row = load_csv(row_path)
    assert len(row) == 1 and row[0].algorithm == "AMND"

    csv_path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--grid", "0.3 0.5", "--deltas", "0.6", "--seeds",
               "1", "--algorithms", "AMND", "-o", str(csv_path),
               "--set", "n_hrd=6", "--set", "n_csd=6"]
              + ["--axis", "a"])
    assert rc == 0 and csv_path.exists()

    # trends on a 2-point grid are a usage error (needs >= 5 grid points)
    rc = main(["trend", "--csv", str(csv_path), "--metric", "hrd_total_s",
               "--shape", "u"])
    assert rc == 1


def test_cli_usage_errors_exit_one(capsys):
    assert main(["run", "--algorithm", "nonsense"]) == 1
    assert main(["trend", "--csv", "x.csv"]) == 1
    capsys.readouterr()


def test_cli_rejects_abbreviated_flags(capsys):
    # "--t1" is a prefix of "--t1-frac" only; it must not be read as it.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--t1", "0.3"])
    assert main(["audit", "--hrd", "5", "--cs", "5"]) == 1
    capsys.readouterr()


def test_cli_io_errors_exit_three(tmp_path):
    assert main(["trend", "--csv", str(tmp_path / "missing.csv"),
                 "--metric", "F", "--shape", "u"]) == 3


def test_cli_audit_small_instance(tmp_path, capsys):
    rc = main(["audit", "--seed", "5", "--n-mbs", "1", "--m-sbs", "2",
               "--hrd", "5", "--csd", "5",
               "--t2", "150", "--patience", "80"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "audit: CLEAN" in out