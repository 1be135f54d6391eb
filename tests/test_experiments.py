import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import mecsim
from mecsim.association import run_amnd
from mecsim.cli import _scenario_from_args, build_parser, main
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
    with pytest.raises(ValueError, match="algorithms"):
        ExperimentConfig(algorithms=()).validate()
    for name in ("game_iters", "patience"):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: -1}).validate()
        ExperimentConfig(**{name: 0}).validate()   # 0 is the default


@pytest.fixture
def solves(monkeypatch):
    """Calls of ``abcg_init`` and ``run_amnd`` made by the sweep and the
    CLI, counted by name."""
    calls = []
    for module in (mecsim.experiments, mecsim.cli):
        for name in ("abcg_init", "run_amnd"):
            inner = getattr(module, name)

            def counted(*args, _name=name, _inner=inner, **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


TINY = ["--hrd", "4", "--csd", "4", "--n-mbs", "1", "--m-sbs", "2"]


def test_empty_algorithms_are_rejected_before_any_work(tmp_path, capsys,
                                                        solves):
    assert main(["sweep", "--set", "algorithms=", "--seeds", "1", "--grid",
                 "0.5", "--deltas", "0.6", "--set", "n_hrd=4", "--set",
                 "n_csd=4", "-o", str(tmp_path / "s.csv")]) == 1
    assert solves == []
    assert "algorithms" in capsys.readouterr().err


def test_negative_game_budgets_are_usage_errors(tmp_path, capsys, solves):
    # 0 keeps selecting the built-in default; below 0 nothing is solved.
    sweep = ["sweep", "--seeds", "1", "--grid", "0.5", "--deltas", "0.6",
             "--set", "n_hrd=4", "--set", "n_csd=4", "-o",
             str(tmp_path / "s.csv")]
    for argv, name in ((sweep + ["--set", "game_iters=-5"], "game_iters"),
                       (sweep + ["--set", "patience=-1"], "patience"),
                       (["run", "--t2", "-3"] + TINY, "--t2"),
                       (["run", "--patience", "-1"] + TINY, "--patience"),
                       (["audit", "--patience", "-1"] + TINY, "--patience"),
                       (["audit", "--t2", "-2"] + TINY, "--t2")):
        assert main(argv) == 1, argv
        assert name in capsys.readouterr().err, argv
    assert solves == []
    assert main(["run", "--t2", "0", "--patience", "0"] + TINY) == 0
    assert solves == ["run_amnd"]


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
    # The local/offload rule is no longer an option.
    assert main(["run", "--local-rule", "offload_if_faster"]) == 1
    capsys.readouterr()


def test_cli_io_errors_exit_three(tmp_path):
    assert main(["trend", "--csv", str(tmp_path / "missing.csv"),
                 "--metric", "F", "--shape", "u"]) == 3


@pytest.mark.parametrize("metric", ["bogus", "axis", "algorithm",
                                    "n_cached_hits"])
def test_trend_rejects_a_metric_that_is_not_a_numeric_column(
        tmp_path, capsys, metric):
    rows = synth_rows([9, 5, 3, 4, 8])
    with pytest.raises(ValueError, match="numeric CSV column"):
        trend_check(rows, metric, "u")
    path = tmp_path / "rows.csv"
    emit_csv(rows, path)
    assert main(["trend", "--csv", str(path), "--metric", metric,
                 "--shape", "u"]) == 1
    assert capsys.readouterr().err.startswith("mecsim: metric")


@pytest.mark.parametrize("edit, line", [
    (lambda rows: rows[:2] + [rows[2].rsplit(",", 1)[0]] + rows[3:], 3),
    (lambda rows: rows[:4] + [rows[4] + ",0"] + rows[5:], 5),
    (lambda rows: rows[:5] + [rows[5].replace("AMND", "AMND,x")], 6),
    (lambda rows: rows[:1] + [rows[1].replace(",1,", ",one,", 1)] + rows[2:],
     2),
], ids=["short_row", "long_row", "split_cell", "bad_int"])
def test_load_csv_names_the_line_of_a_malformed_row(tmp_path, edit, line):
    path = tmp_path / "rows.csv"
    emit_csv(synth_rows([9, 5, 3, 4, 8]), path)
    path.write_text("\n".join(edit(path.read_text().split("\n"))))
    with pytest.raises(ValueError, match=f"line {line}: "):
        load_csv(path)


def test_bool_override_takes_only_known_words():
    for word, value in [("1", True), ("TRUE", True), ("yes", True),
                        ("on", True), ("0", False), ("false", False),
                        ("No", False), (" off ", False)]:
        assert config_with_overrides(
            ExperimentConfig(stabilize=not value),
            {"stabilize": word}).stabilize is value
    for word in ("ture", "", "2", "enabled"):
        with pytest.raises(ValueError, match="stabilize"):
            config_with_overrides(ExperimentConfig(), {"stabilize": word})
    assert main(["sweep", "--set", "stabilize=ture"]) == 1


@pytest.mark.parametrize("buffered", [False, True])
def test_closed_stdout_is_not_an_io_error(buffered):
    # The reader closes the pipe before mecsim writes its report.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = os.path.dirname(os.path.dirname(mecsim.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from mecsim.cli import main; sys.exit(main(sys.argv[2:]))")
    proc = subprocess.Popen(
        [sys.executable, "-c", code, src, "run", "--seed", "0", "--n-mbs",
         "1", "--m-sbs", "2", "--hrd", "4", "--csd", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_cli_audit_small_instance(tmp_path, capsys):
    rc = main(["audit", "--seed", "5", "--n-mbs", "1", "--m-sbs", "2",
               "--hrd", "5", "--csd", "5",
               "--t2", "150", "--patience", "80"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "audit: CLEAN" in out


@pytest.mark.parametrize("seed", [1, 9, 17])
def test_cli_audit_checks_every_nonempty_coalition(seed, capsys):
    # The oracle comparison covers every nonempty final coalition of both
    # games; seed 17 ends with a rate ordering that binds.
    argv = ["audit", "--seed", str(seed)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    final = run_amnd(*_scenario_from_args(build_parser().parse_args(argv)))
    nonempty = sum(bool(members) for members in
                   final.hrd_members + final.csd_members[:final.n_sbs])
    assert f"allocation vs oracle on {nonempty} coalition(s): " in out
    assert ", 0 infeasible\n" in out
    assert "audit: CLEAN" in out


@pytest.mark.parametrize("seed", [0, 1, 7, 13])
def test_cli_audit_gap_is_the_allocators_not_the_oracles(seed, capsys):
    # Both oracles solve to a budget residual of ORACLE_TOL, so the worst
    # gap the audit reports is the closed forms' rounding, far below the
    # 1e-6 gate.
    assert main(["audit", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    gap = float(out.split("worst relative gap ")[1].split(",")[0])
    assert 0.0 <= gap <= 1e-11
    assert "audit: CLEAN" in out


def test_cli_audit_counts_remaining_moves(capsys):
    # Without the stabilization sweep the random phase leaves improving
    # moves, and every one of them counts as a failure.
    assert main(["audit", "--seed", "3", "--no-stabilize"]) == 2
    assert "stability audit: 8 improving move(s) remain\n" in \
        capsys.readouterr().out

def test_cli_run_row_matches_the_sweep_row(tmp_path, capsys):
    # ``mecsim run`` builds its instance through the sweep's path, so its
    # default scenario flags reproduce the sweep's AMND row to the byte.
    row_path, sweep_path = tmp_path / "row.csv", tmp_path / "sweep.csv"
    assert main(["run", "--seed", "3", "--row-csv", str(row_path)]) == 0
    assert main(["sweep", "--seeds", "3", "--grid", "0.5", "--deltas", "0.6",
                 "-o", str(sweep_path)]) == 0
    capsys.readouterr()
    amnd = [line for line in sweep_path.read_text().splitlines()
            if ",AMND," in line]
    assert row_path.read_text().splitlines()[1:] == amnd


# SHA-256 of ``mecsim sweep --seeds 1 --audit``.  Storage layout changes
# must leave it alone; a change to the allocator re-records it.
SWEEP_SEED1_SHA256 = \
    "acab82d727f0250adb6c2e3b51c4159408ae5f5b1d8bb0c9d08eb99f0ed7425a"


def test_sweep_csv_matches_recorded_digest(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--seeds", "1", "--audit", "-o", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_SEED1_SHA256
