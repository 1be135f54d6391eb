import hashlib
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import fields

import numpy as np
import pytest

import mecsim
from mecsim import _kernels, allocation, association
from mecsim.association import GAP_TOL, audit_solve, run_amnd
from mecsim.cli import _scenario_from_args, build_parser, main
from mecsim.experiments import (CSV_COLUMNS, ExperimentConfig, SweepRow,
                                config_with_overrides, emit_csv, load_config,
                                load_csv, run_sweep, save_config, seed_average,
                                spearman_rho, trend_check)

SMALL = ExperimentConfig(grid=(0.4, 0.6), deltas=(0.6,), seeds=(1, 2),
                         n_hrd=8, n_csd=8, m_sbs=3, n_mbs=1)


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
                           n_hrd=6, n_csd=6, m_sbs=2, n_mbs=1)
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
    assert len(back) == len(small_rows)
    for a, b in zip(small_rows, back):
        for col in CSV_COLUMNS:
            x, y = getattr(a, col), getattr(b, col)
            assert type(y) is type(x), col
            if isinstance(x, float):
                assert y == float(format(x, ".12g")), col
            else:
                assert y == x, col


def synth_rows(series, metric="hrd_total_s", algorithm="AMND", delta=0.6):
    rows = []
    for x, y in zip(np.linspace(0.1, 0.9, len(series)), series):
        kw = dict(axis="a", axis_value=float(x), delta=delta, seed=1,
                  algorithm=algorithm, F=0.0, hrd_total_s=0.0,
                  hrd_backhaul_s=0.0, csd_total_s=0.0, csd_local_s=0.0,
                  csd_offload_s=0.0, n_local_csd=0, n_edge_csd=0,
                  n_backhauled_files=0, accepted_moves=0)
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


@pytest.mark.parametrize("series", [[4, 4, 4, 4, 4], [9, 8, "nan", 5, 1]],
                         ids=["flat", "nan"])
def test_a_series_without_rho_fails_quietly(series):
    # No spread, or a nan cell read from a CSV: no rank correlation.
    rows = synth_rows(series)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = trend_check(rows, "hrd_total_s", "nonincreasing")
    assert not result.passed
    assert result.detail == "spearman rho = nan"


def test_spearman_rho_is_scipys():
    from scipy.stats import spearmanr
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 1200:
        n = int(rng.integers(5, 31))
        # Every other pair draws from four values, so both series tie.
        x, y = (rng.integers(0, 4, (2, n)).astype(float) if checked % 2
                else rng.standard_normal((2, n)))
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue        # no rho: scipy warns, and the flat test covers it
        assert abs(spearman_rho(x, y) - spearmanr(x, y).statistic) <= 1e-12
        checked += 1


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # numpy is the package's only runtime dependency: neither the import
    # nor a Spearman-shape trend check loads any scipy module.
    path = tmp_path / "sweep.csv"
    emit_csv(synth_rows([9, 8, 6, 5, 1]), path)
    src = os.path.dirname(os.path.dirname(mecsim.__file__))
    code = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])

        def scipy_modules():
            return sorted(m for m in sys.modules if m.startswith("scipy"))

        import mecsim
        print(scipy_modules())
        from mecsim.cli import main
        rc = main(["trend", "--csv", sys.argv[2], "--metric", "hrd_total_s",
                   "--shape", "nonincreasing"])
        print(rc, scipy_modules())
    """)
    out = subprocess.run([sys.executable, "-c", code, src, str(path)],
                         capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[1] == "PASS: hrd_total_s vs axis is nonincreasing " \
        "(spearman rho = -1.000)"
    assert lines[-1] == "0 []"


def test_seed_average_filters_by_algorithm_and_delta(small_rows):
    xs, ys = seed_average(small_rows, "F", algorithm="AMND", delta=0.6)
    assert xs.tolist() == [0.4, 0.6]
    assert np.all(ys > 0)


def test_config_roundtrip_and_overrides(tmp_path):
    cfg = ExperimentConfig(
        axis="t1_frac", grid=(0.2, 0.4), deltas=(0.8, 1.2), seeds=(9, 4),
        algorithms=("AMND",), w_hz=10e6, a=0.6, t1_frac=0.4, m_sbs=4,
        n_mbs=2, isd_m=800.0, p_mbs_dbm=43.0, p_sbs_dbm=20.0, p_md_dbm=21.0,
        noise_dbm_hz=-170.0, n_hrd=7, n_csd=9, n_files=12,
        file_size_bytes=2e6, requests_per_hrd=2, task_input_bytes=5e4,
        task_cycles=2e9, local_cps=1e9, edge_cps=3e10, storage_bytes=1e7,
        cache_policy="popular_first", output="other.csv")
    default = ExperimentConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name)
               for f in fields(ExperimentConfig))
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert repr(loaded) == repr(cfg)     # (9, 4) == (9.0, 4.0), types too
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


def test_game_budget_is_no_input(tmp_path, capsys, solves):
    # The instance fixes each game's budget (``association.game_budget``):
    # a flag or config field that names one is a usage error, and nothing
    # is solved.
    config = tmp_path / "cfg.txt"
    config.write_text("mecsim-config v1\npatience = 3\n")
    sweep = ["sweep", "--seeds", "1", "--grid", "0.5", "--deltas", "0.6",
             "--set", "n_hrd=4", "--set", "n_csd=4", "-o",
             str(tmp_path / "s.csv")]
    for argv, message in (
            (["run", "--t2", "5"] + TINY, "unrecognized arguments: --t2 5"),
            (["audit", "--patience", "3"] + TINY,
             "unrecognized arguments: --patience 3"),
            (sweep + ["--set", "game_iters=5"],
             "unknown config field 'game_iters'"),
            (sweep + ["--config", str(config)],
             "unknown config field 'patience'")):
        assert main(argv) == 1, argv
        assert message in capsys.readouterr().err, argv
    assert solves == []


def test_empty_deployment_solves_through_every_command(tmp_path, capsys):
    # No device: the default game budgets are still valid, and F is 0.
    empty = ["--hrd", "0", "--csd", "0"]
    assert main(["run"] + empty) == 0
    assert main(["audit"] + empty) == 0
    assert "audit: CLEAN" in capsys.readouterr().out
    path = tmp_path / "s.csv"
    assert main(["sweep", "--set", "n_hrd=0", "--set", "n_csd=0", "--seeds",
                 "1", "--grid", "0.5", "--deltas", "0.6", "--audit", "-o",
                 str(path)]) == 0
    rows = load_csv(path)
    assert [row.algorithm for row in rows] == ["ABCG", "AMND"]
    assert all(row.F == 0.0 for row in rows)
    capsys.readouterr()


SWEEP_ONE = ["--seeds", "1", "--grid", "0.5", "--deltas", "0.6", "-o",
             os.devnull]


@pytest.mark.parametrize("argv, message", [
    (["run", "--task-bytes", "-1"] + TINY,
     "task_input_bytes must not be negative"),
    (["run", "--task-cycles", "-1"] + TINY, "task_cycles must not be negative"),
    (["run", "--storage", "-5"] + TINY, "storage_bytes must not be negative"),
    (["sweep", "--audit", "--set", "task_input_bytes=-1"] + SWEEP_ONE,
     "task_input_bytes must not be negative"),
    (["run", "--task-bytes", "0"] + TINY, "task_input_bytes must be positive"),
    (["audit", "--task-bytes", "0"] + TINY,
     "task_input_bytes must be positive"),
    (["sweep", "--audit", "--set", "task_input_bytes=0"] + SWEEP_ONE,
     "task_input_bytes must be positive"),
], ids=["task_bytes", "task_cycles", "storage", "sweep", "zero_task_bytes",
        "zero_task_bytes_audit", "zero_task_bytes_sweep"])
def test_negative_task_sizes_are_usage_errors(capsys, argv, message):
    # Rejected before any cost is computed: no RuntimeWarning from sqrt,
    # and no ZeroDivisionError from splitting zero uplink costs.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"mecsim: {message}\n"


def test_python_m_mecsim_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(mecsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "mecsim", "--help"],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert b"usage: mecsim" in proc.stdout
    # The top-level help lists every command.
    assert b"usage: mecsim [-h] {gen,run,sweep,audit,trend}" in proc.stdout


def test_cli_gen_run_and_trend(tmp_path, capsys):
    scn_path = tmp_path / "scn.txt"
    rc = main(["gen", "-o", str(scn_path), "--seed", "3", "--n-mbs", "1",
               "--m-sbs", "2", "--hrd", "4", "--csd", "4"])
    assert rc == 0 and scn_path.exists()

    rates_path = tmp_path / "rates.csv"
    row_path = tmp_path / "row.csv"
    rc = main(["run", "--scenario", str(scn_path), "--algorithm", "amnd",
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
    # "--t1" is a prefix of "--t1-frac" only; it must not be read as it,
    # by the full parser or by the one-command parser that ``main`` builds.
    for command in (None, "run"):
        with pytest.raises(SystemExit) as exc:
            build_parser(command).parse_args(["run", "--t1", "0.3"])
        assert exc.value.code == 1
    assert main(["run", "--t1", "0.3"]) == 1
    assert main(["audit", "--hrd", "5", "--cs", "5"]) == 1
    # The local/offload rule is no longer an option.
    assert main(["run", "--local-rule", "offload_if_faster"]) == 1
    capsys.readouterr()


# A few argv per command, after the command name.
COMMAND_ARGV = {
    "gen": [["-o", "x.txt"], ["--hrd", "3", "--seed", "2", "--output", "y"]],
    "run": [[], ["--algorithm", "abcg", "--move-log", "m.csv",
                 "--a", "0.7", "--cache-policy", "sampled"]],
    "sweep": [[], ["--set", "n_hrd=3", "--set", "n_csd=2", "--audit",
                   "--grid", "0.5", "--axis", "t1_frac", "-o", "s.csv"]],
    "audit": [[], ["--seed", "3", "--scenario", "s.txt"]],
    "trend": [["--csv", "r.csv", "--metric", "F", "--shape", "u",
               "--delta", "0.6", "--algorithm", "ABCG"]],
}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
def test_one_command_parser_parses_like_the_full_parser(capsys, command):
    for argv in COMMAND_ARGV[command]:
        argv = [command] + argv
        assert build_parser(command).parse_args(argv) == \
            build_parser().parse_args(argv)
    # ``mecsim <command> --help`` prints the full parser's help of it.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    full = capsys.readouterr().out
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out == full
    flags = {flag for argv in COMMAND_ARGV[command] for flag in argv
             if flag.startswith("-")}
    assert flags and all(flag in full for flag in flags)


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


def test_stabilize_and_timing_switches_are_gone(tmp_path, capsys):
    # Every solve ends with the stabilization sweep, and a sweep CSV holds
    # no wall time: neither has a flag or a config field.
    for argv in (["run", "--no-stabilize"], ["audit", "--no-stabilize"],
                 ["sweep", "--timing"]):
        assert main(argv) == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    path = tmp_path / "cfg.txt"
    path.write_text("mecsim-config v1\nstabilize = 1\n")
    for argv in (["sweep", "--set", "stabilize=1"],
                 ["sweep", "--config", str(path)]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == \
            "mecsim: unknown config field 'stabilize'\n"


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
               "--hrd", "5", "--csd", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "audit: CLEAN" in out


@pytest.mark.parametrize("seed", [1, 9, 17])
def test_cli_audit_checks_every_nonempty_coalition(seed, capsys):
    # The dual-bound comparison covers every nonempty final coalition of both
    # games; seed 17 ends with a rate ordering that binds.
    argv = ["audit", "--seed", str(seed)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    final = run_amnd(*_scenario_from_args(build_parser().parse_args(argv)))
    nonempty = sum(bool(members) for members in
                   final.hrd_members + final.csd_members[:final.n_sbs])
    assert f"allocation vs dual bound on {nonempty} coalition(s): " in out
    assert ", 0 infeasible\n" in out
    assert "audit: CLEAN" in out


@pytest.mark.parametrize("seed", range(20))
def test_cli_audit_gap_is_the_allocators_not_the_oracles(seed, capsys):
    # The certificate's bound is tight to rounding, so the worst gap the
    # audit reports is the rounding of the installed delays, far below the
    # 1e-6 gate.
    assert main(["audit", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    gap = float(out.split("worst relative gap ")[1].split(",")[0])
    assert 0.0 <= gap <= 1e-13
    assert "audit: CLEAN" in out


@pytest.mark.parametrize("game", ["csd", "hrd"])
def test_cli_audit_fails_on_swapped_shares(monkeypatch, capsys, game):
    # Two members of every coalition of ``game`` with two or more members
    # swap their installed shares (a CSD member's alpha and gamma, the beta
    # of an HRD member's first pair): the budgets still hold, and the
    # cached values and running sums stay the closed form's, so only the
    # installed delays, judged against the certified bound, show the
    # fault.  The bound's multipliers come from the same solve as the
    # unswapped shares, and still the gap sees the swap.
    seed, _ = _mutate(monkeypatch, f"swapped-{game}")
    assert main(["audit", "--seed", str(seed)]) == 2
    out = capsys.readouterr().out
    assert "constraints at final state: 0 violation(s)" in out
    assert "stability audit: 0 improving move(s) remain" in out
    gap = float(out.split("worst relative gap ")[1].split(",")[0])
    assert gap > 1e-6
    assert "audit: 1 failure(s)" in out


def test_cli_audit_fails_on_a_bound_above_the_delay(monkeypatch, capsys):
    # A bound ten times too high lies above every feasible delay, so each
    # gap is near -0.9: the audit judges each gap's size, not its sign.
    seed, _ = _mutate(monkeypatch, "bound-above-delay")
    assert main(["audit", "--seed", str(seed)]) == 2
    out = capsys.readouterr().out
    gap = float(out.split("worst relative gap ")[1].split(",")[0])
    assert gap == pytest.approx(0.9, rel=1e-12)
    assert "audit: 1 failure(s)" in out


def test_cli_audit_counts_remaining_moves(monkeypatch, capsys):
    # Without the stabilization sweep the random phase leaves improving
    # moves, and every one of them counts as a failure.
    seed, _ = _mutate(monkeypatch, "remaining-moves")
    assert main(["audit", "--seed", str(seed)]) == 2
    assert "stability audit: 9 improving move(s) remain\n" in \
        capsys.readouterr().out


# SHA-256 of the standard output of ``mecsim audit`` and its exit code,
# recorded before the audit moved into the library (``audit_solve``).  Seed
# 17's final state has a binding rate ordering; ``gen`` then ``audit
# --scenario`` reads a scenario file back.
AUDIT_DIGESTS = {
    "seed-0": ("1d955f55271bcddf2433ab851f550129"
               "da00e47ac74709f563c97c38e9376f05", 0),
    "seed-17": ("9663787de61008dab6cbdc517b9b018e"
                "42453dade2e6093b1a6a5e4ddae9289b", 0),
    "scenario": ("cf93df8856d8da9a7fec4cd6c42454e1"
                 "0505f401d549eb7c70094196372fb8fc", 0),
}


@pytest.mark.parametrize("case", sorted(AUDIT_DIGESTS))
def test_cli_audit_prints_the_recorded_bytes(case, tmp_path, capsys):
    if case == "scenario":
        path = str(tmp_path / "scenario.txt")
        assert main(["gen", "-o", path, "--seed", "3", "--hrd", "12",
                     "--csd", "24"]) == 0
        capsys.readouterr()
        argv = ["audit", "--scenario", path]
    else:
        argv = ["audit", "--seed", case.split("-")[1]]
    code = main(argv)
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), code) == AUDIT_DIGESTS[case]


def _swap_two_shares(game):
    """``_kernels.{game}_alloc`` with the shares of the first two members of
    every SBS coalition of two or more swapped after the install, the
    mutant of ``test_cli_audit_fails_on_swapped_shares``."""
    inner = getattr(_kernels, f"{game}_alloc")

    def swapped(costs, n, members, x, y):
        value = inner(costs, n, members, x, y)
        if n < costs.n_sbs and len(members) > 1:
            i, j = members[:2]
            if game == "hrd":
                i, j = costs.pair_off[i], costs.pair_off[j]
            else:
                y[i], y[j] = y[j], y[i]
            x[i], x[j] = x[j], x[i]
        return value

    return swapped


# The mutants of the failing ``test_cli_audit_*`` tests: (the patched
# module, name and replacement, the audited seed, the part of the record
# that fails).
_bound = allocation.dual_bound
AUDIT_MUTANTS = {
    "swapped-csd": ((_kernels, "csd_alloc", _swap_two_shares("csd")), 1,
                    lambda audit: audit.worst_gap > GAP_TOL),
    "swapped-hrd": ((_kernels, "hrd_alloc", _swap_two_shares("hrd")), 2,
                    lambda audit: audit.worst_gap > GAP_TOL),
    "bound-above-delay": ((allocation, "dual_bound",
                           lambda *args: 10.0 * _bound(*args)), 0,
                          lambda audit: audit.worst_gap > GAP_TOL),
    "remaining-moves": ((association, "stabilize_partition",
                         lambda state, game, sums: None), 3,
                        lambda audit: len(audit.stability) > 0),
}


def _mutate(monkeypatch, mutant):
    """Apply the patch of ``AUDIT_MUTANTS[mutant]``; returns the rest of its
    entry, the audited seed and the part of the record that fails."""
    patch, *rest = AUDIT_MUTANTS[mutant]
    monkeypatch.setattr(*patch)
    return rest


@pytest.mark.parametrize("mutant", sorted(AUDIT_MUTANTS))
def test_audit_record_counts_the_printed_failures(mutant, monkeypatch,
                                                  capsys):
    seed, failing = _mutate(monkeypatch, mutant)
    argv = ["audit", "--seed", str(seed)]
    assert main(argv) == 2
    printed = capsys.readouterr().out.rsplit("audit: ", 1)[1]
    scenario, demand = _scenario_from_args(build_parser().parse_args(argv))
    init = association.abcg_init(scenario, demand)
    audit = audit_solve(init, run_amnd(scenario, demand, init_state=init))
    assert printed == f"{audit.failures} failure(s)\n"
    assert audit.failures > 0 and failing(audit)


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
    "d11c8af40b2962da57da027ba7cd917a15e05642b8842c21f109c24509539cb3"


def test_sweep_csv_matches_recorded_digest(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--seeds", "1", "--audit", "-o", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_SEED1_SHA256
