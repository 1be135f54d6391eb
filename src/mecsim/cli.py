"""Command-line surface: gen, run, sweep, audit, trend.

Exit codes: 0 success, 1 usage error, 2 infeasible/diverged (audit or trend
failures), 3 I/O error, 141 (as after SIGPIPE) when the reader of standard
output closes it early.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .allocation import oracle_solve_p3
from .association import abcg_init, audit_stability, run_amnd, write_move_log
from .delays import audit_constraints
from .experiments import (ExperimentConfig, _row_from_state,
                          config_with_overrides, emit_csv, emit_rate_csv,
                          load_config, load_csv, run_sweep, trend_check)
from .scenario import load_scenario, save_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # A flag prefix is an error, not a silent match of a longer flag.
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Scenario flags in help order: (flag, ExperimentConfig field, help).  Each
# default is the field's default; --delta takes the first of ``deltas``.
_SCENARIO_FLAGS = (
    ("--n-mbs", "n_mbs", None),
    ("--m-sbs", "m_sbs", "SBS count per macrocell"),
    ("--hrd", "n_hrd", None),
    ("--csd", "n_csd", None),
    ("--a", "a", "access share of the band"),
    ("--t1-frac", "t1_frac", "uplink share of the coherence block"),
    ("--isd", "isd_m", None),
    ("--w-hz", "w_hz", None),
    ("--files", "n_files", None),
    ("--file-size", "file_size_bytes", "file size in bytes"),
    ("--delta", "deltas", "popularity exponent"),
    ("--requests-per-hrd", "requests_per_hrd", None),
    ("--storage", "storage_bytes", "per-SBS cache storage in bytes"),
    ("--cache-policy", "cache_policy", None),
    ("--task-bytes", "task_input_bytes", None),
    ("--task-cycles", "task_cycles", None),
    ("--local-cps", "local_cps", None),
    ("--edge-cps", "edge_cps", None),
)
_BASE = ExperimentConfig()


def _add_scenario_args(p):
    p.add_argument("--seed", type=int, default=0)
    for flag, field, help_text in _SCENARIO_FLAGS:
        default = getattr(_BASE, field)
        if field == "deltas":
            default = default[0]
        kwargs = {"help": help_text}
        if field == "cache_policy":
            kwargs["choices"] = ["popular_first", "sampled"]
        p.add_argument(flag, type=type(default), default=default, **kwargs)


def _add_game_args(p):
    p.add_argument("--t2", type=int, default=0,
                   help="game proposals per run (0 = default)")
    p.add_argument("--patience", type=int, default=0,
                   help="consecutive rejections before early stop (0 = default)")
    p.add_argument("--no-stabilize", action="store_true",
                   help="skip the deterministic stabilization sweep")


def _game_budget(args):
    """``(t2, patience)`` of ``--t2`` and ``--patience``, with 0 as None,
    the built-in default; a negative budget is a usage error."""
    budget = []
    for name in ("t2", "patience"):
        value = getattr(args, name)
        if value < 0:
            raise ValueError(f"--{name} must be at least 0 (0 = default)")
        budget.append(value or None)
    return budget


def _scenario_from_args(args):
    """The scenario and demand that ``mecsim sweep`` builds for these flags."""
    config = replace(_BASE, **{field: getattr(args, flag[2:].replace("-", "_"))
                               for flag, field, _ in _SCENARIO_FLAGS
                               if field != "deltas"})
    scenario = config.scenario(args.seed)
    return scenario, config.demand(scenario.n_sbs, args.seed, args.delta)


def _load_or_build(args):
    if getattr(args, "scenario", None):
        scenario, demand = load_scenario(args.scenario)
        if demand is None:
            raise ValueError(f"{args.scenario} holds no demand block")
        return scenario, demand
    return _scenario_from_args(args)


def _print_report(tag, state):
    rep = state.report()
    print(f"[{tag}] F = {rep.objective:.6f} s")
    print(f"  hrd_total_s     = {rep.hrd_total_s:.6f}")
    print(f"  hrd_backhaul_s  = {rep.hrd_backhaul_s:.6f}")
    print(f"  csd_total_s     = {rep.csd_total_s:.6f}")
    print(f"  csd_local_s     = {rep.csd_local_s:.6f}")
    print(f"  csd_offload_s   = {rep.csd_offload_s:.6f}")
    print(f"  local/edge CSDs = {rep.n_local_csd}/{rep.n_edge_csd}")
    print(f"  backhauled files = {rep.n_backhauled_files} "
          f"(hits: {rep.n_cached_hits})")
    print(f"  accepted moves  = {state.accepted_moves}")
    if state.fallback_hrds:
        print(f"  fallback HRDs   = {state.fallback_hrds}")


def _cmd_gen(args):
    scenario, demand = _scenario_from_args(args)
    save_scenario(args.output, scenario, demand)
    print(f"wrote {args.output}: {scenario.n_sbs} SBS, "
          f"{scenario.n_hrd} HRD, {scenario.n_csd} CSD")
    return EXIT_OK


def _cmd_run(args):
    t2, patience = _game_budget(args)
    scenario, demand = _load_or_build(args)
    if args.algorithm == "abcg":
        state = abcg_init(scenario, demand, log_moves=bool(args.move_log))
    else:
        state = run_amnd(scenario, demand, t2=t2, patience=patience,
                         stabilize=not args.no_stabilize,
                         log_moves=bool(args.move_log))
        print("objective trace:",
              " ".join(f"{v:.6f}" for v in state.trace))
    _print_report(args.algorithm.upper(), state)
    if args.move_log:
        write_move_log(state, args.move_log)
        print(f"move log written to {args.move_log}")
    if args.rates_csv:
        emit_rate_csv(scenario, state.table, args.rates_csv)
        print(f"rate table written to {args.rates_csv}")
    if args.row_csv:
        cfg = ExperimentConfig(axis="a", grid=(scenario.params.a,))
        row = _row_from_state(cfg, scenario.params.a, demand.catalog.delta,
                              scenario.params.seed, args.algorithm.upper(),
                              state, 0.0)
        emit_csv([row], args.row_csv)
        print(f"report row written to {args.row_csv}")
    return EXIT_OK


def _cmd_sweep(args):
    config = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects FIELD=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    for key in ("axis", "grid", "deltas", "seeds", "algorithms", "output"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    config = config_with_overrides(config, overrides)
    rows = run_sweep(config, audit=args.audit, timing=args.timing)
    emit_csv(rows, config.output)
    print(f"wrote {len(rows)} rows to {config.output}")
    return EXIT_OK


def _cmd_trend(args):
    rows = load_csv(args.csv)
    result = trend_check(rows, args.metric, args.shape,
                         algorithm=args.algorithm, delta=args.delta)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}: {args.metric} vs axis is {args.shape} ({result.detail})")
    series = " ".join(f"{v:.6g}" for v in result.series)
    print(f"  seed-averaged series: {series}")
    return EXIT_OK if result.passed else EXIT_INFEASIBLE


def _cmd_audit(args):
    t2, patience = _game_budget(args)
    scenario, demand = _load_or_build(args)
    failures = 0

    state0 = abcg_init(scenario, demand)
    final = run_amnd(scenario, demand, t2=t2, patience=patience,
                     stabilize=not args.no_stabilize, init_state=state0)
    for tag, state in (("init", state0), ("final", final)):
        bad = audit_constraints(scenario, demand, state.partition,
                                state.allocation, state.table)
        print(f"constraints at {tag} state: {len(bad)} violation(s)")
        failures += len(bad)
        for line in bad[:5]:
            print(f"  {line}")

    steps = np.diff(np.array(final.trace))
    worst = float(steps.max()) if steps.size else 0.0
    mono = worst <= 1e-12
    print(f"objective trace nonincreasing: {'yes' if mono else 'no'} "
          f"(worst step {worst:.3e})")
    failures += 0 if mono else 1

    moves = audit_stability(final)
    print(f"stability audit: {len(moves)} improving move(s) remain")
    failures += len(moves)

    # Closed-form vs numerical optimum on every nonempty final coalition; a
    # coalition the oracle finds infeasible is a failure.
    costs = final.costs
    worst_gap = 0.0
    checked = infeasible = 0
    for n in range(final.n_sbs):
        for game, members in (("hrd", final.hrd_members[n]),
                              ("csd", final.csd_members[n])):
            if not members:
                continue
            checked += 1
            sol = oracle_solve_p3(costs, n, members, game)
            if not sol["feasible"]:
                infeasible += 1
                continue
            cache = final.v_hrd[n] if game == "hrd" else final.v_csd[n]
            gap = (cache - sol["objective"]) / max(1e-12, sol["objective"])
            worst_gap = max(worst_gap, gap)
    print(f"allocation vs oracle on {checked} coalition(s): "
          f"worst relative gap {worst_gap:.3e}, {infeasible} infeasible")
    failures += infeasible
    if worst_gap > 1e-6:
        failures += 1

    print("audit:", "CLEAN" if failures == 0 else f"{failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_INFEASIBLE


def build_parser() -> _Parser:
    parser = _Parser(prog="mecsim",
                     description="Small-cell edge computing/caching simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="generate a scenario file")
    _add_scenario_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run one algorithm and print its report")
    p.add_argument("--algorithm", choices=["abcg", "amnd"], default="amnd")
    p.add_argument("--scenario", help="scenario file from `gen`")
    _add_scenario_args(p)
    _add_game_args(p)
    p.add_argument("--move-log", help="write accepted/rejected moves as CSV")
    p.add_argument("--rates-csv", help="dump share factors and link rates")
    p.add_argument("--row-csv", help="write the delay report as one CSV row")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a seeded sweep and emit CSV")
    p.add_argument("--config", help="config file (mecsim-config v1)")
    p.add_argument("--axis", choices=["a", "t1_frac", "delta"], default=None)
    p.add_argument("--grid", default=None, help="space/comma separated values")
    p.add_argument("--deltas", default=None)
    p.add_argument("--seeds", default=None)
    p.add_argument("--algorithms", default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--set", action="append", default=[], metavar="FIELD=VALUE",
                   help="override any config field (repeatable)")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock runtimes (breaks byte determinism)")
    p.add_argument("--audit", action="store_true",
                   help="verify constraints at every emitted state")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("audit", help="constraint, stability and oracle audit")
    p.add_argument("--scenario", help="scenario file from `gen`")
    _add_scenario_args(p)
    _add_game_args(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("trend", help="shape-check a sweep CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--metric", required=True,
                   help="e.g. hrd_total_s, csd_local_s, F")
    p.add_argument("--shape", choices=["u", "nonincreasing", "nondecreasing"],
                   required=True)
    p.add_argument("--algorithm", choices=["ABCG", "AMND"], default="AMND")
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=_cmd_trend)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # ``mecsim run | head`` closed stdout: not an I/O error.  Point
        # stdout at devnull, so the flush at exit finds no broken pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except OSError as exc:
        print(f"mecsim: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"mecsim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"mecsim: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
