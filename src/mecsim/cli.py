"""Command-line surface: gen, run, sweep, audit, trend.

Exit codes: 0 success, 1 usage error, 2 infeasible/diverged (audit or trend
failures), 3 I/O error.
"""

import argparse
import sys

import numpy as np

from .allocation import oracle_solve_p3
from .association import abcg_init, audit_stability, run_amnd, write_move_log
from .content import Catalog, build_demand, demand_rng
from .delays import audit_constraints
from .experiments import (ExperimentConfig, _row_from_state,
                          config_with_overrides, emit_csv, emit_rate_csv,
                          load_config, load_csv, run_sweep, trend_check)
from .scenario import Counts, SystemParams, generate_scenario, load_scenario, \
    save_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # A flag prefix is an error, not a silent match of a longer flag.
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_scenario_args(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-mbs", type=int, default=3)
    p.add_argument("--m-sbs", type=int, default=5,
                   help="SBS count per macrocell")
    p.add_argument("--hrd", type=int, default=20)
    p.add_argument("--csd", type=int, default=40)
    p.add_argument("--a", type=float, default=0.5,
                   help="access share of the band")
    p.add_argument("--t1-frac", type=float, default=0.5,
                   help="uplink share of the coherence block")
    p.add_argument("--isd", type=float, default=1000.0)
    p.add_argument("--w-hz", type=float, default=20e6)
    p.add_argument("--files", type=int, default=20)
    p.add_argument("--file-size", type=float, default=5e6,
                   help="file size in bytes")
    p.add_argument("--delta", type=float, default=0.6,
                   help="popularity exponent")
    p.add_argument("--requests-per-hrd", type=int, default=1)
    p.add_argument("--storage", type=float, default=28e6,
                   help="per-SBS cache storage in bytes")
    p.add_argument("--cache-policy", choices=["popular_first", "sampled"],
                   default="sampled")
    p.add_argument("--task-bytes", type=float, default=1e5)
    p.add_argument("--task-cycles", type=float, default=1e9)
    p.add_argument("--local-cps", type=float, default=1.4e9)
    p.add_argument("--edge-cps", type=float, default=6e10)


def _add_game_args(p):
    p.add_argument("--t2", type=int, default=0,
                   help="game proposals per run (0 = default)")
    p.add_argument("--patience", type=int, default=0,
                   help="consecutive rejections before early stop (0 = default)")
    p.add_argument("--no-stabilize", action="store_true",
                   help="skip the deterministic stabilization sweep")
    p.add_argument("--local-rule",
                   choices=["offload_if_faster", "local_if_slower_and_fits"],
                   default="offload_if_faster")


def _scenario_from_args(args):
    params = SystemParams(w_hz=args.w_hz, a=args.a, t1_frac=args.t1_frac,
                          m_sbs=args.m_sbs, n_mbs=args.n_mbs, isd_m=args.isd,
                          seed=args.seed)
    scenario = generate_scenario(params, Counts(n_hrd=args.hrd, n_csd=args.csd))
    catalog = Catalog.build(args.files, args.delta, args.file_size)
    demand = build_demand(catalog, scenario.n_sbs, args.hrd, args.csd,
                          demand_rng(args.seed, args.delta),
                          requests_per_hrd=args.requests_per_hrd,
                          task_input_bytes=args.task_bytes,
                          task_cycles=args.task_cycles,
                          local_cps=args.local_cps,
                          edge_cps=args.edge_cps,
                          storage_bytes=args.storage,
                          cache_policy=args.cache_policy)
    return scenario, demand


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
    scenario, demand = _load_or_build(args)
    t2 = args.t2 if args.t2 > 0 else None
    patience = args.patience if args.patience > 0 else None
    if args.algorithm == "abcg":
        state = abcg_init(scenario, demand, local_rule=args.local_rule,
                          log_moves=bool(args.move_log))
    else:
        state = run_amnd(scenario, demand, t2=t2, patience=patience,
                         stabilize=not args.no_stabilize,
                         local_rule=args.local_rule,
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
    scenario, demand = _load_or_build(args)
    t2 = args.t2 if args.t2 > 0 else None
    patience = args.patience if args.patience > 0 else None
    failures = 0

    state0 = abcg_init(scenario, demand, local_rule=args.local_rule)
    bad = audit_constraints(scenario, demand, state0.partition,
                            state0.allocation, state0.table)
    print(f"constraints at init state: {len(bad)} violation(s)")
    failures += len(bad)
    for line in bad[:5]:
        print(f"  {line}")

    final = run_amnd(scenario, demand, t2=t2, patience=patience,
                     stabilize=not args.no_stabilize,
                     local_rule=args.local_rule, init_state=state0)
    bad = audit_constraints(scenario, demand, final.partition,
                            final.allocation, final.table)
    print(f"constraints at final state: {len(bad)} violation(s)")
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

    # Closed-form vs numerical optimum on every nonempty final coalition.
    costs = final.costs
    worst_gap = 0.0
    checked = 0
    for n in range(final.n_sbs):
        for game, members in (("hrd", final.hrd_members[n]),
                              ("csd", final.csd_members[n])):
            if not members:
                continue
            sol = oracle_solve_p3(costs, n, members, game)
            if not sol["feasible"]:
                continue
            cache = final.v_hrd[n] if game == "hrd" else final.v_csd[n]
            gap = (cache - sol["objective"]) / max(1e-12, sol["objective"])
            worst_gap = max(worst_gap, gap)
            checked += 1
    print(f"allocation vs oracle on {checked} coalition(s): "
          f"worst relative gap {worst_gap:.3e}")
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
        return args.func(args)
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
