"""Command-line surface: gen, run, sweep, audit, trend.

Exit codes: 0 success, 1 usage error, 2 infeasible/diverged (audit or trend
failures), 3 I/O error, 141 (as after SIGPIPE) when the reader of standard
output closes it early.
"""

import argparse
import os
import re
import sys
from dataclasses import replace

from .association import abcg_init, audit_solve, run_amnd, write_move_log
from .experiments import (ExperimentConfig, _row_from_state,
                          config_with_overrides, emit_csv, emit_rate_csv,
                          load_config, load_csv, run_sweep, trend_check)
from .scenario import load_scenario, save_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_PIPE = 141


# What a number that ``float()`` reads can start with after its sign.
# argparse reads a word that starts with ``-`` as a value only where its
# negative-number pattern matches, and its own takes ``-5`` and ``-.5`` but
# not ``-inf``, ``-nan``, ``-1e-5`` or ``-1.``.
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # A flag prefix is an error, not a silent match of a longer flag.
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        # ``--a -inf`` reaches the domain check, as ``--a=-inf`` does.
        self._negative_number_matcher = _NEGATIVE_NUMBER

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


def _scenario_from_args(args):
    """The scenario and demand that ``mecsim sweep`` builds for these flags."""
    config = replace(_BASE, **{field: getattr(args, flag[2:].replace("-", "_"))
                               for flag, field, _ in _SCENARIO_FLAGS
                               if field != "deltas"})
    scenario = config.scenario(args.seed)
    return scenario, config.demand(scenario.n_sbs, args.seed, args.delta)


def _load_or_build(args):
    if getattr(args, "scenario", None):
        return load_scenario(args.scenario)
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
    for game, phase, proposals, accepts, blocks, rows, exact in state.phases:
        print(f"  {game} {phase:9} proposals {proposals}, accepts {accepts}, "
              f"blocks {blocks}, rows {rows}, exact {exact}")
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
    if args.algorithm == "abcg":
        state = abcg_init(scenario, demand)
    else:
        state = run_amnd(scenario, demand)
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
        row = _row_from_state("a", scenario.params.a, demand.catalog.delta,
                              scenario.params.seed, args.algorithm.upper(),
                              state)
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
    rows = run_sweep(config, audit=args.audit)
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
    init = abcg_init(scenario, demand)
    audit = audit_solve(init, run_amnd(scenario, demand, init_state=init))
    for tag, bad in zip(("init", "final"), audit.constraints):
        print(f"constraints at {tag} state: {len(bad)} violation(s)")
        for line in bad[:5]:
            print(f"  {line}")
    print(f"objective trace nonincreasing: "
          f"{'yes' if audit.monotone else 'no'} "
          f"(worst step {audit.worst_step:.3e})")
    print(f"stability audit: {len(audit.stability)} improving move(s) remain")
    print(f"allocation vs dual bound on {audit.gaps.size} coalition(s): "
          f"worst relative gap {audit.worst_gap:.3e}, "
          f"{audit.infeasible} infeasible")
    failures = audit.failures
    print("audit:", "CLEAN" if failures == 0 else f"{failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_INFEASIBLE


_COMMANDS = ("gen", "run", "sweep", "audit", "trend")


def build_parser(command: str | None = None) -> _Parser:
    """The ``mecsim`` parser with every command, or with ``command`` alone,
    which parses that command's argv the same way at a fraction of the
    cost; ``main`` builds only the command its argv names."""
    parser = _Parser(prog="mecsim",
                     description="Small-cell edge computing/caching simulator")
    # With one command built, the usage line still names all five.
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        "{" + ",".join(_COMMANDS) + "}" if command else None))

    def add(name, func, help_text):
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(func=func)
            return p

    if p := add("gen", _cmd_gen, "generate a scenario file"):
        _add_scenario_args(p)
        p.add_argument("-o", "--output", required=True)
    if p := add("run", _cmd_run, "run one algorithm and print its report"):
        p.add_argument("--algorithm", choices=["abcg", "amnd"], default="amnd")
        p.add_argument("--scenario", help="scenario file from `gen`")
        _add_scenario_args(p)
        p.add_argument("--move-log",
                       help="write the accepted moves as CSV")
        p.add_argument("--rates-csv", help="dump share factors and link rates")
        p.add_argument("--row-csv",
                       help="write the delay report as one CSV row")
    if p := add("sweep", _cmd_sweep, "run a seeded sweep and emit CSV"):
        p.add_argument("--config", help="config file (mecsim-config v1)")
        p.add_argument("--axis", choices=["a", "t1_frac", "delta"],
                       default=None)
        p.add_argument("--grid", default=None,
                       help="space/comma separated values")
        p.add_argument("--deltas", default=None)
        p.add_argument("--seeds", default=None)
        p.add_argument("--algorithms", default=None)
        p.add_argument("-o", "--output", default=None)
        p.add_argument("--set", action="append", default=[],
                       metavar="FIELD=VALUE",
                       help="override any config field (repeatable)")
        p.add_argument("--audit", action="store_true",
                       help="verify constraints at every emitted state")
    if p := add("audit", _cmd_audit,
                "constraint, stability and weak-duality optimality audit"):
        p.add_argument("--scenario", help="scenario file from `gen`")
        _add_scenario_args(p)
    if p := add("trend", _cmd_trend, "shape-check a sweep CSV"):
        p.add_argument("--csv", required=True)
        p.add_argument("--metric", required=True,
                       help="e.g. hrd_total_s, csd_local_s, F")
        p.add_argument("--shape",
                       choices=["u", "nonincreasing", "nondecreasing"],
                       required=True)
        p.add_argument("--algorithm", choices=["ABCG", "AMND"], default="AMND")
        p.add_argument("--delta", type=float, default=None)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
