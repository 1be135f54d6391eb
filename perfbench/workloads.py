"""The benchmark's workloads: one op each, and the checks on an op's outputs.

Every op solves one AMND instance (ABCG initializer, then the coalition
game) on the scenario seed it is given; a run passes consecutive seeds.
A run holds a fixed number of ops, ``Workload.n_ops(seconds)``, so that the
seeds it covers, and with them its counts and failing ops, depend only on
``--seed`` and ``--seconds``, never on how fast the machine ran.

* ``desk``  - the criterion-2 dominance batch: generate -> demand ->
  ``abcg_init`` -> ``run_amnd`` at 20 HRD, 20 CSD, 3 MBS x 5 SBS, 20 files.
* ``sweep`` - ``mecsim sweep --audit`` through ``mecsim.cli.main`` with the
  default config, on one (a, delta) point of its 9 x 3 grid per op, so a
  run of 25 s holds 27 ops, one per grid point, where a whole-grid sweep
  per op would give one.  A run crosses the regimes of the full sweep
  (backhaul floors binding at high a, more cache hits at high delta).
* ``large`` - the steps ``mecsim audit`` runs, at 80 HRD (2 requests
  each), 160 CSD, 3 MBS x 10 SBS and 1000 files: generate -> ABCG -> AMND ->
  ``audit_constraints`` -> ``audit_stability`` -> ``oracle_solve_p3``.

Checks on every op (``check_op``), with the thresholds of ``mecsim audit``:
F_AMND <= F_ABCG + 1e-9, a nonincreasing objective trace, F equal to the
delay model's objective, no constraint violation, no improving move left,
and an allocation within 1e-6 of the numerical oracle on every nonempty
coalition.  See ``check_op`` for which failures make a run incorrect and
which only fail the op.
"""

import contextlib
import io
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Library functions are called through their modules, so that the traced
# run's wrappers (module attributes) see every call.
from mecsim import (allocation, association, cli, content, delays,
                    experiments, scenario)

DOMINANCE_TOL = 1e-9
TRACE_TOL = 1e-12
ORACLE_GAP_TOL = 1e-6
OBJECTIVE_RTOL = 1e-9
SWEEP_STRIDE = 10


@dataclass
class OpResult:
    """What one op hands to the checks."""

    f_abcg: float
    state: object                 # final AMND GameState
    audits: dict | None = None    # large: audits already run inside the op
    csv: bytes | None = None      # sweep: the emitted CSV

    @property
    def gain_pct(self) -> float:
        return (self.f_abcg - self.state.objective) / self.f_abcg * 100.0

    def fingerprint(self) -> tuple:
        """Outputs that must repeat exactly when the op is rerun."""
        st = self.state
        return (repr(self.f_abcg), repr(st.objective),
                tuple(repr(v) for v in st.trace), st.proposals,
                st.accepted_moves, st.partition.hrd_sbs.tobytes(),
                st.partition.csd_sbs.tobytes(), self.csv)


@dataclass
class Workload:
    name: str
    op: Callable            # (cfg, seed, index, workdir) -> OpResult
    cfg: dict
    # Ops per second of --seconds: about the untraced op rate measured on a
    # 2-core x86-64 host (numpy kernel path), so a run takes about --seconds.
    ops_per_s: float

    def n_ops(self, seconds: float) -> int:
        return max(1, round(seconds * self.ops_per_s))


def _generate(cfg, seed):
    scn = scenario.generate_scenario(
        scenario.SystemParams(seed=seed, n_mbs=cfg["n_mbs"], m_sbs=cfg["m_sbs"]),
        scenario.Counts(n_hrd=cfg["n_hrd"], n_csd=cfg["n_csd"]))
    demand = content.build_demand(
        content.Catalog.build(cfg["n_files"], cfg["delta"]),
        scn.n_sbs, cfg["n_hrd"], cfg["n_csd"],
        content.demand_rng(seed, cfg["delta"]),
        requests_per_hrd=cfg["requests_per_hrd"],
        storage_bytes=cfg["storage_bytes"], cache_policy="sampled")
    return scn, demand


def desk_op(cfg, seed, index, workdir) -> OpResult:
    scn, demand = _generate(cfg, seed)
    init = association.abcg_init(scn, demand)
    f_abcg = init.objective
    return OpResult(f_abcg, association.run_amnd(scn, demand, init_state=init))


def large_op(cfg, seed, index, workdir) -> OpResult:
    res = desk_op(cfg, seed, index, workdir)
    res.audits = run_audits(res.state)
    return res


def sweep_point(index):
    """(a, delta) of op ``index`` on the default 9 x 3 grid.  A stride
    coprime to the grid size visits every point once per 27 ops and spreads
    any shorter run evenly over a and delta."""
    base = experiments.ExperimentConfig()
    points = [(a, d) for a in base.grid for d in base.deltas]
    return points[(index * SWEEP_STRIDE) % len(points)]


def sweep_op(cfg, seed, index, workdir) -> OpResult:
    a, delta = sweep_point(index)
    path = os.path.join(workdir, f"sweep-{index}.csv")
    argv = ["sweep", "--seeds", str(seed), "--grid", repr(a),
            "--deltas", repr(delta), "--audit", "-o", path]
    for item in cfg.get("set", ()):
        argv += ["--set", item]
    # run_amnd is looked up in experiments at call time; keep what it returns.
    states = []
    inner = experiments.run_amnd

    def keep(*args, **kwargs):
        state = inner(*args, **kwargs)
        states.append((kwargs["init_state"].objective, state))
        return state

    experiments.run_amnd = keep
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        experiments.run_amnd = inner
    if code != 0:
        raise RuntimeError(f"mecsim sweep exited with code {code}")
    with open(path, "rb") as fh:
        csv = fh.read()
    os.remove(path)
    if len(states) != 1:
        raise RuntimeError(f"expected one AMND solve, saw {len(states)}")
    f_abcg, state = states[0]
    return OpResult(f_abcg, state, csv=csv)


DESK = dict(n_hrd=20, n_csd=20, n_mbs=3, m_sbs=5, n_files=20, delta=0.6,
            requests_per_hrd=1, storage_bytes=28e6)
LARGE = dict(n_hrd=80, n_csd=160, n_mbs=3, m_sbs=10, n_files=1000, delta=0.6,
             requests_per_hrd=2, storage_bytes=28e6)

WORKLOADS = {
    "desk": Workload("desk", desk_op, DESK, ops_per_s=1.4),
    # 27 ops at 25 s: one whole pass over the 9 x 3 grid per run.
    "sweep": Workload("sweep", sweep_op, {}, ops_per_s=1.08),
    "large": Workload("large", large_op, LARGE, ops_per_s=0.15),
}


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------

class Timers:
    """Wall time and calls of the library calls made by the checks."""

    def __init__(self):
        self.seconds = {}
        self.calls = {}

    @contextlib.contextmanager
    def time(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + (
                time.perf_counter() - t0)
            self.calls[name] = self.calls.get(name, 0) + 1


def run_audits(state, timers: Timers | None = None) -> dict:
    """The audits of ``mecsim audit`` on one final state."""
    timers = timers or Timers()
    with timers.time("audit_constraints"):
        constraints = delays.audit_constraints(state.scenario, state.demand,
                                               state.partition, state.allocation,
                                               state.table)
    with timers.time("audit_stability"):
        stability = association.audit_stability(state)
    worst = 0.0
    for n in range(state.n_sbs):
        for game, members, value in (
                ("hrd", state.hrd_members[n], state.v_hrd[n]),
                ("csd", state.csd_members[n], state.v_csd[n])):
            if not members:
                continue
            with timers.time("oracle_solve_p3"):
                sol = allocation.oracle_solve_p3(state.costs, n, members, game)
            if sol["feasible"]:
                gap = (value - sol["objective"]) / max(1e-12, sol["objective"])
                worst = max(worst, gap)
    return {"constraints": constraints, "stability": stability,
            "oracle_gap": worst}


def check_op(res: OpResult, timers: Timers) -> tuple[list, list, float]:
    """Returns (invalid-result reasons, audit failures, oracle gap).

    An invalid result (worse than its initializer, infeasible, or an F the
    delay model does not reproduce) makes the run incorrect.  The audits of
    ``mecsim audit`` that judge solution quality (monotone trace, Nash
    stability, oracle gap) fail the op; they do fail today on some seeds.
    """
    st = res.state
    hard, soft = [], []
    if st.objective > res.f_abcg + DOMINANCE_TOL:
        hard.append(f"F_AMND {st.objective!r} > F_ABCG {res.f_abcg!r}")
    try:
        with timers.time("objective"):
            model = st.report().objective
    except ValueError as exc:           # fractions inconsistent with the partition
        hard.append(f"delay model rejects the state: {exc}")
    else:
        if abs(model - st.objective) > OBJECTIVE_RTOL * max(1.0, model):
            hard.append(f"F {st.objective!r} disagrees with the delay model "
                        f"{model!r}")
    audits = res.audits if res.audits is not None else run_audits(st, timers)
    if audits["constraints"]:
        hard.append(f"{len(audits['constraints'])} constraint violation(s): "
                    f"{audits['constraints'][0]}")
    steps = np.diff(np.asarray(st.trace))
    if steps.size and steps.max() > TRACE_TOL:
        soft.append(f"objective trace rises by {steps.max():.3e}")
    if audits["stability"]:
        soft.append(f"{len(audits['stability'])} improving move(s) remain")
    if audits["oracle_gap"] > ORACLE_GAP_TOL:
        soft.append(f"allocation vs oracle gap {audits['oracle_gap']:.3e} "
                    f"> {ORACLE_GAP_TOL:g}")
    if res.csv is not None and res.csv.count(b"\n") != 3:
        hard.append("sweep CSV does not hold the header and two rows")
    return hard, soft, audits["oracle_gap"]
