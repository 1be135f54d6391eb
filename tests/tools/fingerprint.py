"""One fingerprint of a solve: a record of its outputs, with one SHA-256,
and a command line that prints the fingerprints of a workload's solves.

    python tests/tools/fingerprint.py --workload {desk,multi,sweep,large} \\
        --seeds A-B

A solve's outputs are ``fields(state)``, one ordered record of named
fields; ``digest(state)`` is the SHA-256 of its ``repr``:

* ``proposals`` and ``accepted_moves``, the solve's counts;
* ``objective``, ``repr(F)``, and ``trace``, the reprs of the objective
  after each stage;
* ``move_log``, the rows of ``GameState.move_log``;
* ``phases``, each row of ``GameState.phases`` cut to ``(game, phase,
  proposals, accepts)``;
* ``hrd_sbs`` and ``csd_sbs``, the bytes of both partitions;
* ``v_hrd`` and ``v_csd``, the bytes of the cached coalition values;
* ``alpha``, ``gamma``, ``beta`` and ``eta``, the bytes of the fractions;
* ``rng_csd`` and ``rng_hrd``, both game generators' states;
* ``fallback_hrds``.

A phase row's ``blocks``, ``rows`` and ``exact`` are left out: they count
the work that valued the moves, not what the game decided, and they vary
with ``association.SWEEP_CHUNK`` and with any change to how moves are
valued, where every output above stays the same.

The command line solves each seed of ``--seeds`` (inclusive) with the
``mecsim`` that ``PYTHONPATH`` gives, so one copy of this file compares
any two trees: run it under each tree's ``src`` and ``diff`` the outputs.
Workloads: ``desk`` and ``multi`` (``WORKLOADS``), ``large`` (the
benchmark's large instance) and ``sweep`` (every point of the default
``mecsim sweep`` grid at the seed).  It prints one line per solve (``line``)
and then ``all`` and the SHA-256 of those lines (``total``).  A line holds
the solve's key (the seed; on sweep also the grid point), ``repr(F_ABCG)``,
``repr(F)``, proposals, accepted moves and one SHA-256 over the ABCG
state's ``digest``, the final state's, the rows and gaps of
``association.audit_solve`` and, on sweep, the bytes of the seed's sweep
CSV (``mecsim sweep --audit``).

``instance`` and ``demand_for`` build the seeded instances that the tests
solve too.  pytest does not collect this file.
"""

import argparse
import hashlib
import re
import sys
import tempfile
from pathlib import Path

from mecsim.association import abcg_init, audit_solve, run_amnd
from mecsim.content import Catalog, build_demand, demand_rng
from mecsim.experiments import ExperimentConfig, emit_csv, run_sweep
from mecsim.scenario import Counts, SystemParams, generate_scenario

DESK_STORAGE = 28e6   # partial caches: 5 of 20 files plus offload headroom

# The keywords of ``instance`` of each workload but sweep: the
# criterion-2 desk, the desk with two requests per HRD among 100 files,
# and the benchmark's large instance.
WORKLOADS = {
    "desk": {},
    "multi": {"n_files": 100, "requests_per_hrd": 2},
    "large": {"n_hrd": 80, "n_csd": 160, "n_mbs": 3, "m_sbs": 10,
              "n_files": 1000, "requests_per_hrd": 2},
}


def demand_for(scenario, *, delta=0.6, n_files=20, file_size=5e6,
               storage=DESK_STORAGE, policy="sampled", seed=None, **kw):
    catalog = Catalog.build(n_files, delta, file_size)
    seed = scenario.params.seed if seed is None else seed
    return build_demand(catalog, scenario.n_sbs, scenario.n_hrd,
                        scenario.n_csd, demand_rng(seed, delta),
                        storage_bytes=storage, cache_policy=policy, **kw)


def instance(seed, n_hrd=20, n_csd=20, **kw):
    """``(scenario, demand)`` of ``n_hrd`` HRDs and ``n_csd`` CSDs at
    ``seed``: the ``SystemParams`` fields of ``kw`` set the deployment, and
    the others go to ``demand_for``."""
    params = {k: kw.pop(k) for k in list(kw)
              if k in SystemParams.__dataclass_fields__}
    scn = generate_scenario(SystemParams(seed=seed, **params),
                            Counts(n_hrd=n_hrd, n_csd=n_csd))
    return scn, demand_for(scn, **kw)


def solve(scn, demand):
    """(ABCG state, AMND state) of the instance."""
    init = abcg_init(scn, demand)
    return init, run_amnd(scn, demand, init_state=init)


def fields(state, omit=()) -> dict:
    """The record of ``state``'s outputs (see the module docstring), less
    the fields that ``omit`` names; each must be one of them."""
    part, alloc = state.partition, state.allocation
    record = {
        "proposals": state.proposals,
        "accepted_moves": state.accepted_moves,
        "objective": repr(state.objective),
        "trace": [repr(v) for v in state.trace],
        "move_log": list(state.move_log),
        "phases": [(game, phase, proposals, accepts) for
                   game, phase, proposals, accepts, *_work in state.phases],
        **{name: getattr(part, name).tobytes()
           for name in ("hrd_sbs", "csd_sbs")},
        "v_hrd": state.v_hrd.tobytes(),
        "v_csd": state.v_csd.tobytes(),
        **{name: getattr(alloc, name).tobytes()
           for name in ("alpha", "gamma", "beta", "eta")},
        "rng_csd": state.rng_csd.bit_generator.state,
        "rng_hrd": state.rng_hrd.bit_generator.state,
        "fallback_hrds": state.fallback_hrds,
    }
    for name in omit:
        del record[name]
    return record


def digest(state) -> str:
    """The SHA-256 of ``fields(state)``."""
    return hashlib.sha256(repr(fields(state)).encode()).hexdigest()


def line(key, init, final, csv=b"") -> str:
    """The printed line of the solve from ``init`` to ``final``."""
    audit = audit_solve(init, final)
    rows = repr((digest(init), digest(final), audit.constraints,
                 audit.stability)).encode()
    sha = hashlib.sha256(rows + audit.gaps.tobytes() + csv).hexdigest()
    return (f"{key} {init.objective!r} {final.objective!r} "
            f"{final.proposals} {final.accepted_moves} {sha}")


def total(lines) -> str:
    """The last printed line: the SHA-256 of the solves' lines."""
    return "all " + hashlib.sha256("\n".join(lines).encode()).hexdigest()


def sweep_lines(seed):
    """The lines of the default sweep's solves at ``seed``, one per grid
    point, each over the CSV of the whole sweep at ``seed``."""
    config = ExperimentConfig(seeds=(seed,))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        emit_csv(run_sweep(config, audit=True), path)
        csv = path.read_bytes()
    base = config.scenario(seed)
    for a in config.grid:
        for delta in config.deltas:
            yield line(f"{seed}:a={a}:delta={delta}", *solve(
                base.with_params(a=a),
                config.demand(base.n_sbs, seed, delta)), csv)


def workload_lines(workload, seed):
    if workload == "sweep":
        return sweep_lines(seed)
    return [line(seed, *solve(*instance(seed, **WORKLOADS[workload])))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "sweep"])
    parser.add_argument("--seeds", required=True, metavar="A-B",
                        help="the seeds A to B, both included")
    args = parser.parse_args(argv)
    found = re.fullmatch(r"(\d+)-(\d+)", args.seeds)
    if not found:
        parser.error(f"--seeds takes A-B, not {args.seeds!r}")
    lines = []
    for seed in range(int(found.group(1)), int(found.group(2)) + 1):
        for text in workload_lines(args.workload, seed):
            print(text, flush=True)
            lines.append(text)
    print(total(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
