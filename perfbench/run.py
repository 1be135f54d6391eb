#!/usr/bin/env python3
"""mecsim benchmark: one workload, one process, closed loop, one caller.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 25 --trace 0

Run from the repository root; it imports ``mecsim`` from ``src/`` of the
same checkout and refuses any other copy.  The run measures set-up in
fresh interpreters, then runs ops back to back on scenario seeds ``seed``,
``seed + 1``, ..., checking every op's outputs.  The number of ops is fixed
by the workload and ``--seconds`` (about ``--seconds`` of work on a 2-core
host), so two runs with one seed attempt the same ops and count the same
failures however fast the machine is.  Afterwards it reruns the first op
and requires identical outputs (and, traced, identical counts).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans around calls into mecsim (see ``tracing.py``).  Human
readable lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(machine facts, metrics, failing seeds) is written to ``perfbench/out/``;
``compare.py`` compares such records.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from tracing import OUTCOMES, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

SETUP_PROBES = 5        # fresh interpreters timed for setup_s
PAIR_EVERY = 4          # traced runs rerun every 4th op untraced for overhead
P90_MIN_OPS = 100       # p90 needs ten samples beyond it
PROBE_REF_S = 0.018     # speed_probe() median on the reference machine
MIB = 1024.0 * 1024.0

SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import mecsim; "
               "from mecsim import _kernels; _kernels.warmup(); "
               "print('ready', flush=True)")


def import_mecsim():
    """Import the checkout's mecsim, or exit nonzero without a result."""
    sys.path.insert(0, SRC)
    try:
        import mecsim
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mecsim from {SRC}: {exc}")
    if not os.path.abspath(mecsim.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported mecsim from {mecsim.__file__}, "
                 f"not from {SRC}")
    return mecsim


def machine_facts(mecsim) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "kernel_path": "numba" if mecsim.USING_NUMBA else "numpy",
            "platform": platform.platform()}


def measure_setup() -> list[float]:
    """Seconds from process start to a warmed-up mecsim, in fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, SRC],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            dt = time.perf_counter() - t0
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
        out.append(dt)
    return out


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work."""
    import numpy as np
    a = np.linspace(0.1, 1.0, 16 * 64).reshape(16, 64)
    idx = np.arange(0, 64, 5)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        row = a[i & 15, idx]
        acc += float(np.minimum(1.0, np.maximum(0.05, row / row.sum())).sum())
        acc += sum(j * 0.5 for j in range(12) if j != (i & 7))
    dt = time.perf_counter() - t0
    if acc <= 0.0:
        raise RuntimeError("speed probe lost its work")
    return dt


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the record (metrics, failures, facts)."""
    from workloads import Timers, check_op      # imports mecsim

    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace)}
    setup = measure_setup()
    tracer = Tracer() if trace else None
    timers = Timers()
    ops, failures, broken = [], [], []
    pairs = []                     # (traced s, untraced s) of the same seed
    first = None                   # (fingerprint, counts) of op 0
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        probe_prev = speed_probe()
        for index in range(workload.n_ops(seconds)):
            op_seed = seed + index
            if tracer:
                tracer.op = index
                tracer.patch()
            t0 = time.perf_counter()
            try:
                res = workload.op(workload.cfg, op_seed, index, workdir)
            except Exception as exc:       # an op that raises is a failed op
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.reset_stack()
                reason = f"raised {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
                failures.append({"seed": op_seed, "reasons": [reason]})
                broken.append(op_seed)
                ops.append({"seed": op_seed, "s": dt, "gain_pct": None,
                            "failed": True})
                continue
            finally:
                if tracer:
                    tracer.unpatch()
            dt = time.perf_counter() - t0
            if index == 0:              # the tracer has seen op 0 only
                first = (res.fingerprint(),
                         _nonzero(tracer.counts()) if tracer else None)
            hard = []
            if tracer and index % PAIR_EVERY == PAIR_EVERY - 1:
                t1 = time.perf_counter()
                again = workload.op(workload.cfg, op_seed, index, workdir)
                pairs.append((dt, time.perf_counter() - t1))
                if again.fingerprint() != res.fingerprint():
                    hard.append("untraced rerun gave different outputs")
            broken_, soft, gap = check_op(res, timers)
            hard += broken_
            if hard or soft:
                failures.append({"seed": op_seed, "reasons": hard + soft})
            if hard:
                broken.append(op_seed)
            probe = speed_probe()
            ops.append({"seed": op_seed, "s": dt, "gain_pct": res.gain_pct,
                        "proposals": res.state.proposals,
                        "probe_s": 0.5 * (probe_prev + probe),
                        "oracle_gap": gap, "failed": bool(hard or soft),
                        "allocation_mb": _allocation_mb(res.state)})
            probe_prev = probe
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Rerun op 0: outputs (the sweep CSV bytes included) and counts must
        # repeat exactly; any drift is nondeterminism, not noise.
        if first is not None:
            rerun_tracer = Tracer() if trace else None
            if rerun_tracer:
                rerun_tracer.patch()
            repeat = []
            try:
                again = workload.op(workload.cfg, seed, 0, workdir)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                repeat.append(f"rerun of the first seed raised {exc!r}")
            finally:
                if rerun_tracer:
                    rerun_tracer.unpatch()
            if not repeat and again.fingerprint() != first[0]:
                repeat.append("rerun of the first seed gave different outputs")
            if not repeat and rerun_tracer and (
                    _nonzero(rerun_tracer.counts()) != first[1]):
                repeat.append("rerun of the first seed gave different counts")
            if repeat:
                failures.append({"seed": seed, "reasons": repeat})
                broken.append(seed)
            record["repeat_checked"] = True

    timed = [o["s"] for o in ops]
    ok_ops = [o for o in ops if o["gain_pct"] is not None]
    n_failed = sum(1 for o in ops if o["failed"])
    record.update({
        "attempted": len(ops), "failed": n_failed,
        "correct": not broken and len(ok_ops) > 0,
        "failures": failures, "ops": ops,
    })
    # The machine's speed drifts (shared cores switch between states about
    # 1.6x apart within minutes).  Each *_ref op time is rescaled by the
    # speed probes run just before and after it, to read as seconds on a
    # machine whose probe takes PROBE_REF_S; raw wall times are reported too.
    # Set-up (imports from disk) does not track the probe, so it stays raw.
    ref = [o["s"] * PROBE_REF_S / o["probe_s"] for o in ok_ops] or timed
    e2e = {
        "setup_s": (statistics.median(setup), "s"),
        "solves_per_s_ref": (len(ok_ops) / sum(ref), "1/s"),
        "solves_per_s": (len(ok_ops) / sum(timed), "1/s"),
        "op_s_p50_ref": (statistics.median(ref), "s"),
        "op_s_p50": (statistics.median(timed), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "amnd_gain_pct": (statistics.fmean(o["gain_pct"] for o in ok_ops)
                          if ok_ops else 0.0, "%"),
    }
    record["setup_probes"] = setup
    record["e2e"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    record["op_s_p90"] = (percentile(timed, 90)
                          if len(timed) >= P90_MIN_OPS else None)
    record["failed_frac"] = n_failed / len(ops)
    if trace:
        record["layers"] = layer_metrics(tracer, timers, ops, pairs)
        record["spans"] = tracer.spans
    return record


def _nonzero(counts: dict) -> dict:
    return {k: v for k, v in counts.items() if v}


def _allocation_mb(state) -> float:
    a = state.allocation
    return (a.alpha.nbytes + a.gamma.nbytes + a.beta.nbytes + a.eta.nbytes) / MIB


def layer_metrics(tracer, timers, ops, pairs) -> dict:
    """Per-layer metrics, per op, from the spans of the traced ops."""
    n = len(ops)
    traced_s = [o["s"] for o in ops]
    incl, calls = tracer.incl_s, tracer.calls
    ph = tracer.phase_s
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def per_op_s(fn, name):
        # Calls inside the op (traced) plus those made by its checks.
        t = incl.get(fn, 0.0) + timers.seconds.get(fn, 0.0)
        put(name, t / n, "s")

    per_op_s("generate_scenario", "scenario.generate_s")
    per_op_s("build_demand", "content.build_demand_s")
    per_op_s("build_rate_table", "radio.build_rate_table_s")
    per_op_s("build_costs", "allocation.build_costs_s")
    put("association.abcg_init_s", tracer.self_s.get("abcg_init", 0.0) / n, "s")
    put("association.reallocate_s", incl.get("reallocate", 0.0) / n, "s")
    random_s = 0.0
    for game in ("csd", "hrd"):
        r = ph[f"{game}.game"] - ph[f"{game}.stabilize"]
        random_s += r
        put(f"association.{game}_random_s", r / n, "s")
        put(f"association.{game}_stabilize_s", ph[f"{game}.stabilize"] / n, "s")
    moves = tracer.moves
    proposals = {p: sum(v for (g, ph_, o), v in moves.items() if ph_ == p)
                 for p in ("random", "stabilize")}
    put("association.proposals_random", proposals["random"] / n, "count")
    put("association.proposals_stabilize", proposals["stabilize"] / n, "count")
    put("association.us_per_proposal",
        random_s / max(1, proposals["random"]) * 1e6, "us")
    put("association.late_iter_s", ph["late_iter"] / n, "s")
    put("association.late_iter_accepted", tracer.late_accepted / n, "count")
    for game in ("hrd", "csd"):
        for phase in ("random", "stabilize"):
            tot = sum(moves[(game, phase, o)] for o in OUTCOMES)
            for o in OUTCOMES:
                put(f"association.{game}_{phase}.{o}",
                    moves[(game, phase, o)] / n, "count")
            put(f"association.{game}_{phase}.accept_ratio",
                moves[(game, phase, "accepted")] / max(1, tot), "ratio")
    per_op_s("audit_stability", "association.audit_stability_s")
    for k in ("hrd_value", "csd_value"):
        put(f"kernels.{k}_calls", calls.get(k, 0) / n, "count")
        put(f"kernels.{k}_us", incl.get(k, 0.0) / max(1, calls.get(k, 0)) * 1e6,
            "us")
    put("kernels.alloc_calls",
        (calls.get("hrd_alloc", 0) + calls.get("csd_alloc", 0)) / n, "count")
    per_op_s("oracle_solve_p3", "allocation.oracle_s")
    put("allocation.oracle_calls", (calls.get("oracle_solve_p3", 0)
                                    + timers.calls.get("oracle_solve_p3", 0)) / n,
        "count")
    put("allocation.oracle_gap_max",
        max((o.get("oracle_gap", 0.0) for o in ops), default=0.0), "ratio")
    put("delays.allocation_mb",
        statistics.fmean(o.get("allocation_mb", 0.0) for o in ops), "MiB")
    per_op_s("objective", "delays.objective_s")
    per_op_s("audit_constraints", "delays.audit_constraints_s")
    per_op_s("run_sweep", "experiments.run_sweep_s")
    per_op_s("emit_csv", "experiments.emit_csv_s")

    # Accounting: self times by layer plus the uncovered rest make the op.
    by_layer = tracer.layer_self_s()
    covered = 0.0
    for layer in ("scenario", "content", "radio", "allocation", "kernels",
                  "association", "delays", "experiments", "cli"):
        covered += by_layer.get(layer, 0.0)
        put(f"{layer}.self_s", by_layer.get(layer, 0.0) / n, "s")
    put("trace.uncovered_s", (sum(traced_s) - covered) / n, "s")
    put("trace.op_s_mean", statistics.fmean(traced_s), "s")
    put("trace.op_s_p50", statistics.median(traced_s), "s")
    if pairs:                   # overhead from the same seeds, traced vs not
        put("trace.op_s_p50_untraced", statistics.median(p[1] for p in pairs), "s")
        put("trace.overhead_pct", (sum(p[0] for p in pairs)
                                   / sum(p[1] for p in pairs) - 1.0) * 100.0, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mecsim = import_mecsim()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    facts = machine_facts(mecsim)
    print("facts: " + " ".join(f"{k}={v}" for k, v in facts.items()))

    record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    record["facts"] = facts
    for f in record["failures"]:
        print(f"failed op: seed {f['seed']}: {'; '.join(f['reasons'])}")
    print(f"{args.workload}: {record['attempted']} ops from seed {args.seed}, "
          f"{record['failed']} failed, correct={record['correct']}")
    for name, mv in record["e2e"].items():
        print(f"  {name} = {mv['value']:.6g} {mv['unit']}")
    p90 = record["op_s_p90"]
    print(f"  op_s_p90 = " + (f"{p90:.6g} s" if p90 is not None else
                              f"absent ({record['attempted']} ops < {P90_MIN_OPS})"))
    print(f"  failed_frac = {record['failed_frac']:.6g} "
          f"({record['failed']}/{record['attempted']})")
    if args.trace:
        for name, mv in record["layers"].items():
            print(f"  {name} = {mv['value']:.6g} {mv['unit']}")
        wanted = [mt["name"] for mt in spec["per_layer"]]
        source = record["layers"]
    else:
        wanted = [mt["name"] for mt in spec["end_to_end"]]
        source = record["e2e"]

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = record.pop("spans", None)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    missing = [w for w in wanted if w not in source]
    if missing:
        sys.exit(f"perfbench: metrics not measured: {missing}")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {w: source[w] for w in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
