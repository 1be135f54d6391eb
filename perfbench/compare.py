#!/usr/bin/env python3
"""Compare run records of two commits, workload by workload.

    python3 perfbench/compare.py --base parent/*.json --change change/*.json

Each record is a ``perfbench/out/<workload>-seed<n>-trace<t>.json`` written
by ``run.py``.  For every metric the table gives each side's median and its
quartile spread (as a share of the median), and the change of the medians.
Runs whose kernel path differs are never compared: the numba and numpy
paths differ several-fold per coalition evaluation.
"""

import argparse
import json
import statistics
import sys


def load(paths):
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, change = load(args.base), load(args.change)

    paths = {r["facts"]["kernel_path"] for r in base + change}
    if len(paths) != 1:
        print(f"refusing to compare runs on different kernel paths: "
              f"{sorted(paths)}", file=sys.stderr)
        return 2
    for key in ("nproc", "python", "numpy", "scipy"):
        seen = {str(r["facts"][key]) for r in base + change}
        if len(seen) > 1:
            print(f"warning: runs differ in {key}: {sorted(seen)}",
                  file=sys.stderr)

    groups = sorted({(r["workload"], r["trace"]) for r in base + change})
    print(f"kernel path: {paths.pop()}")
    print(f"{'workload':8} {'metric':42} {'base':>11} {'spread':>7} "
          f"{'change':>11} {'spread':>7} {'delta':>8}")
    for workload, trace in groups:
        field = "layers" if trace else "e2e"
        sides = [[r for r in side if (r["workload"], r["trace"]) == (workload, trace)]
                 for side in (base, change)]
        if not all(sides):
            continue
        names = dict.fromkeys(k for r in sides[0] + sides[1] for k in r[field])
        for name in names:
            vals = [[r[field][name]["value"] for r in side if name in r[field]]
                    for side in sides]
            if not all(vals):
                continue
            mb, mc = statistics.median(vals[0]), statistics.median(vals[1])
            delta = (mc - mb) / mb * 100.0 if mb else float("nan")
            print(f"{workload:8} {name:42} {mb:11.5g} {spread(vals[0]):7.3f} "
                  f"{mc:11.5g} {spread(vals[1]):7.3f} {delta:+7.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
