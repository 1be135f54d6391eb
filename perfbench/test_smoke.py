"""Smoke test of the benchmark on tiny configurations.

    python3 -m pytest perfbench/test_smoke.py -q

Every metric named in BENCHMARK.json must come out of a run of every
workload, the output checks must run, and they must catch broken outputs.
"""

import dataclasses
import json
import os

import pytest

import run

run.import_mecsim()

import workloads  # noqa: E402  (needs the checkout's mecsim on sys.path)

TINY = dict(n_hrd=4, n_csd=4, n_mbs=1, m_sbs=2, n_files=5, delta=0.6,
            requests_per_hrd=1, storage_bytes=28e6)
TINY_CFG = {
    "desk": TINY,
    "large": dict(TINY, requests_per_hrd=2),
    "sweep": {"set": ["n_hrd=4", "n_csd=4", "n_mbs=1", "m_sbs=2",
                      "n_files=5"]},
}

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture(autouse=True)
def _one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def tiny(name):
    # Tiny ops take milliseconds: 8 per second of --seconds.
    return dataclasses.replace(workloads.WORKLOADS[name], cfg=TINY_CFG[name],
                               ops_per_s=8.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_measured(name, trace):
    record = run.run(tiny(name), seed=3, seconds=1.0, trace=trace)
    assert record["correct"], record["failures"]
    assert record["attempted"] == 8
    assert record["repeat_checked"]
    got = record["layers"] if trace else record["e2e"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        assert metric["name"] in got, metric["name"]
        assert got[metric["name"]]["unit"] == metric["unit"]
    if trace:
        layers = [k for k in got if k.endswith(".self_s")]
        covered = sum(got[k]["value"] for k in layers)
        assert covered + got["trace.uncovered_s"]["value"] == pytest.approx(
            got["trace.op_s_mean"]["value"])


def test_workloads_in_spec_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_checks_catch_broken_outputs():
    res = workloads.desk_op(TINY, 3, 0, None)
    hard, soft, _ = workloads.check_op(res, workloads.Timers())
    assert hard == [] and soft == []

    res.f_abcg = res.state.objective * 0.5
    hard, _, _ = workloads.check_op(res, workloads.Timers())
    assert any("F_AMND" in h for h in hard)

    res = workloads.desk_op(TINY, 3, 0, None)
    res.state.trace.append(res.state.trace[-1] + 1.0)
    res.state.allocation.alpha[:] = 2.0
    hard, soft, _ = workloads.check_op(res, workloads.Timers())
    assert any("trace rises" in s for s in soft)
    assert any("constraint violation" in h for h in hard)


def test_main_prints_the_result_last(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "desk", tiny("desk"))
    assert run.main(["--workload", "desk", "--seed", "1", "--seconds", "0.2",
                     "--trace", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
