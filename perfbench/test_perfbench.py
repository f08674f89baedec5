"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from cvdag import learner, sem  # noqa: E402
from tracing import Span, self_times  # noqa: E402
from workloads import Calls, Workload, make_inputs, run_job  # noqa: E402

TINY = {
    "sim": Workload("tiny-sim", "sim", (5,), (40, 60), reps=2),
    "large": Workload("tiny-large", "large", (6,), (60,), reps=1),
    "oracle": Workload("tiny-oracle", "oracle", (4, 6), (0,), reps=2),
}


def _benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)


def _raise(*args, **kwargs):
    raise RuntimeError("stand-in stage failed")


def test_failed_call_is_counted_and_the_job_goes_on(monkeypatch):
    monkeypatch.setattr(sem, "check_identifiability", _raise)
    inp = make_inputs(TINY["sim"], seed=3)[0]
    out = run_job("sim", inp, Calls(0))
    assert out.calls.errors == [("sem.check_identifiability", "RuntimeError")]
    assert out.failed
    # nothing downstream needs the report, so learning and scoring still ran
    assert out.result is not None and out.hd is not None and out.hd_mec is not None
    assert out.calls.attempted == 9
    # the learned graph is scored as it is; the failure shows in failed_frac
    acc = harness.accuracy_metrics([out], with_mec=True)
    assert acc["hd_mean"] == out.hd
    assert acc["hd_mec_mean"] == out.hd_mec
    assert acc["failed_frac"] == 1 / 9


def test_stages_that_need_a_failed_output_are_skipped(monkeypatch):
    monkeypatch.setattr(sem, "sample", _raise)
    inp = make_inputs(TINY["sim"], seed=3)[0]
    out = run_job("sim", inp, Calls(0))
    assert out.result is None and out.hd is None and out.hd_mec is None
    # random_sem, check_identifiability, sample, dag_to_cpdag of the true DAG
    assert out.calls.attempted == 4
    assert len(out.calls.errors) == 1
    # no graph: the worst case on both distances
    acc = harness.accuracy_metrics([out], with_mec=True)
    p = inp.p
    assert acc["hd_mean"] == len(out.true_dag.edges) + p * (p - 1) // 2
    assert acc["hd_mec_mean"] == p * (p - 1) // 2
    assert acc["exact_frac"] == 0.0


def _strict_json(line: str) -> dict:
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("trace", [False, True])
def test_failed_run_reports_failures_without_crashing(monkeypatch, capsys, trace):
    monkeypatch.setattr(learner, "learn_from_covariance", _raise)
    monkeypatch.setitem(harness.WORKLOADS, "tiny-oracle", TINY["oracle"])
    assert harness.main("tiny-oracle", seed=1, seconds=0.01, trace=trace) == 0
    # every job failed, so medians are infinite; the last line is still strict JSON
    res = _strict_json(capsys.readouterr().out.splitlines()[-1])
    assert res["correct"]
    assert res["failed"] >= len(make_inputs(TINY["oracle"], seed=1))
    values = {k: m["value"] for k, m in res["metrics"].items()}
    if trace:
        assert values["trace.overhead_frac"] == "nan"
    else:
        assert values["ok_call_frac"] < 1.0
        assert values["inexact_frac"] == 1.0
        assert values["job_s_p50"] == "inf"


def test_call_counts_depend_on_the_seed_not_the_run_length(monkeypatch):
    monkeypatch.setattr(learner, "learn_from_covariance", _raise)
    short = harness.run_workload(TINY["oracle"], seed=1, seconds=0.01, trace=False)
    long = harness.run_workload(TINY["oracle"], seed=1, seconds=0.5, trace=False)
    assert long["extra"]["jobs"] > short["extra"]["jobs"]
    assert (long["attempted"], long["failed"]) == (short["attempted"], short["failed"])
    assert long["failed"] == len(make_inputs(TINY["oracle"], seed=1))


def test_same_seed_same_inputs():
    w = TINY["large"]
    one, two = make_inputs(w, 5), make_inputs(w, 5)
    assert workloads.inputs_digest(one) == workloads.inputs_digest(two)
    assert workloads.inputs_digest(one) != workloads.inputs_digest(make_inputs(w, 6))


def test_result_that_changes_between_repeats_fails_the_run(monkeypatch):
    real = learner.learn
    calls = []

    def unsteady(data, cfg=None):
        result = real(data, cfg)
        calls.append(1)
        if len(calls) % 2 == 0 or not result.dag.edges:
            return result
        # drop one edge: still consistent with the ordering, but not repeatable
        dag = result.dag.__class__(result.dag.p, frozenset(sorted(result.dag.edges)[1:]))
        return dataclasses.replace(result, dag=dag)

    monkeypatch.setattr(learner, "learn", unsteady)
    res = harness.run_workload(TINY["sim"], seed=2, seconds=0.01, trace=False)
    assert not res["correct"]
    assert any("differs from an earlier run" in p for p in res["problems"])


def test_timings_are_scaled_by_the_reference(monkeypatch):
    # a CPU on which the reference takes twice REF_S runs at half speed
    monkeypatch.setattr(speed, "reference_seconds", lambda: 2 * speed.REF_S)
    res = harness.run_workload(TINY["oracle"], seed=4, seconds=0.01, trace=False)
    wall = res["extra"]["job_s_p50_wall"]
    assert res["metrics"]["job_s_p50"]["value"] == pytest.approx(wall / 2)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "job", None, 1, 0.0, 10.0),
        Span(1, "a", 0, 1, 1.0, 4.0),
        Span(2, "b", 0, 1, 3.0, 6.0),  # overlaps a
        Span(3, "c", 1, 1, 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(kind, trace):
    spec = _benchmark_json()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    res = harness.run_workload(TINY[kind], seed=7, seconds=0.01, trace=trace)
    assert res["correct"], res["problems"]
    assert res["attempted"] >= 1
    assert {k: m["unit"] for k, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_traced_run_writes_spans_with_parent_links(tmp_path):
    res = harness.run_workload(TINY["sim"], seed=7, seconds=0.01, trace=True)
    spans = [json.loads(line) for line in (tmp_path / "spans-tiny-sim-seed7.jsonl").open()]
    by_id = {s["span_id"]: s for s in spans}
    calls = [s for s in spans if s["name"] != "job"]
    assert {s["name"] for s in calls} >= {"sem.random_sem", "learner.estimate_ordering",
                                          "learner.estimate_parents", "bench.emit_report"}
    for s in calls:
        if s["job"] is not None:
            parent = by_id[s["parent"]]
            assert parent["name"] == "job" and parent["job"] == s["job"]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    assert res["metrics"]["trace.stage_share"]["value"] > 0.5


def test_benchmark_json_names_the_workloads():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
