"""Set-up, timed loop, output checks and metrics of one benchmark run.

A run executes one workload in this process, one job at a time (a closed loop
with one client). Set-up time is the median of several imports of numpy and
cvdag in a fresh interpreter, plus the median of several rounds of making the
inputs from the seed and running one warm-up job. The timed phase then runs
the inputs in order, over and over, until ``seconds`` have passed and at
least one whole pass is done. Accuracy metrics and the counts of attempted
and failed calls come from the first pass, so they depend only on the seed;
timings come from every job, summarised per input (see Phase). Every timing is
in reference seconds (see speed.py); the ``extra`` line also gives the raw
wall-time median.

A traced run runs each job twice in a row, untraced and then traced with
``learner.learn`` split into its two stages, and reports per-module metrics of
the first traced pass.

Failure rules, so that fixing a crash can never read as a regression: a job
with any failed call is a failed job and counts as +inf seconds. A job that
yields no scored graph scores the worst directed Hamming distance
|E_true| + p(p-1)/2 and the worst CPDAG distance p(p-1)/2, and is not exact.
A failed call that no later stage needs (an identifiability check) leaves the
learned graph to be scored as it is, so that the accuracy metrics measure
graphs, while the failure still shows in the time and in ``ok_call_frac``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cvdag
from cvdag import bench, graphs, learner
from speed import Speed
from tracing import Tracer, self_times
from workloads import (BOTH, WORKLOADS, Calls, Outcome, Workload, inputs_digest, make_inputs,
                       run_job)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
IMPORT_PROBES = 7
# set-up rounds: at least SETUP_MIN_ROUNDS, and more while they fit in
# SETUP_BUDGET_S, so that a cheap set-up is sampled often enough for a steady median
SETUP_MIN_ROUNDS = 3
SETUP_MAX_ROUNDS = 15
SETUP_BUDGET_S = 1.5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, cvdag; "
                "print(time.perf_counter() - t)")
P90_MIN_JOBS = 100  # p90 needs at least ten samples beyond it

E2E_UNITS = {
    "job_s_p50": "s",
    "ok_jobs_per_s": "1/s",
    "hd_mean": "edges",
    "inexact_frac": "fraction",
    "ok_call_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-module metrics of the traced run: <module>.<function>.<field>
LAYER_FIELDS = {
    "learner.estimate_parents": ("calls", "busy_s", "failed", "tests"),
    "learner.estimate_ordering": ("calls", "busy_s", "failed"),
    "learner.learn_from_covariance": ("calls", "busy_s", "failed"),
    "numerics.sample_covariance": ("busy_s",),
    "sem.check_identifiability": ("calls", "busy_s", "failed", "margins"),
    "sem.population_covariance": ("calls", "busy_s"),
    "sem.random_sem": ("calls", "busy_s"),
    "sem.sample": ("calls", "busy_s"),
    "graphs.dag_to_cpdag": ("calls", "busy_s", "edges"),
    "graphs.hamming_dag": ("busy_s",),
    "graphs.hamming_cpdag": ("busy_s",),
    "datasets.parse_dataset": ("calls", "busy_s", "bytes"),
    "bench.emit_report": ("busy_s", "bytes"),
}
FIELD_UNITS = {"calls": "count", "busy_s": "s", "failed": "count", "tests": "count",
               "margins": "count", "edges": "count", "bytes": "B"}
LAYER_UNITS = {f"{call}.{f}": FIELD_UNITS[f] for call, fs in LAYER_FIELDS.items() for f in fs}
LAYER_UNITS.update({
    "learner.ordering_consistent_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.stage_share": "fraction",
})


@dataclass
class Phase:
    """Jobs of one mode (untraced or traced) in the timed phase.

    Times are kept per input and summarised by each input's median, so that
    every input of the mix weighs the same however far the last pass got.
    Call counts come from the first pass, so that they depend only on the seed:
    the output checks make every later pass repeat its outcomes exactly.
    """

    ref: dict[int, list[float]] = field(default_factory=dict)  # reference seconds
    wall: dict[int, list[float]] = field(default_factory=dict)  # wall seconds
    failed_inputs: set[int] = field(default_factory=set)
    first_pass: list[Outcome] = field(default_factory=list)
    jobs: int = 0

    def add(self, out: Outcome, first: bool) -> None:
        i = out.inp.index
        self.ref.setdefault(i, []).append(out.seconds * out.scale)
        self.wall.setdefault(i, []).append(out.seconds)
        if out.failed:
            self.failed_inputs.add(i)
        self.jobs += 1
        if first:
            self.first_pass.append(out)

    def job_seconds(self, wall: bool = False) -> list[float]:
        """Per input, its median time, or +inf when it failed."""
        times = self.wall if wall else self.ref
        return [math.inf if i in self.failed_inputs else statistics.median(ts)
                for i, ts in times.items()]

    def ok_jobs_per_s(self) -> float:
        """Completed jobs per reference second of one pass over the mix, failed
        jobs' time included."""
        busy = sum(statistics.median(ts) for ts in self.ref.values())
        return (len(self.ref) - len(self.failed_inputs)) / busy

    @property
    def attempted(self) -> int:
        return sum(o.calls.attempted for o in self.first_pass)

    @property
    def failed(self) -> int:
        return sum(len(o.calls.errors) for o in self.first_pass)


class Checker:
    """Output checks; every problem found fails the run."""

    def __init__(self):
        self.expected: dict[int, str] = {}
        self.problems: list[str] = []

    def check(self, out: Outcome) -> None:
        where = f"job {out.inp.index}"
        r = out.result
        if r is not None and not graphs.is_consistent(r.ordering, r.dag):
            self.problems.append(f"{where}: learned DAG is not consistent with its ordering")
        if r is not None and out.sample_based and not learner.ordering_is_greedy_minimal(r):
            self.problems.append(f"{where}: ordering is not greedy-minimal")
        digest = out.digest
        if self.expected.setdefault(out.inp.index, digest) != digest:
            self.problems.append(f"{where}: result differs from an earlier run of the same input")


def _timed(kind: str, inp, calls: Calls, speed: Speed, split: bool = False) -> Outcome:
    start = time.perf_counter()
    out = run_job(kind, inp, calls, split)
    out.seconds = time.perf_counter() - start
    out.scale = speed.scale()
    return out


def _hd_score(o: Outcome) -> int:
    if o.hd is not None:
        return o.hd
    p = o.inp.p
    true_edges = p * (p - 1) // 2 if o.true_dag is None else len(o.true_dag.edges)
    return true_edges + p * (p - 1) // 2


def _mec_score(o: Outcome) -> int:
    return o.hd_mec if o.hd_mec is not None else o.inp.p * (o.inp.p - 1) // 2


def _exact(o: Outcome) -> bool:
    return o.hd is not None and o.result.dag.edges == o.true_dag.edges


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _experiment_report(w: Workload, seed: int, protocol: str, outs: list[Outcome]):
    cfg = bench.ExperimentConfig(protocol=protocol, p=w.ps[0], n_grid=w.ns,
                                 replications=w.reps, seed=seed)
    cells = []
    for o in outs:
        if o.inp.protocol != protocol:
            continue
        cells.append(bench.Cell(
            o.inp.n, o.inp.rep,
            math.nan if o.hd is None else float(o.hd),
            math.nan if o.hd_mec is None else float(o.hd_mec),
            o.seconds, bool(o.identifiable), failed=o.failed,
            error="; ".join(f"{c}: {k}" for c, k in o.calls.errors)))
    return bench.ExperimentReport(cfg, tuple(cells), bench.aggregate(cfg, cells))


def _emit_reports(w: Workload, seed: int, outs: list[Outcome], tracer: Tracer) -> Calls:
    """``bench.emit_report`` once per protocol, into a temporary directory."""
    calls = Calls(None, tracer)
    OUT.mkdir(exist_ok=True)
    for protocol in BOTH:
        report = _experiment_report(w, seed, protocol, outs)
        tmp = tempfile.mkdtemp(dir=OUT)
        try:
            written = calls("bench.emit_report", bench.emit_report, report, tmp)
            calls.counts["bench.emit_report.bytes"] += sum(p.stat().st_size for p in written or ())
        finally:
            shutil.rmtree(tmp)
    return calls


def accuracy_metrics(outs: list[Outcome], with_mec: bool) -> dict[str, float]:
    """Seeded metrics of one pass over the inputs."""
    attempted = sum(o.calls.attempted for o in outs)
    failed = sum(len(o.calls.errors) for o in outs)
    exact = sum(_exact(o) for o in outs) / len(outs)
    out = {
        "hd_mean": statistics.fmean(_hd_score(o) for o in outs),
        "exact_frac": exact,
        "inexact_frac": 1.0 - exact,
        "failed_frac": failed / attempted,
        "ok_call_frac": 1.0 - failed / attempted,
    }
    if with_mec:
        out["hd_mec_mean"] = statistics.fmean(_mec_score(o) for o in outs)
    return out


def layer_metrics(traced: Phase, plain: Phase, tracer: Tracer, report: Calls | None,
                  report_scale: float | None):
    """Per-module metrics of the first traced pass, from its spans and counts."""
    calls = [o.calls for o in traced.first_pass] + ([report] if report else [])
    scale = {o.calls.job: o.scale for o in traced.first_pass}
    if report:
        scale[report.job] = report_scale
    spans = [s for s in tracer.spans if s.job in scale]
    own = self_times(spans)
    busy: dict[str, float] = {}
    n_calls: dict[str, int] = {}
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + own[s.span_id] * scale[s.job]
        n_calls[s.name] = n_calls.get(s.name, 0) + 1
    metrics: dict[str, float] = {}
    for call, fields in LAYER_FIELDS.items():
        for f in fields:
            name = f"{call}.{f}"
            if f == "calls":
                metrics[name] = n_calls.get(call, 0)
            elif f == "busy_s":
                metrics[name] = busy.get(call, 0.0)
            elif f == "failed":
                metrics[name] = sum(e[0] == call for c in calls for e in c.errors)
            else:
                metrics[name] = sum(c.counts[name] for c in calls)
    outs = traced.first_pass
    metrics["learner.ordering_consistent_frac"] = sum(
        o.result is not None and graphs.is_consistent(o.result.ordering, o.true_dag)
        for o in outs) / len(outs)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced.job_seconds()) / statistics.median(plain.job_seconds()) - 1.0)
    job_time = sum(s.seconds for s in spans if s.name == "job")
    stage_time = sum(own[s.span_id] for s in spans if s.name != "job" and s.parent is not None)
    metrics["trace.stage_share"] = stage_time / job_time
    return metrics


def _json_value(v: float) -> float | str:
    """``v``, or "inf", "-inf" or "nan" for a non-finite value, which JSON cannot hold."""
    return v if math.isfinite(v) else str(v)


def _import_seconds() -> float:
    """Time to import numpy and cvdag in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(cvdag.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result object plus extra lines to print."""
    checker = Checker()
    speed = Speed()
    import_times = []
    for _ in range(IMPORT_PROBES):
        wall = _import_seconds()
        import_times.append(wall * speed.scale())
    setup_times, digests = [], []
    inputs = warm = None
    while len(setup_times) < SETUP_MIN_ROUNDS or (
            len(setup_times) < SETUP_MAX_ROUNDS and sum(setup_times) < SETUP_BUDGET_S):
        # drop the last round's inputs first, so that peak_rss_mb holds one copy of them
        inputs = warm = None
        start = time.perf_counter()
        inputs = make_inputs(w, seed)
        made = (time.perf_counter() - start) * speed.scale()
        start = time.perf_counter()
        warm = run_job(w.kind, inputs[0], Calls(None))
        setup_times.append(made + (time.perf_counter() - start) * speed.scale())
        digests.append(inputs_digest(inputs))
        checker.check(warm)
    if len(set(digests)) != 1:
        checker.problems.append("set-up made different inputs from the same seed")

    plain, traced = Phase(), Phase()
    tracer = Tracer() if trace else None
    job_id = 0
    i = 0
    start = time.perf_counter()
    while i < len(inputs) or time.perf_counter() - start < seconds:
        inp = inputs[i % len(inputs)]
        first = i < len(inputs)
        out = _timed(w.kind, inp, Calls(job_id), speed)
        job_id += 1
        checker.check(out)
        plain.add(out, first)
        if trace:
            out = _timed(w.kind, inp, Calls(job_id, tracer), speed, split=True)
            job_id += 1
            checker.check(out)
            traced.add(out, first)
        i += 1

    acc = accuracy_metrics(plain.first_pass, with_mec=w.kind == "sim")
    job_seconds = plain.job_seconds()
    extra = {"jobs": plain.jobs, "passes": i / len(inputs),
             "exact_frac": acc["exact_frac"], "failed_frac": acc["failed_frac"],
             "setup_import_s": statistics.median(import_times),
             "setup_round_s": statistics.median(setup_times), "setup_rounds": len(setup_times),
             "job_s_p50_wall": _json_value(statistics.median(plain.job_seconds(wall=True))),
             "reference_s": statistics.median(speed.refs)}
    if "hd_mec_mean" in acc:
        extra["hd_mec_mean"] = acc["hd_mec_mean"]
    if len(job_seconds) >= P90_MIN_JOBS:
        extra["job_s_p90"] = _json_value(_nearest_rank(job_seconds, 0.9))
        extra["job_s_p90_samples"] = len(job_seconds)
    extra["errors_first_pass"] = dict(Counter(
        f"{call}:{kind}" for o in plain.first_pass for call, kind in o.calls.errors))

    if trace:
        report = report_scale = None
        if w.kind == "sim":
            speed.scale()  # a reference run right before the reports
            report = _emit_reports(w, seed, traced.first_pass, tracer)
            report_scale = speed.scale()
        metrics = layer_metrics(traced, plain, tracer, report, report_scale)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{w.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        extra["spans"] = os.path.relpath(spans_path, ROOT)
        extra["job_s_p50_untraced"] = _json_value(statistics.median(job_seconds))
        extra["job_s_p50_traced"] = _json_value(statistics.median(traced.job_seconds()))
        units = LAYER_UNITS
        attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
    else:
        metrics = {
            "job_s_p50": statistics.median(job_seconds),
            "ok_jobs_per_s": plain.ok_jobs_per_s(),
            "hd_mean": acc["hd_mean"],
            "inexact_frac": acc["inexact_frac"],
            "ok_call_frac": acc["ok_call_frac"],
            "setup_s": extra["setup_import_s"] + extra["setup_round_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        attempted, failed = plain.attempted, plain.failed
    return {
        "correct": not checker.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": _json_value(v), "unit": units[k]} for k, v in metrics.items()},
        "extra": extra,
        "problems": checker.problems,
    }


# --- environment block --------------------------------------------------------


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = Path(cvdag.__file__).parent
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> tuple[str, int | None]:
    """Name of numpy's BLAS and the thread count the loaded library reports."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def environment(workload: str, seed: int) -> dict:
    blas, threads = _blas()
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    print("env " + json.dumps(environment(workload, seed)))
    res = run_workload(WORKLOADS[workload], seed, seconds, trace)
    for name, m in res["metrics"].items():
        v = m["value"]
        print(f"{name:40s} {v if isinstance(v, str) else format(v, '.6g')} {m['unit']}")
    print("extra " + json.dumps(res["extra"], allow_nan=False))
    for problem in res["problems"][:20]:
        print("CHECK FAILED " + problem)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")},
                     allow_nan=False))
    return 0 if res["correct"] else 1
