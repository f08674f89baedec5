"""Workloads of the cvdag benchmark: seeded inputs, and one job per input.

A job calls the package's public functions through :class:`Calls`, which
counts every call, records each exception by type and, in a traced run, opens
a span around the call. After a failed call the job goes on with every stage
whose inputs still exist.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from cvdag import datasets, graphs, learner, numerics, sem
from tracing import Span, Tracer

BOTH = ("homogeneous", "heterogeneous")


@dataclass(frozen=True)
class Workload:
    """A fixed input mix: every (rep, p, protocol, n) combination, rep-major.
    Every workload runs both protocols.

    ``kind`` names the job pipeline: "sim" generates and samples a model in
    the job, "large" learns from CSV text made in set-up, "oracle" learns
    from the exact covariance of a model made in set-up.
    """

    name: str
    kind: str
    ps: tuple[int, ...]
    ns: tuple[int, ...]
    reps: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-default", "sim", (10,), (100, 400, 700, 1000), reps=125),
        Workload("learn-large", "large", (80,), (2000,), reps=6),
        Workload("oracle", "oracle", (20, 40, 60), (0,), reps=60),
    )
}


def child_seed(seed: int, *key: int) -> int:
    # the benchmark derives its own seeds, so a change to the package's seed
    # helpers cannot change the benchmark's inputs
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True, eq=False)
class JobInput:
    index: int
    rep: int
    p: int
    protocol: str
    n: int
    model_seed: int
    data_seed: int
    model: sem.GaussianSem | None = None  # made in set-up: "large", "oracle"
    text: str | None = None  # CSV text made in set-up: "large"


def make_inputs(w: Workload, seed: int) -> list[JobInput]:
    """The workload's inputs; the same seed gives the same inputs."""
    inputs = []
    for rep in range(w.reps):
        for p in w.ps:
            for k, protocol in enumerate(BOTH):
                model_seed = child_seed(seed, rep, p, k)
                model = sem.random_sem(p, protocol, model_seed) if w.kind != "sim" else None
                for n in w.ns:
                    data_seed = child_seed(seed, rep, p, k, n)
                    text = None
                    if w.kind == "large":
                        text = datasets.format_dataset(sem.sample(model, n, data_seed))
                    inputs.append(JobInput(len(inputs), rep, p, protocol, n,
                                           model_seed, data_seed, model, text))
    return inputs


def inputs_digest(inputs: list[JobInput]) -> str:
    h = hashlib.sha256()
    for inp in inputs:
        h.update(repr((inp.p, inp.protocol, inp.n, inp.model_seed, inp.data_seed)).encode())
        if inp.model is not None:
            h.update(inp.model.B.tobytes() + inp.model.sigma2.tobytes())
        if inp.text is not None:
            h.update(inp.text.encode())
    return h.hexdigest()


class Calls:
    """The module calls of one job (or of one report when ``job`` is None)."""

    def __init__(self, job: int | None, tracer: Tracer | None = None):
        self.job = job
        self.tracer = tracer
        self.attempted = 0
        self.errors: list[tuple[str, str]] = []  # (call, exception type)
        self.counts: Counter[str] = Counter()
        self.root: Span | None = None
        if tracer is not None and job is not None:
            self.root = tracer.open("job", None, job)

    def __call__(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, or None when it raises."""
        self.attempted += 1
        span = None
        if self.tracer is not None:
            parent = self.root.span_id if self.root is not None else None
            span = self.tracer.open(name, parent, self.job)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed call is an outcome to count, not a crash
            self.errors.append((name, type(exc).__name__))
            return None
        finally:
            if span is not None:
                Tracer.close(span)

    def close(self) -> None:
        if self.root is not None:
            Tracer.close(self.root)


@dataclass
class Outcome:
    """What one job produced; ``result`` is None when no graph was learned."""

    inp: JobInput
    true_dag: graphs.Dag | None
    result: learner.LearnResult | None
    sample_based: bool
    calls: Calls
    identifiable: bool | None = None
    hd: int | None = None
    hd_mec: int | None = None
    seconds: float = math.nan  # wall time of the job, set by the caller that timed it
    scale: float = math.nan  # reference seconds per wall second, set likewise

    @property
    def failed(self) -> bool:
        return bool(self.calls.errors)

    @property
    def digest(self) -> str:
        r = self.result
        # exception types without call names: a traced run splits learner.learn
        key = (None if r is None else (tuple(r.ordering), sorted(r.dag.edges)),
               [kind for _, kind in self.calls.errors])
        return hashlib.sha256(repr(key).encode()).hexdigest()


def _learn(calls: Calls, data, split: bool):
    """``learner.learn``, or its two stages when ``split`` (the traced run)."""
    if data is None:
        return None
    calls("numerics.sample_covariance", numerics.sample_covariance, data)
    if not split:
        result = calls("learner.learn", learner.learn, data)
    else:
        stage1 = calls("learner.estimate_ordering", learner.estimate_ordering, data)
        stage2 = None
        if stage1 is not None:
            stage2 = calls("learner.estimate_parents", learner.estimate_parents, data, stage1[0])
        result = None
        if stage2 is not None:
            result = learner.LearnResult(stage1[0], stage2[0], stage1[1], stage2[1])
    if result is not None:
        calls.counts["learner.estimate_parents.tests"] += len(result.test_log)
    return result


def _identifiability(calls: Calls, model, **kwargs):
    report = calls("sem.check_identifiability", sem.check_identifiability, model, **kwargs)
    if report is not None:
        calls.counts["sem.check_identifiability.margins"] += len(report.margins)
    return report


def _cpdag(calls: Calls, dag):
    calls.counts["graphs.dag_to_cpdag.edges"] += len(dag.edges)
    return calls("graphs.dag_to_cpdag", graphs.dag_to_cpdag, dag)


def _sim_job(inp: JobInput, calls: Calls, split: bool) -> Outcome:
    model = calls("sem.random_sem", sem.random_sem, inp.p, inp.protocol, inp.model_seed)
    report = data = None
    if model is not None:
        report = _identifiability(calls, model)
        data = calls("sem.sample", sem.sample, model, inp.n, inp.data_seed)
    result = _learn(calls, data, split)
    out = Outcome(inp, None if model is None else model.dag, result, True, calls,
                  None if report is None else report.satisfied)
    if result is not None:
        out.hd = calls("graphs.hamming_dag", graphs.hamming_dag, model.dag, result.dag)
    cp_true = None if model is None else _cpdag(calls, model.dag)
    cp_est = None if result is None else _cpdag(calls, result.dag)
    if cp_true is not None and cp_est is not None:
        out.hd_mec = calls("graphs.hamming_cpdag", graphs.hamming_cpdag, cp_true, cp_est)
    return out


def _large_job(inp: JobInput, calls: Calls, split: bool) -> Outcome:
    calls.counts["datasets.parse_dataset.bytes"] += len(inp.text)
    data = calls("datasets.parse_dataset", datasets.parse_dataset, inp.text)
    result = _learn(calls, data, split)
    out = Outcome(inp, inp.model.dag, result, True, calls)
    if result is not None:
        out.hd = calls("graphs.hamming_dag", graphs.hamming_dag, inp.model.dag, result.dag)
    return out


def _oracle_job(inp: JobInput, calls: Calls, split: bool) -> Outcome:
    del split  # the oracle learner has no stages to split
    model = inp.model
    cov = calls("sem.population_covariance", sem.population_covariance, model)
    report = _identifiability(calls, model)
    _identifiability(calls, model, scope="later")
    result = None
    if cov is not None:
        result = calls("learner.learn_from_covariance", learner.learn_from_covariance, cov)
    out = Outcome(inp, model.dag, result, False, calls,
                  None if report is None else report.satisfied)
    if result is not None:
        out.hd = calls("graphs.hamming_dag", graphs.hamming_dag, model.dag, result.dag)
    return out


JOBS = {"sim": _sim_job, "large": _large_job, "oracle": _oracle_job}


def run_job(kind: str, inp: JobInput, calls: Calls, split: bool = False) -> Outcome:
    """One job; the outcome carries every call attempted and every failure."""
    try:
        return JOBS[kind](inp, calls, split)
    finally:
        calls.close()
