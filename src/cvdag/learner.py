"""Two-step structure learning: greedy conditional-variance ordering, then
parent selection by partial-correlation tests along the ordering.

A population-oracle twin (`learn_from_covariance`) runs the same search in
exact arithmetic on a covariance matrix, deciding independence by thresholding
|partial correlation| instead of a finite-sample test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import (
    DegenerateDesignError,
    InsufficientSamplesError,
    NumericalDegeneracyError,
    ValidationError,
)
from .graphs import Dag, Ordering
from .numerics import Dataset, _cholesky, fisher_z_test

ParentTestMode = Literal["conditional", "marginal"]


@dataclass(frozen=True)
class LearnConfig:
    """Knobs of the learner.

    ``parent_test_mode`` selects the conditioning set of each parent test:
    "conditional" tests a candidate given all other predecessors, "marginal"
    tests the plain pairwise correlation.
    """

    alpha: float = 0.01
    oracle_tolerance: float = 1e-9
    parent_test_mode: ParentTestMode = "conditional"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.oracle_tolerance <= 0.0:
            raise ValidationError("oracle_tolerance must be positive")
        if self.parent_test_mode not in ("conditional", "marginal"):
            raise ValidationError(f"unknown parent_test_mode {self.parent_test_mode!r}")


@dataclass(frozen=True)
class TestRecord:
    """One logged independence decision for the pair (earlier, later)."""

    earlier: int
    later: int
    given: tuple[int, ...]
    r: float
    statistic: float
    threshold: float
    dependent: bool


@dataclass(frozen=True)
class LearnResult:
    ordering: Ordering
    dag: Dag
    # step_variances[m] lists (candidate, conditional variance) for every node
    # still unplaced when position m was decided
    step_variances: tuple[tuple[tuple[int, float], ...], ...]
    test_log: tuple[TestRecord, ...] = field(repr=False)


def _factor(x: np.ndarray, order=None):
    """Householder QR of the columns of ``x``, pivoting on the smallest residual.

    Before step m, the squared norm of an unplaced column below row m is its
    residual sum of squares (RSS) given the m placed columns. With ``order``
    None the column with the smallest RSS is placed next, ties to the lower
    index; otherwise ``order[m]`` is. Both run the same arithmetic, so a given
    order reproduces the greedy R bit for bit. Needs at least as many rows as
    columns.

    Tall input is first reduced to its p x p triangle by one unpivoted LAPACK
    QR. That keeps the Gram matrix, so every RSS and every R entry is the same
    up to rounding, and the pivot loop runs on p rows instead of n. The cost
    is O(n p^2) in LAPACK plus O(p^3) in the loop. Square input, such as the
    L^T of :func:`learn_from_covariance`, goes to the loop as it is.

    Returns (order, R with its columns in that order, and per step the
    ((node, RSS), ...) of every unplaced node).
    """
    x = np.asarray(x, dtype=float)
    w = np.linalg.qr(x, mode="r") if x.shape[0] > x.shape[1] else np.array(x)
    p = w.shape[1]
    remaining = list(range(p))
    placed: list[int] = []
    steps = []
    for m in range(p):
        block = w[m:, remaining]
        rss = np.einsum("ij,ij->j", block, block)
        steps.append(tuple(zip(remaining, rss.tolist())))
        i = int(np.argmin(rss)) if order is None else remaining.index(order[m])
        j = remaining.pop(i)
        if rss[i] == 0.0:
            raise DegenerateDesignError(
                f"factorization step {m}: variable {j} has zero residual given the"
                f" {m} variables placed before it"
            )
        v = block[:, i]
        alpha = -math.copysign(math.sqrt(rss[i]), v[0])
        v[0] -= alpha
        w[m, j] = alpha
        w[m + 1:, j] = 0.0
        if remaining:
            rest = w[m:, remaining]
            w[m:, remaining] = rest - np.outer(v, (v @ rest) * (2.0 / (v @ v)))
        placed.append(j)
    return tuple(placed), w[:p, placed], steps


def _pair_correlations(order, r: np.ndarray, mode: ParentTestMode):
    """Yield (earlier, later, given, r) for every ordered pair of ``order``.

    ``r`` is the factor of :func:`_factor` in that order, so R^T R is the Gram
    matrix. Marginal mode normalizes R^T R. Conditional mode conditions on the
    other predecessors of ``later`` and reads the precision of each leading
    block off T = (R^T)^-1: r(e, m | rest) = -sign(T[m,m]) T[m,e] / |T[:m+1, e]|.
    """
    p = len(order)
    corr = np.zeros((p, p))
    rows, cols = np.tril_indices(p, -1)
    if mode == "marginal":
        gram = r.T @ r
        scale = np.sqrt(np.diag(gram))
        corr[rows, cols] = gram[rows, cols] / (scale[rows] * scale[cols])
    else:
        # LU of an upper-triangular matrix swaps no rows, so T is exactly lower
        t = np.linalg.inv(r).T
        norms = np.sqrt(np.cumsum(t * t, axis=0))
        corr[rows, cols] = -np.sign(t[rows, rows]) * t[rows, cols] / norms[rows, cols]
    for m in range(1, p):
        for e in range(m):
            given = () if mode == "marginal" else order[:e] + order[e + 1:m]
            yield order[e], order[m], given, float(min(1.0, max(-1.0, corr[m, e])))


def _dag(p: int, log: list[TestRecord]):
    edges = frozenset((rec.earlier, rec.later) for rec in log if rec.dependent)
    return Dag(p, edges), tuple(log)


def _centered(data: Dataset, stage: str) -> np.ndarray:
    """The column-centered data, once n > p + 1 (``stage`` opens the error)."""
    if data.n <= data.p + 1:
        raise InsufficientSamplesError(f"{stage} n > p + 1 (n={data.n}, p={data.p})")
    return data.data - data.data.mean(axis=0)


def _variances(steps, n: int):
    """Step RSS over its residual degrees of freedom, n - m - 1 at step m."""
    return tuple(
        tuple((j, rss / (n - m - 1)) for j, rss in step) for m, step in enumerate(steps)
    )


def _fisher_parents(data: Dataset, order, r: np.ndarray, cfg: LearnConfig):
    """(DAG, log) of one Fisher z test per ordered pair of the factor ``r``."""
    log = []
    for earlier, later, given, rho in _pair_correlations(order, r, cfg.parent_test_mode):
        out = fisher_z_test(rho, data.n, len(given), cfg.alpha)
        log.append(TestRecord(earlier, later, given, rho, out.statistic, out.threshold,
                              out.dependent))
    return _dag(data.p, log)


def estimate_ordering(data: Dataset, cfg: LearnConfig | None = None):
    """Greedy minimal-conditional-variance ordering of the dataset's columns.

    Returns (ordering, step diagnostics): at step m, every unplaced node with
    its residual variance RSS / (n - m - 1) given the m placed nodes. Requires
    n > p + 1 so that every regression along the way, and the final parent
    tests, are estimable.
    """
    del cfg  # ordering has no tunables; accepted for symmetry with the other steps
    order, _, steps = _factor(_centered(data, "ordering needs"))
    return Ordering(order), _variances(steps, data.n)


def estimate_parents(data: Dataset, pi: Ordering, cfg: LearnConfig | None = None):
    """Parent sets along ``pi`` by Fisher z tests at cfg.alpha.

    Conditional mode tests each candidate given the remaining predecessors;
    marginal mode tests the pairwise correlation. Every r comes from one QR
    of the centered data in the order ``pi``, which needs n > p + 1 in both
    modes. Every decision is logged, so the log is a complete audit of the
    returned edge set.
    """
    cfg = cfg or LearnConfig()
    if len(pi) != data.p:
        raise ValidationError(f"ordering of length {len(pi)} for p={data.p} dataset")
    order, r, _ = _factor(_centered(data, "parent tests need"), pi.order)
    return _fisher_parents(data, order, r, cfg)


def learn(data: Dataset, cfg: LearnConfig | None = None) -> LearnResult:
    """Full pipeline: ordering, then parents; the result is acyclic by construction.

    One greedy factor gives both: since a given order reproduces the greedy R
    bit for bit, this equals :func:`estimate_parents` along the ordering of
    :func:`estimate_ordering`.
    """
    cfg = cfg or LearnConfig()
    order, r, steps = _factor(_centered(data, "ordering needs"))
    dag, log = _fisher_parents(data, order, r, cfg)
    return LearnResult(Ordering(order), dag, _variances(steps, data.n), log)


def learn_from_covariance(cov: np.ndarray, cfg: LearnConfig | None = None) -> LearnResult:
    """Exact-arithmetic analogue of :func:`learn` on a population covariance.

    With cov = L L^T, the columns of L^T have cov as their Gram matrix, so one
    greedy QR of L^T gives the ordering, whose step variances are the
    conditional variances, and every partial correlation. Independence is
    |partial correlation| <= cfg.oracle_tolerance; on the covariance of an
    identifiable model this returns the generating graph exactly. Costs O(p^3).
    """
    cfg = cfg or LearnConfig()
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValidationError(f"covariance must be square, got shape {cov.shape}")
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-8 * max(1.0, np.abs(cov).max())):
        raise NumericalDegeneracyError("covariance is not symmetric")
    low = _cholesky(cov)  # SPD gate
    order, r, steps = _factor(low.T)
    log = []
    for earlier, later, given, rho in _pair_correlations(order, r, cfg.parent_test_mode):
        log.append(TestRecord(earlier, later, given, rho, abs(rho), cfg.oracle_tolerance,
                              abs(rho) > cfg.oracle_tolerance))
    dag, log = _dag(cov.shape[0], log)
    return LearnResult(Ordering(order), dag, tuple(steps), log)


def ordering_is_greedy_minimal(result: LearnResult) -> bool:
    """Audit helper: the node picked at each step attains that step's minimum."""
    for m, candidates in enumerate(result.step_variances):
        by_node = dict(candidates)
        if by_node[result.ordering[m]] > min(by_node.values()):
            return False
    return True
