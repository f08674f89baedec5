"""Two-step structure learning: greedy conditional-variance ordering, then
parent selection by partial-correlation tests along the ordering.

One pipeline serves both versions: `learn` factors centered data of n rows
and tests each pair by Fisher z; `learn_from_covariance`, the population
oracle, factors the L^T of a covariance matrix and, with no n, thresholds
|partial correlation| at 1e-9 instead: a population non-edge has r = 0, so
the tolerance only absorbs rounding. It computes in float64, not in exact
arithmetic. The factorization has a float64 floor: when a placed node keeps
less than 1e-29 of its sum of squares given the nodes before it, its residual
is rounding noise, and every entry point raises NumericalDegeneracyError
naming the step, the variable and that ratio instead of returning a graph; so
it does for a sum of squares that float64 cannot hold (see ``_SS_RANGE``).
Above the floor, on ill-conditioned covariances the rounded |r| of a non-edge
can still exceed that tolerance, and the returned graph then has
extra edges without any error being raised.

Both read every r off one factorization as arrays and decide all pairs in one
pass over them. The decisions are kept as a columnar `TestLog` (each pair's r,
the ordering, the threshold and n) and the ordering's steps as a `StepLog`
(every step's residual sums of squares, the ordering and n). Each record,
step and statistic is derived when it is read, so no per-pair object is
stored, and both logs read as the tuple of their rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (DegenerateDesignError, InsufficientSamplesError, NumericalDegeneracyError,
                     ValidationError, _instance)
from .graphs import Dag, Ordering, _ordering
from .numerics import (Dataset, _alpha_problem, _cholesky, _covariance, _critical_value, _fisher_z,
                       _triangle)

# The float64 floor of the pivot ratio: a placed node's RSS over its step-0
# RSS. Below it the residual's norm is under ~14 ulps (sqrt(1e-29) ~ 3.2e-15)
# of its column's, the size of the rounding left by the earlier reflections,
# so the residual and every r read off it carry no information.
_PIVOT_RATIO_FLOOR = 1e-29
# normal, so no digit of a sum of squares is lost, and low enough that no reflector overflows
_SS_RANGE = (np.finfo(float).tiny, np.finfo(float).max / 8)
# the oracle's |r| threshold: a population non-edge has r = 0, so it only absorbs rounding
_ORACLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LearnConfig:
    """The learner's one knob: the level ``alpha`` of the Fisher z parent tests,
    each given the other predecessors."""

    alpha: float = 0.01

    def __post_init__(self):
        if problem := _alpha_problem(self.alpha):
            raise ValidationError(problem)


def _threshold(cfg) -> float:
    """The Fisher z critical value at the alpha of ``cfg``, or of LearnConfig()
    for None; ValidationError for anything else."""
    cfg = LearnConfig() if cfg is None else _instance(cfg, "cfg must be", LearnConfig)
    return _critical_value(cfg.alpha)


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


class _Rows:
    """A log read as the tuple of its rows.

    A subclass gives ``__len__`` and ``_row(i)`` for 0 <= i < len; indexing
    by int or slice, iteration and equality with a tuple or a log of the same
    type follow from them.
    """

    def __getitem__(self, i):
        rows = range(len(self))
        if isinstance(i, slice):
            return tuple(map(self._row, rows[i]))
        return self._row(rows[i])  # raises IndexError out of range

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (type(self), tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True, eq=False)
class TestLog(_Rows):
    """Every independence decision of one parent step, stored as columns.

    Row i is the i-th pair of positions (m, e), e < m, of ``order`` in
    row-major order of the strict lower triangle: (1, 0), (2, 0), (2, 1),
    (3, 0), ... The array holds each pair's ``r``; one ``threshold`` and the
    sample size ``n`` (None for the oracle, as in :class:`StepLog`) serve
    every row. Storage is O(p^2): the record's nodes ``earlier`` = order[e]
    and ``later`` = order[m], its conditioning set order[:e] + order[e+1:m],
    its ``statistic`` and ``dependent``, that is statistic > threshold, are
    derived when it is read. The log reads as the tuple of its
    :class:`TestRecord` values.
    """

    order: tuple[int, ...]
    threshold: float
    r: np.ndarray
    n: int | None = None

    def __post_init__(self):
        self.r.flags.writeable = False

    @cached_property
    def statistic(self) -> np.ndarray:
        """Each row's statistic, read-only, derived from ``r`` on first read:
        |r| without ``n``, the Fisher z statistic with it."""
        rows = _triangle(len(self.order))[0]
        statistic = _statistic(self.r, self.n, rows - 1)
        statistic.flags.writeable = False
        return statistic

    def __len__(self) -> int:
        return len(self.r)

    def _row(self, i: int) -> TestRecord:
        rows, cols = _triangle(len(self.order))
        m, e = rows.item(i), cols.item(i)
        statistic = float(self.statistic[i])
        return TestRecord(self.order[e], self.order[m], self.order[:e] + self.order[e + 1:m],
                          float(self.r[i]), statistic, self.threshold, statistic > self.threshold)


@dataclass(frozen=True, eq=False)
class StepLog(_Rows):
    """Every step of the greedy ordering, stored as one column.

    Step m lists each node not in order[:m], in node order, with its value:
    its residual sum of squares (RSS) given order[:m], or, with ``n``, its
    residual variance RSS / (n - m - 1). ``rss`` holds the p (p + 1) / 2 RSS
    of all steps back to back, step m's in node order from offset
    m p - m (m - 1) / 2. Storage is O(p^2): the nodes and the division are
    derived when a step is read. The log reads as the tuple of its steps,
    each a ((node, value), ...) tuple.
    """

    order: tuple[int, ...]
    rss: np.ndarray
    n: int | None = None

    def __post_init__(self):
        self.rss.flags.writeable = False

    def values(self, m: int) -> np.ndarray:
        """Step m's values, an array in node order of its unplaced nodes."""
        p = len(self.order)
        m = range(p)[m]  # raises IndexError out of range
        start = m * p - m * (m - 1) // 2
        rss = self.rss[start:start + p - m]
        return rss if self.n is None else rss / (self.n - m - 1)

    def __len__(self) -> int:
        return len(self.order)

    def _row(self, m: int) -> tuple[tuple[int, float], ...]:
        nodes = sorted(set(range(len(self))).difference(self.order[:m]))
        return tuple(zip(nodes, self.values(m).tolist()))


@dataclass(frozen=True)
class LearnResult:
    ordering: Ordering
    dag: Dag
    # step_variances[m] lists (candidate, conditional variance) for every node
    # still unplaced when position m was decided
    step_variances: StepLog
    test_log: TestLog = field(repr=False)


def _factor(x: np.ndarray, order=None):
    """Householder QR of the columns of ``x``, pivoting on the smallest residual.

    Before step m, the squared norm of an unplaced column below row m is its
    residual sum of squares (RSS) given the m placed columns. With ``order``
    None the column with the smallest RSS is placed next, ties to the lower
    index; otherwise ``order[m]`` is. Both run the same arithmetic, so a given
    order reproduces the greedy R bit for bit. Needs at least as many rows as
    columns. A placed column whose RSS is zero raises DegenerateDesignError;
    one whose RSS is below ``_PIVOT_RATIO_FLOOR`` times its step-0 RSS, or
    below ``_SS_RANGE``, or a step-0 RSS above it, raises
    NumericalDegeneracyError.

    Tall input is first reduced to its p x p triangle by one unpivoted LAPACK
    QR. That keeps the Gram matrix, so every RSS and every R entry is the same
    up to rounding, and the pivot loop runs on p rows instead of n. The cost
    is O(n p^2) in LAPACK plus O(p^3) in the loop. Square input, such as the
    L^T of :func:`learn_from_covariance`, goes to the loop as it is.

    The loop works in place on one column-major copy of the triangle. Columns
    :m hold the placed nodes in placed order and columns m: the unplaced ones
    in node order: step m rotates the chosen column to position m, shifting
    the columns between up by one, so the argmin still breaks ties to the
    lower node (a swap would not). Column-major matters for the last bit:
    einsum and the reflector's matrix-vector product round differently on a
    row-major block. Step m builds its Householder reflector in place, in
    column m below the diagonal, and applies it as a column-major rank-1
    update; the reflectors' tails are left there and the strict lower
    triangle is zeroed once, after the loop.

    Returns (order, R with its columns in that order, and the RSS of every
    step back to back in one array, each step's unplaced nodes in node order:
    the ``rss`` of :class:`StepLog`).
    """
    x = np.asarray(x, dtype=float)
    w = np.array(np.linalg.qr(x, mode="r") if x.shape[0] > x.shape[1] else x, order="F")
    p = w.shape[1]
    nodes = list(range(p))  # the node in each column of w
    steps = np.empty(p * (p + 1) // 2)
    start = 0
    for m in range(p):
        block = w[m:, m:]
        rss = np.einsum("ij,ij->j", block, block, out=steps[start:start + p - m])
        start += p - m
        i = rss.argmin() if order is None else nodes.index(order[m], m) - m
        least = rss.item(i)
        if least == 0.0:
            raise DegenerateDesignError(
                f"factorization step {m}: variable {nodes[m + i]} has zero residual given"
                f" the {m} variables placed before it"
            )
        # step 0 bounds every later RSS, so its largest is checked there only
        j = i if m or least < _SS_RANGE[0] else rss.argmax()
        if not _SS_RANGE[0] <= (ss := rss.item(j)) <= _SS_RANGE[1]:
            raise NumericalDegeneracyError(
                f"factorization step {m}: variable {nodes[m + j]} has a sum of squares {ss:g},"
                f" outside the range [{_SS_RANGE[0]:g}, {_SS_RANGE[1]:g}] float64 can factor"
            )
        # step 0 lists every node in node order, so steps[j] is j's step-0 RSS
        if least < _PIVOT_RATIO_FLOOR * (total := steps.item(nodes[m + i])):
            raise NumericalDegeneracyError(
                f"factorization step {m}: variable {nodes[m + i]} keeps a share"
                f" {least / total:.3g} of its sum of squares given the {m} variables"
                f" placed before it, below the float64 floor {_PIVOT_RATIO_FLOOR:g}"
            )
        if i:
            nodes.insert(m, nodes.pop(m + i))
            col = w[:, m + i].copy()
            w[:, m + 1:m + i + 1] = w[:, m:m + i]
            w[:, m] = col
        # the reflector is built in column m itself, which no later step reads
        v = w[m:, m]
        alpha = -math.copysign(math.sqrt(least), v.item(0))
        v[0] -= alpha
        rest = w[m:, m + 1:]
        scale = v @ rest
        scale *= 2.0 / (v @ v)
        rest -= np.multiply(v[:, None], scale, order="F")
        w[m, m] = alpha
    # the reflectors' tails are below the diagonal: zero them in one pass
    w[_triangle(p)] = 0.0
    return tuple(nodes), w, steps


def _pair_correlations(r: np.ndarray):
    """(m, e, r) over the strict lower triangle, positions e < m of the order.

    ``r`` is the factor of :func:`_factor` in some order, so R^T R is the Gram
    matrix. The three arrays run in :class:`TestLog` row order, p (p - 1) / 2
    long, with r clipped to [-1, 1]. Each r conditions on the other
    predecessors of ``later`` and reads the precision of each leading block
    off U = R^-1: r(e, m | rest) = -sign(U[m,m]) U[e,m] / |U[e, :m+1]|, every
    entry and running row norm taken from U and the cumulative sum of U*U
    along its rows by flat index.
    """
    p = r.shape[0]
    rows, cols = _triangle(p)
    # a power-of-two scale per column keeps every r and keeps R^-1 finite
    r = np.ldexp(r, -np.frexp(r.diagonal())[1])
    # LU of an upper-triangular matrix swaps no rows, so U is exactly upper
    u = np.linalg.inv(r)
    upper, diag = cols * p + rows, rows * (p + 1)
    norms = np.sqrt(np.cumsum(u * u, axis=1).take(upper))
    corr = -np.sign(u.take(diag)) * u.take(upper) / norms
    np.maximum(corr, -1.0, out=corr)
    np.minimum(corr, 1.0, out=corr)
    return rows, cols, corr


def _statistic(r: np.ndarray, n: int | None, s) -> np.ndarray:
    """The statistic of each partial correlation ``r`` given ``s`` conditioning
    nodes: |r| for the population (``n`` None), else the Fisher z statistic of
    :func:`numerics.fisher_z_test` over all pairs at once."""
    return np.abs(r) if n is None else _fisher_z(r, n, s)


def _parents(order, r: np.ndarray, threshold: float, n: int | None):
    """(DAG, log) of one test per ordered pair of the factor ``r``, dependent where
    its statistic exceeds ``threshold``. The DAG stores the adjacency mask
    scattered from the dependent pairs."""
    rows, cols, rho = _pair_correlations(r)
    dependent = _statistic(rho, n, rows - 1) > threshold
    nodes = np.asarray(order, dtype=np.intp)
    adjacency = np.zeros((len(order), len(order)), dtype=bool)
    adjacency[nodes[cols[dependent]], nodes[rows[dependent]]] = True
    # every edge points forward along the ordering, so the graph is acyclic
    return Dag._trusted(len(order), adjacency), TestLog(tuple(order), threshold, rho, n)


def _learn(x: np.ndarray, threshold: float, n: int | None) -> LearnResult:
    """Ordering, then parents, off one greedy factor of ``x``: centered data
    of ``n`` rows, or with ``n`` None the L^T of a population covariance."""
    order, r, steps = _factor(x)
    dag, log = _parents(order, r, threshold, n)
    return LearnResult(Ordering(order), dag, StepLog(order, steps, n), log)


def _size_problem(n: int, p: int, stage: str) -> str | None:
    """The problem, opened by ``stage``, with learning from n rows of p
    columns, or None: every regression and parent test needs n > p + 1."""
    return None if n > p + 1 else f"{stage} n > p + 1 (n={n}, p={p})"


def _centered(data: Dataset, stage: str) -> np.ndarray:
    """The column-centered data of a Dataset, once n > p + 1 (``stage`` opens
    the error), in column-major order: LAPACK's QR reads columns, so
    :func:`_factor` hands it over with a plain copy instead of a transpose."""
    if problem := _size_problem(_instance(data, stage, Dataset).n, data.p, stage):
        raise InsufficientSamplesError(problem)
    return np.subtract(data.data, data.data.mean(axis=0), order="F")


def estimate_ordering(data: Dataset):
    """Greedy minimal-conditional-variance ordering of the dataset's columns.

    Returns (ordering, step diagnostics): a :class:`StepLog` whose step m is
    every unplaced node with its residual variance RSS / (n - m - 1) given the
    m placed nodes, read off the factor's RSS when the step is read. Requires
    n > p + 1 so that every regression along the way, and the final parent
    tests, are estimable.
    """
    order, _, steps = _factor(_centered(data, "ordering needs"))
    return Ordering(order), StepLog(order, steps, data.n)


def estimate_parents(data: Dataset, pi: Sequence[int], cfg: LearnConfig | None = None):
    """Parent sets along ``pi`` by Fisher z tests at cfg.alpha.

    Each candidate is tested given the remaining predecessors. Every r comes
    from one QR of the centered data in the order ``pi``, which needs
    n > p + 1. Every decision is logged, so the log is a complete audit of the
    returned edge set. A ``pi`` that is not a permutation of the columns, or
    holds an id that is not an integer, raises ValidationError.
    """
    threshold = _threshold(cfg)
    x = _centered(data, "parent tests need")
    order, r, _ = _factor(x, _ordering(pi, data.p).order)
    return _parents(order, r, threshold, data.n)


def learn(data: Dataset, cfg: LearnConfig | None = None) -> LearnResult:
    """Full pipeline: ordering, then parents; the result is acyclic by construction.

    One greedy factor gives both: since a given order reproduces the greedy R
    bit for bit, this equals :func:`estimate_parents` along the ordering of
    :func:`estimate_ordering`.
    """
    return _learn(_centered(data, "ordering needs"), _threshold(cfg), data.n)


def learn_from_covariance(cov: np.ndarray) -> LearnResult:
    """Population analogue of :func:`learn` on a covariance matrix, in float64.

    With cov = L L^T, the columns of L^T have cov as their Gram matrix, so
    this is :func:`learn` on L^T without a sample size (n None in both logs):
    the step variances are the conditional variances (raw RSS, no degrees of
    freedom), and each test's statistic is |partial correlation|, independent
    while <= 1e-9, the float64 rounding of a non-edge's r = 0.
    In exact arithmetic only a scope="later" pass of check_identifiability
    certifies its ordering. In float64 each r's rounding error must also stay
    below the tolerance: on ill-conditioned covariances it silently returns
    extra edges (on random models of either protocol, on 10 of 120 at p=20
    and on all 120 at p=40). The covariance gate of :mod:`numerics` refuses a
    covariance that is not real, square, finite or symmetric; one with no
    Cholesky factor, or whose factor :func:`_factor` refuses, raises
    NumericalDegeneracyError. Costs O(p^3).
    """
    cov = _covariance(cov, "learn_from_covariance")
    low = _cholesky(cov, f"learn_from_covariance: SPD gate: covariance of shape {cov.shape} has"
                    " no Cholesky factor (matrix is not positive definite)")
    return _learn(low.T, _ORACLE_TOLERANCE, None)


def ordering_is_greedy_minimal(result: LearnResult) -> bool:
    """Audit helper: the node picked at each step attains that step's minimum."""
    _instance(result, "ordering_is_greedy_minimal needs", LearnResult)
    nodes = list(range(len(result.ordering)))  # the unplaced nodes, in node order
    for m, j in enumerate(result.ordering):
        values = result.step_variances.values(m)
        if values[nodes.index(j)] > values.min():
            return False
        nodes.remove(j)
    return True
