"""Dense linear-algebra and statistical primitives.

Sample covariance, conditional variance by least squares on the centered
data, partial correlation from one Cholesky factor of a covariance block, and
the Fisher z independence decision. The learner computes its conditional
variances and partial correlations from one pivoted QR instead (see
``learner._factor``); the routines here are the public references for single
queries, and the tests check the learner against them. Everything operates on
plain float64 numpy arrays; reductions go through numpy's pairwise-summing
kernels for reproducibility.

``_triangle`` is the one cached table of row-major position pairs: it fixes
random_sem's draw order and the rows of TestLog and the later-scope margins.

:func:`partial_correlation`, :func:`sem.population_conditional_variance` and
:func:`learner.learn_from_covariance` read a covariance through one gate,
``_covariance``, which refuses one that is not real, square, finite and
symmetric, and factor it by ``_cholesky``; the first two through the block
rule ``_covariance_block``, which checks their indices by the index rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import (DegenerateDesignError, InsufficientSamplesError, NumericalDegeneracyError,
                     ValidationError, _count_problem, _instance, _not_real, _sequence)


def _repeated_name(names: list[str] | tuple[str, ...]) -> str | None:
    """The first name that repeats in ``names``, with the indices of its first
    two columns, as an error message; None when every name is distinct."""
    first: dict[str, int] = {}
    for j, name in enumerate(names):
        if (i := first.setdefault(name, j)) != j:
            return f"repeated column name {name!r} in columns {i} and {j}"
    return None


def _real_array(value, name: str) -> np.ndarray:
    """A float64 copy of ``value``; ValidationError naming ``name`` where it
    holds complex or non-numeric entries, which a float cast would drop or
    raise a bare error on, or an integer too large for float64."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind != "c":
            return np.array(arr, dtype=float)
    except (TypeError, ValueError):
        pass
    except OverflowError:
        raise ValidationError(f"{name} holds an integer too large for float64") from None
    raise ValidationError(f"{name} must hold real numbers")


def _covariance(cov, caller: str) -> np.ndarray:
    """A float64 copy of ``cov``, a real, square, finite matrix, p >= 1, whose
    entries differ from their transpose by at most 1e-8 max(1, max |cov|);
    NumericalDegeneracyError opened by ``caller`` names the worst pair."""
    cov = _real_array(cov, "covariance")
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] < 1:
        raise ValidationError(f"covariance must be square with p >= 1, got shape {cov.shape}")
    finite = np.isfinite(cov)
    if not finite.all():
        i, j = np.argwhere(~finite)[0].tolist()
        raise ValidationError(
            f"covariance must be finite: entry (i={i}, j={j}) is {float(cov[i, j])}"
        )
    asymmetry = np.abs(cov - cov.T)
    if asymmetry.max() > 1e-8 * max(1.0, np.abs(cov).max()):
        # symmetric, so the first largest entry in row-major order has i < j
        i, j = np.unravel_index(np.argmax(asymmetry), cov.shape)
        raise NumericalDegeneracyError(
            f"{caller}: covariance is not symmetric: largest"
            f" |cov[i, j] - cov[j, i]| is {float(asymmetry[i, j])} at (i={i}, j={j})"
        )
    return cov


def _cholesky(block: np.ndarray, refusal: str) -> np.ndarray:
    """The lower Cholesky factor of ``block``, or NumericalDegeneracyError(refusal)."""
    try:
        return np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        raise NumericalDegeneracyError(refusal) from None


def _covariance_block(cov, caller: str, given, **variables) -> np.ndarray:
    """The lower Cholesky factor of the block [given..., variables...] of a ``cov``
    that passes the gate and the index rule; NumericalDegeneracyError if it has none."""
    given = _sequence(given, "given")
    cov = _covariance(cov, caller)
    _check_condition_args(cov.shape[0], tuple(variables.values()), given)
    idx = [*given, *variables.values()]
    named = ", ".join(f"{name}={x}" for name, x in variables.items())
    return _cholesky(cov[np.ix_(idx, idx)], f"{caller}: the covariance block of {named} and"
                     f" given={list(given)} is not positive definite")


def _alpha_problem(alpha) -> str | None:
    """The problem with ``alpha`` as a significance level, or None."""
    if (problem := _not_real(alpha, "alpha")) or 0.0 < alpha < 1.0:
        return problem
    return f"alpha must lie in (0, 1), got {alpha}"


@lru_cache(maxsize=16)
def _triangle(p: int, upper: bool = False):
    """(rows, cols) of the strict lower triangle of a p x p matrix, or of the
    strict upper one with ``upper``, in row-major order; cached, read-only."""
    rows, cols = np.triu_indices(p, 1) if upper else np.tril_indices(p, -1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@dataclass(frozen=True, eq=False)
class Dataset:
    """An n x p observation matrix with one name per column."""

    names: tuple[str, ...]
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        data = _real_array(self.data, "dataset")
        if data.ndim != 2:
            raise ValidationError(f"dataset must be 2-D, got shape {data.shape}")
        if data.shape[0] < 1:
            raise ValidationError("dataset needs at least one row")
        if data.shape[1] < 1:
            raise ValidationError("dataset needs at least one column")
        names = _sequence(self.names, "names")
        if len(names) != data.shape[1]:
            raise ValidationError(f"{len(names)} names for {data.shape[1]} columns")
        names = tuple(map(str, names))
        if (repeat := _repeated_name(names)) is not None:
            raise ValidationError(repeat)
        if not np.all(np.isfinite(data)):
            raise ValidationError("dataset contains missing or non-finite entries")
        data = np.ascontiguousarray(data)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class IndependenceDecision:
    """Outcome of a two-sided Fisher z test; statistic is +inf when |r| = 1."""

    dependent: bool
    statistic: float
    threshold: float

    @property
    def independent(self) -> bool:
        return not self.dependent


def sample_covariance(data: Dataset) -> np.ndarray:
    """p x p covariance of mean-centered columns, denominator n - 1."""
    if _instance(data, "covariance needs", Dataset).n < 2:
        raise InsufficientSamplesError("covariance needs at least 2 rows")
    centered = data.data - data.data.mean(axis=0)
    cov = centered.T @ centered / (data.n - 1)
    return (cov + cov.T) / 2.0


def conditional_variance(data: Dataset, j: int, given) -> float:
    """Residual variance of column j regressed on centered columns ``given``.

    Columns are centered (implicit intercept), the fit is by least squares,
    and the denominator is n - |given| - 1; an empty conditioning set yields
    the sample variance. Collinear conditioning columns are fine, since the
    residual is the projection's; a constant one raises DegenerateDesignError.
    """
    given = _sequence(given, "given")
    _check_condition_args(_instance(data, "conditional variance needs", Dataset).p, (j,), given)
    if data.n <= len(given) + 1:
        raise InsufficientSamplesError(
            f"n={data.n} rows cannot support conditioning on {len(given)} columns"
        )
    centered = data.data - data.data.mean(axis=0)
    design, resid = centered[:, list(given)], centered[:, j]
    flat = ~design.any(axis=0)
    if flat.any():
        raise DegenerateDesignError(
            f"conditioning column {given[int(np.argmax(flat))]} is constant"
        )
    resid = resid - design @ np.linalg.lstsq(design, resid, rcond=None)[0]
    return float(resid @ resid / (data.n - len(given) - 1))


def partial_correlation(cov: np.ndarray, j: int, k: int, given) -> float:
    """Partial correlation of variables j and k given ``given``, from a covariance.

    Read off the trailing 2 x 2 block of the Cholesky factor of the block
    ordered as [given..., j, k]; works for sample and population covariances
    alike.
    """
    low = _covariance_block(cov, "partial_correlation", given, j=j, k=k)
    return float(low[-1, -2] / math.hypot(low[-1, -2], low[-1, -1]))


def fisher_z_test(r: float, n: int, s: int, alpha: float) -> IndependenceDecision:
    """Two-sided Fisher z decision for a (partial) correlation r.

    The statistic is sqrt(n - s - 3) * |atanh(r)| compared against the standard
    normal critical value at level alpha, by the rules the learner uses too.
    |r| >= 1 gives dependence with an infinite statistic. ``n`` must be an integer that float64 can
    hold and ``s`` a non-negative one, with n > s + 3.
    """
    if problem := (_not_real(r, "r") or _alpha_problem(alpha) or _count_problem(n, "n", -math.inf)
                   or _not_real(n, "n") or _count_problem(s, "s")):
        raise ValidationError(problem)
    if n <= s + 3:
        raise InsufficientSamplesError(
            f"Fisher z needs n > s + 3 (n={n}, conditioning size s={s})"
        )
    if math.isnan(r):
        raise ValidationError("correlation r is NaN")
    threshold = _critical_value(alpha)
    statistic = _fisher_z(np.array([r]), n, s).item()
    return IndependenceDecision(statistic > threshold, statistic, threshold)


def _critical_value(alpha: float) -> float:
    """The two-sided standard normal critical value at level ``alpha``."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def _fisher_z(r: np.ndarray, n: int, s) -> np.ndarray:
    """sqrt(n - s - 3) |atanh(r)| of each correlation of the array ``r`` given
    ``s`` conditioning variables (an int or an array like ``r``), +inf where
    |r| >= 1. atanh is ``math.atanh``, since ``np.arctanh`` differs from it in
    the last bit on some inputs, and n - s - 3 is rounded to float64 once."""
    # guard atanh against r rounded to within 1e-12 of +-1
    clipped = np.clip(r, -(1.0 - 1e-12), 1.0 - 1e-12)
    z = np.fromiter(map(math.atanh, clipped.tolist()), float, len(clipped))
    scale = np.sqrt(np.asarray(n - s - 3, dtype=float))
    return np.where(np.abs(r) >= 1.0, math.inf, scale * np.abs(z))


def _check_condition_args(p: int, variables: tuple[int, ...], given: tuple[int, ...]):
    """The index rule: each index an integer in [0, p), the variables distinct
    and outside ``given``, and ``given`` free of duplicates; else ValidationError."""
    for kind, x in (*(("variable", j) for j in variables), *(("conditioning", s) for s in given)):
        if problem := _count_problem(x, f"{kind} index", -math.inf):
            raise ValidationError(problem)
        if not 0 <= x < p:
            raise ValidationError(f"{kind} index {x} out of range for p={p}")
    if len(set(variables)) < len(variables):
        raise ValidationError("partial correlation needs two distinct variables")
    if inside := [j for j in variables if j in given]:
        raise ValidationError(f"variable {inside[0]} cannot appear in its conditioning set")
    if len(set(given)) != len(given):
        raise ValidationError("conditioning set contains duplicates")
