"""Gaussian linear SEMs: population algebra, identifiability checks,
random generators for the experiment protocols, seeded sampling, and the
text serialization format. `protocol_sem` builds the model of any name in
`PROTOCOLS`; `SCOPES` lists the scopes of `check_identifiability`.

A model is X = B0 + B X + eps with independent eps_j ~ N(0, sigma2_j); entry
B[j, k] is the weight of edge k -> j and its nonzero pattern must be acyclic.

A model is immutable, so its derived algebra is computed once, on first use,
and shared read-only: the total effects A = (I - B)^-1 serve
`population_covariance` and `check_identifiability` under both scopes, and the
graph's topological order and descendant mask serve the checks and `sample`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, Sequence, get_args

import numpy as np

from .errors import (DataFormatError, NumericalDegeneracyError, ValidationError, _located,
                     read_text, write_text)
from .graphs import Dag, Ordering, _is_int, _square, descendant_mask, is_consistent, topological_order
from .numerics import (Dataset, _check_condition_args, _cholesky, _covariance, _not_real,
                       _real_array, _triangle)

Protocol = Literal["homogeneous", "heterogeneous"]
PROTOCOLS: tuple[str, ...] = (*get_args(Protocol), "nonfaithful")

Scope = Literal["descendants", "later"]
SCOPES: tuple[str, ...] = get_args(Scope)

# Relative tolerance for the internal law-of-total-variance self-check; dense
# weighted graphs push covariance magnitudes up geometrically with p, so the
# comparison must scale with the values it compares.
_LTV_RTOL = 1e-9

_MARGIN_FIELDS = np.dtype([("j", np.intp), ("k", np.intp), ("lhs", float), ("rhs", float)])


def _seed_problem(seed) -> str | None:
    """The problem with ``seed`` as a seed, or None."""
    ok = _is_int(seed) and seed >= 0
    return None if ok else f"seed must be a non-negative integer, got {seed!r}"


def _seed_sequence(seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    if problem := _seed_problem(seed):
        raise ValidationError(problem)
    return np.random.SeedSequence(seed, spawn_key=key)


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """PCG64 stream derived from (seed, key...). Same inputs, same stream,
    on every platform numpy supports; disjoint keys give independent streams.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, key)))


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic child seed for (seed, key...), e.g. one per replication."""
    return int(_seed_sequence(seed, key).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True, eq=False)
class GaussianSem:
    """Edge weights B (child-row convention), error variances, intercepts."""

    B: np.ndarray = field(repr=False)
    sigma2: np.ndarray
    intercepts: np.ndarray | None = None

    def __post_init__(self):
        b = _real_array(self.B, "B")  # a copy: the instance owns its arrays
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] < 1:
            raise ValidationError(f"B must be square with p >= 1, got shape {b.shape}")
        p = b.shape[0]
        s2 = _real_array(self.sigma2, "sigma2").reshape(-1)
        if s2.shape != (p,):
            raise ValidationError(f"sigma2 must have length {p}")
        b0 = self.intercepts
        b0 = np.zeros(p) if b0 is None else _real_array(b0, "intercepts").reshape(-1)
        if b0.shape != (p,):
            raise ValidationError(f"intercepts must have length {p}")
        for name, arr in (("B", b), ("sigma2", s2), ("intercepts", b0)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} must be finite")
        if not np.all(s2 > 0.0):
            raise ValidationError("error variances must be strictly positive")
        if np.any(np.diag(b) != 0.0):
            raise ValidationError("diagonal of B must be zero")
        # edge k -> j whenever B[j, k] != 0, on a zero diagonal
        dag = Dag._trusted(p, (b != 0).T)._acyclic()
        for arr in (b, s2, b0):
            arr.flags.writeable = False
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "sigma2", s2)
        object.__setattr__(self, "intercepts", b0)
        object.__setattr__(self, "_dag", dag)

    @property
    def p(self) -> int:
        return self.B.shape[0]

    @property
    def dag(self) -> Dag:
        return self._dag

    @cached_property
    def _effects(self) -> np.ndarray:
        # _total_effects is looked up in the module on each build, so a patched
        # one is what gets cached; nothing is cached when it raises
        a = _total_effects(self)
        a.flags.writeable = False
        return a


def _model(m, stage: str) -> GaussianSem:
    """``m`` where it is a GaussianSem; ValidationError opened by ``stage``
    otherwise, where an array would raise a bare AttributeError."""
    if not isinstance(m, GaussianSem):
        raise ValidationError(f"{stage} a GaussianSem, got {type(m).__name__}")
    return m


@dataclass(frozen=True, eq=False)
class IdentifiabilityReport:
    """``margins``: read-only record array, one row (j, k, lhs, rhs) per checked
    inequality lhs < rhs; ``worst_margin``: min rhs - lhs, inf if no rows."""

    satisfied: bool
    margins: np.recarray
    worst_margin: float


def _total_effects(m: GaussianSem) -> np.ndarray:
    """A = (I - B)^-1: entry A[k, i] is the total effect of noise i on X_k.

    Built by forward substitution in topological order, row k = e_k + B[k] A,
    so each entry sums the path products into k and structural zeros stay
    exact. Raises NumericalDegeneracyError naming the first (k, i), in that
    order, whose variance contribution sigma_i A[k, i]^2 is not finite.
    Readers take it from ``GaussianSem._effects``, which builds it once per model.
    """
    a = np.zeros((m.p, m.p))
    order = topological_order(m.dag)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in order:
            a[k] = m.B[k] @ a
            a[k, k] = 1.0
        bad = ~np.isfinite(a * a * m.sigma2)
    if bad.any():
        k = next(k for k in order if bad[k].any())
        i = int(np.argmax(bad[k]))
        raise NumericalDegeneracyError(
            f"total effects: sigma_i A[k, i]^2 overflows float64 at (k={k}, i={i})"
        )
    return a


def population_covariance(m: GaussianSem) -> np.ndarray:
    """Exact covariance (I - B)^-1 Sigma_eps (I - B)^-T of the model."""
    a = _model(m, "population covariance needs")._effects
    cov = (a * m.sigma2) @ a.T
    return (cov + cov.T) / 2.0


def population_precision(m: GaussianSem) -> np.ndarray:
    """Exact inverse covariance (I - B)^T Sigma_eps^-1 (I - B)."""
    eye_b = np.eye(_model(m, "population precision needs").p) - m.B
    return eye_b.T @ ((1.0 / m.sigma2)[:, None] * eye_b)


def population_conditional_variance(cov: np.ndarray, k: int, given) -> float:
    """Var(X_k | X_given) from a covariance that passes the gate of :mod:`numerics`:
    the squared last diagonal entry of the Cholesky factor of the block ordered
    as [given..., k]."""
    given = tuple(given)
    cov = _covariance(cov, "population_conditional_variance")
    _check_condition_args(cov.shape[0], k, given)
    idx = list(given) + [k]
    low = _cholesky(cov[np.ix_(idx, idx)], "population_conditional_variance: the covariance"
                    f" block of k={k} and given={list(given)} is not positive definite")
    return float(low[-1, -1] ** 2)


def check_identifiability(
    m: GaussianSem,
    pi: Sequence[int] | None = None,
    scope: Scope = "descendants",
) -> IdentifiabilityReport:
    """Check the conditional-variance ordering condition along ``pi``.

    For each position with node j, every compared node k (descendants of j by
    default; every later node with scope="later") must satisfy
    sigma_j^2 < Var(X_k | predecessors of j). Every prefix of an ordering
    consistent with the graph is ancestral, so conditioning on it is
    conditioning on its noise terms, and Var(X_k | prefix) is the sum of
    sigma_i^2 A[k, i]^2 over the noise terms i outside it (A the total
    effects). Each right-hand side is verified internally against its
    law-of-total-variance form sigma_k^2 + Var(E(X_k | parents) | prefix), the
    same sum over the rows of B A; a disagreement beyond float64 rounding, or
    a NaN, raises NumericalDegeneracyError naming the first failing row. Both
    sums come from one pass: the rows of A stacked on those of B A, columns
    gathered in reversed ``pi`` order, squared, scaled by sigma^2 and summed
    by one cumulative sum along each row, so column p - 1 - pos holds the sum
    over the nodes at positions pos and later. Rows run over j in pi order,
    then k in pi order ("later") or by node index. Any scope outside SCOPES,
    or a ``pi`` that is not a permutation of the nodes or holds an id that is
    not an integer (checked by :func:`is_consistent`), raises ValidationError.
    """
    _model(m, "identifiability check needs")
    if scope not in SCOPES:
        raise ValidationError(f"unknown scope {scope!r}: use {' or '.join(map(repr, SCOPES))}")
    if pi is None:
        order = topological_order(m.dag).order
    elif is_consistent(pi, m.dag):
        order = Ordering(pi).order
    else:
        raise ValidationError("ordering is not consistent with the model's graph")
    p = m.p
    a = m._effects
    cols = np.asarray(order)
    rev = cols[::-1]
    # w[k, p-1-pos] = Var(X_k | X_pi[:pos]) and w[p+k, p-1-pos] the structural
    # sum; positive terms, so nothing cancels
    w = np.concatenate((a, m.B @ a))[:, rev]
    w *= w
    w *= m.sigma2[rev]
    np.cumsum(w, axis=1, out=w)
    # every (pos, k) pair at once; row-major order is the row order above
    if scope == "later":
        pos, q = _triangle(p, upper=True)
        k = cols[q]
    else:
        pos, k = np.nonzero(descendant_mask(m.dag)[cols])
    flat = k * p + (p - 1 - pos)
    rhs = w.take(flat)
    rhs_alt = m.sigma2[k] + w.take(flat + p * p)
    # both sides sum positive terms, so rounding scales with the value itself;
    # "not <=" also catches a NaN
    bad = ~(np.abs(rhs - rhs_alt) <= _LTV_RTOL * np.maximum(1.0, rhs))
    j = cols[pos]
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalDegeneracyError(
            f"identifiability check: law-of-total-variance self-check failed at (j={j[i]},"
            f" k={k[i]}): total-effect sum {float(rhs[i])!r} vs structural form"
            f" {float(rhs_alt[i])!r}"
        )
    lhs = m.sigma2[j]
    margins = np.empty(len(k), _MARGIN_FIELDS)
    # item assignment per field: the recarray attribute setter costs twice as much
    for name, column in zip(_MARGIN_FIELDS.names, (j, k, lhs, rhs)):
        margins[name] = column
    margins = margins.view(np.recarray)
    margins.flags.writeable = False
    worst = float((rhs - lhs).min()) if rhs.size else math.inf
    return IdentifiabilityReport(bool(np.all(lhs < rhs)), margins, worst)


def _check_ratio(r) -> None:
    """ValidationError naming ``r`` unless it is a positive real number."""
    if problem := _not_real("variance ratio", r):
        raise ValidationError(problem)
    if not r > 0.0:
        raise ValidationError(f"variance ratio must be positive, got {r!r}")


def bivariate_weight_threshold(r: float) -> float:
    """Smallest beta^2 guaranteeing two-node identifiability at variance ratio r
    under the variance-ratio condition: max(0, 1 - r^2).
    """
    _check_ratio(r)
    return max(0.0, 1.0 - r * r)


def bivariate_weight_threshold_conservative(r: float) -> float:
    """The stricter classical two-node threshold, piecewise in the ratio r."""
    _check_ratio(r)
    r2 = r * r
    if r >= 1.0:
        return r2 * ((r2 - 1.0) + math.sqrt(r2 * r2 - 1.0))
    return (1.0 - r2) + math.sqrt(1.0 - r2 * r2)


def _propagate(m: GaussianSem, noise: np.ndarray) -> np.ndarray:
    """Push noise through the structural equations in topological order."""
    x = np.zeros_like(noise)
    for j in topological_order(m.dag):
        x[:, j] = m.intercepts[j] + x @ m.B[j] + noise[:, j]
    return x


def _sample_size_problem(n) -> str | None:
    """The problem with ``n`` as a number of rows to draw, or None."""
    if not _is_int(n):
        return f"sample size must be an integer, got {n!r}"
    return None if n >= 1 else f"sample size must be >= 1, got {n}"


def sample(m: GaussianSem, n: int, seed: int) -> Dataset:
    """Draw n rows; deterministic for a fixed seed. Columns follow node indices."""
    _model(m, "sample needs")
    if problem := _sample_size_problem(n):
        raise ValidationError(problem)
    rng = seeded_rng(seed)
    try:
        noise = rng.standard_normal((n, m.p))
    except (ValueError, MemoryError):
        raise ValidationError(
            f"sample size n={n} is too large to hold an n x p array at p={m.p}") from None
    names = tuple(f"X{j}" for j in range(m.p))
    return Dataset(names, _propagate(m, noise * np.sqrt(m.sigma2)))


#: per-protocol open interval in which a drawn weight is zeroed out
WEIGHT_WINDOWS: dict[str, float] = {"homogeneous": 0.25, "heterogeneous": 1.0}


def random_sem(p: int, protocol: Protocol, seed: int) -> GaussianSem:
    """Random model: uniform random ordering, candidate weight for every pair.

    Weights are uniform on [-2, 2] and zeroed inside the protocol's window
    (|b| < 0.25 homogeneous, |b| < 1 heterogeneous); homogeneous fixes all
    error variances at 1, heterogeneous draws them uniform on [1, 3].
    """
    if not _is_int(p):
        raise ValidationError(f"node count must be an integer, got {p!r}")
    if p < 2:
        raise ValidationError(f"need at least 2 nodes, got {p}")
    if protocol not in WEIGHT_WINDOWS:
        raise ValidationError(f"unknown protocol {protocol!r}")
    rng = seeded_rng(seed)
    b = _square(p, float)
    perm = rng.permutation(p)
    # (later, earlier) position pairs in row-major order, the order of the draws
    later, earlier = _triangle(p)
    betas = rng.uniform(-2.0, 2.0, size=later.size)
    keep = np.abs(betas) >= WEIGHT_WINDOWS[protocol]
    b[perm[later[keep]], perm[earlier[keep]]] = betas[keep]
    if protocol == "homogeneous":
        sigma2 = np.ones(p)
    else:
        sigma2 = rng.uniform(1.0, 3.0, size=p)
    return GaussianSem(B=b, sigma2=sigma2)


def nonfaithful_chain() -> GaussianSem:
    """The fixed 3-node model X1=e1, X2=X1+e2, X3=X1+X2+e3 whose precision has
    an exact zero between X1 and X2 although both structural edges exist.
    """
    b = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    return GaussianSem(B=b, sigma2=np.array([2.25, 1.5, 1.5]))


def protocol_sem(protocol: str, p: int, seed: int) -> GaussianSem:
    """``nonfaithful_chain()`` for "nonfaithful", else ``random_sem(p, protocol, seed)``."""
    if protocol == "nonfaithful":
        return nonfaithful_chain()
    return random_sem(p, protocol, seed)


# --- SEM text format ---------------------------------------------------------
# Key-value lines: "p N", "sigma2 v0 .. v{p-1}", "intercept v0 .. v{p-1}", and
# one "edge parent child beta" line per edge. Numbers use 17 significant
# digits, so write/read round-trips are exact.


def format_sem(m: GaussianSem) -> str:
    def fmt(x: float) -> str:
        return f"{x:.17g}"

    lines = [f"p {m.p}"]
    lines.append("sigma2 " + " ".join(fmt(v) for v in m.sigma2))
    lines.append("intercept " + " ".join(fmt(v) for v in m.intercepts))
    for k, j in sorted(m.dag.edges):
        lines.append(f"edge {k} {j} {fmt(m.B[j, k])}")
    return "\n".join(lines) + "\n"


def write_sem(m: GaussianSem, path) -> None:
    write_text(path, format_sem(m))


def read_sem(path) -> GaussianSem:
    p = None
    vectors: dict[str, np.ndarray] = {}  # the "sigma2" and "intercept" values
    edges: list[tuple[int, int, float, int]] = []
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *rest = line.split()
        if kind in first_line and kind != "edge":
            raise DataFormatError(f"{path}:{lineno}: {kind} repeats line {first_line[kind]}")
        first_line[kind] = lineno
        try:
            if kind == "p":
                (p,) = rest
                p = int(p)
                if p < 1:
                    raise DataFormatError(f"{path}:{lineno}: p must be >= 1, got {p}")
            elif kind in ("sigma2", "intercept"):
                vectors[kind] = np.array([float(v) for v in rest])
            elif kind == "edge":
                parent, child, beta = rest
                edges.append((int(parent), int(child), float(beta), lineno))
            else:
                raise DataFormatError(f"{path}:{lineno}: unknown field {kind!r}")
        except (ValueError, TypeError):
            raise DataFormatError(f"{path}:{lineno}: cannot parse {line!r}") from None
    if p is None or "sigma2" not in vectors:
        raise DataFormatError(f"{path}: missing required 'p' or 'sigma2' field")
    # value counts first: a short line is named even where p x p cannot be held
    for kind in ("sigma2", "intercept"):
        if (values := vectors.get(kind)) is not None and len(values) != p:
            raise DataFormatError(
                f"{path}:{first_line[kind]}: {kind} has {len(values)} values for p={p}"
            )
    b = _located(path, _square, p, float)
    for parent, child, beta, lineno in edges:
        if not (0 <= parent < p and 0 <= child < p):
            raise DataFormatError(f"{path}:{lineno}: edge ({parent},{child}) out of range")
        edge = f"edge ({parent},{child})"
        if edge in first_line:
            raise DataFormatError(f"{path}:{lineno}: {edge} repeats line {first_line[edge]}")
        first_line[edge] = lineno
        b[child, parent] = beta
    return _located(path, GaussianSem, b, vectors["sigma2"], vectors.get("intercept"))
