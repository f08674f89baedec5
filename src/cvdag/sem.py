"""Gaussian linear SEMs: population algebra, identifiability checks,
random generators for the experiment protocols, seeded sampling, and the
text serialization format.

A model is X = B0 + B X + eps with independent eps_j ~ N(0, sigma2_j); entry
B[j, k] is the weight of edge k -> j and its nonzero pattern must be acyclic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import DataFormatError, NumericalDegeneracyError, ValidationError
from .graphs import Dag, Ordering, descendants, is_consistent, topological_order
from .numerics import Dataset, _cholesky, schur_variances

Protocol = Literal["homogeneous", "heterogeneous"]

# Relative tolerance for the internal law-of-total-variance self-check; dense
# weighted graphs push covariance magnitudes up geometrically with p, so the
# comparison must scale with the values it compares.
_LTV_RTOL = 1e-9


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """PCG64 stream derived from (seed, key...). Same inputs, same stream,
    on every platform numpy supports; disjoint keys give independent streams.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic child seed for (seed, key...), e.g. one per replication."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True, eq=False)
class GaussianSem:
    """Edge weights B (child-row convention), error variances, intercepts."""

    B: np.ndarray = field(repr=False)
    sigma2: np.ndarray
    intercepts: np.ndarray | None = None

    def __post_init__(self):
        b = np.array(self.B, dtype=float)  # copy: the instance owns its arrays
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValidationError(f"B must be square, got shape {b.shape}")
        p = b.shape[0]
        s2 = np.array(self.sigma2, dtype=float).reshape(-1)
        if s2.shape != (p,):
            raise ValidationError(f"sigma2 must have length {p}")
        if not np.all(s2 > 0.0):
            raise ValidationError("error variances must be strictly positive")
        b0 = self.intercepts
        b0 = np.zeros(p) if b0 is None else np.array(b0, dtype=float).reshape(-1)
        if b0.shape != (p,):
            raise ValidationError(f"intercepts must have length {p}")
        if np.any(np.diag(b) != 0.0):
            raise ValidationError("diagonal of B must be zero")
        # edge k -> j whenever B[j, k] != 0; Dag construction rejects cycles
        edges = frozenset(
            (int(k), int(j)) for j in range(p) for k in range(p) if b[j, k] != 0.0
        )
        dag = Dag(p, edges)
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


@dataclass(frozen=True)
class Margin:
    """One checked inequality: needs lhs < rhs strictly."""

    j: int
    k: int
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class IdentifiabilityReport:
    satisfied: bool
    margins: tuple[Margin, ...]
    worst_margin: float


def population_covariance(m: GaussianSem) -> np.ndarray:
    """Exact covariance (I - B)^-1 Sigma_eps (I - B)^-T of the model."""
    eye = np.eye(m.p)
    a = np.linalg.solve(eye - m.B, eye)  # (I - B)^-1, exists by acyclicity
    cov = (a * m.sigma2) @ a.T
    return (cov + cov.T) / 2.0


def population_precision(m: GaussianSem) -> np.ndarray:
    """Exact inverse covariance (I - B)^T Sigma_eps^-1 (I - B)."""
    eye_b = np.eye(m.p) - m.B
    return eye_b.T @ ((1.0 / m.sigma2)[:, None] * eye_b)


def population_conditional_variance(cov: np.ndarray, k: int, given) -> float:
    """Var(X_k | X_given) from a covariance, by Schur complement."""
    given = tuple(given)
    if k in given:
        raise ValidationError(f"variable {k} cannot appear in its conditioning set")
    return float(schur_variances(cov, given, [k])[0])


def check_identifiability(
    m: GaussianSem,
    pi: Ordering | None = None,
    scope: Literal["descendants", "later"] = "descendants",
) -> IdentifiabilityReport:
    """Check the conditional-variance ordering condition along ``pi``.

    For each position with node j, every compared node k (descendants of j by
    default; every later node with scope="later") must satisfy
    sigma_j^2 < Var(X_k | predecessors of j). Each right-hand side is verified
    internally against its law-of-total-variance form
    sigma_k^2 + Var(E(X_k | parents) | predecessors) computed from B directly;
    a disagreement beyond float64 rounding raises NumericalDegeneracyError.
    """
    if pi is None:
        pi = topological_order(m.dag)
    if not is_consistent(pi, m.dag):
        raise ValidationError("ordering is not consistent with the model's graph")
    cov = population_covariance(m)
    margins: list[Margin] = []
    for pos, j in enumerate(pi):
        prefix = tuple(pi[i] for i in range(pos))
        if scope == "later":
            targets = [pi[i] for i in range(pos + 1, m.p)]
        else:
            targets = sorted(descendants(m.dag, j))
        if not targets:
            continue
        cond = _conditional_covariance(cov, prefix)
        for k in targets:
            rhs = float(cond[k, k])
            w = m.B[k]
            rhs_alt = float(m.sigma2[k] + w @ cond @ w)
            # rounding scales with the marginal variance the Schur complement
            # cancels down from, not with the conditional value itself
            if abs(rhs - rhs_alt) > _LTV_RTOL * max(1.0, cov[k, k]):
                raise NumericalDegeneracyError(
                    f"identifiability check: law-of-total-variance self-check failed at"
                    f" (j={j}, k={k}): Schur complement {rhs!r} vs structural form"
                    f" {rhs_alt!r}"
                )
            margins.append(Margin(j=j, k=k, lhs=float(m.sigma2[j]), rhs=rhs))
    worst = min((g.slack for g in margins), default=math.inf)
    satisfied = all(g.lhs < g.rhs for g in margins)
    return IdentifiabilityReport(satisfied, tuple(margins), worst)


def _conditional_covariance(cov: np.ndarray, given: tuple[int, ...]) -> np.ndarray:
    """Full conditional covariance of X given X_given (given rows/cols zero)."""
    if not given:
        return cov
    s = list(given)
    low = _cholesky(cov[np.ix_(s, s)], jitter=False)
    w = np.linalg.solve(low, cov[s, :])
    cond = cov - w.T @ w
    cond[s, :] = 0.0
    cond[:, s] = 0.0
    return (cond + cond.T) / 2.0


def bivariate_weight_threshold(r: float) -> float:
    """Smallest beta^2 guaranteeing two-node identifiability at variance ratio r
    under the variance-ratio condition: max(0, 1 - r^2).
    """
    if r <= 0.0:
        raise ValidationError("variance ratio must be positive")
    return max(0.0, 1.0 - r * r)


def bivariate_weight_threshold_conservative(r: float) -> float:
    """The stricter classical two-node threshold, piecewise in the ratio r."""
    if r <= 0.0:
        raise ValidationError("variance ratio must be positive")
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


def sample(m: GaussianSem, n: int, seed: int) -> Dataset:
    """Draw n rows; deterministic for a fixed seed. Columns follow node indices."""
    if n < 1:
        raise ValidationError(f"sample size must be >= 1, got {n}")
    rng = seeded_rng(seed)
    noise = rng.standard_normal((n, m.p)) * np.sqrt(m.sigma2)
    names = tuple(f"X{j}" for j in range(m.p))
    return Dataset(names, _propagate(m, noise))


#: per-protocol open interval in which a drawn weight is zeroed out
WEIGHT_WINDOWS: dict[str, float] = {"homogeneous": 0.25, "heterogeneous": 1.0}


def random_sem(p: int, protocol: Protocol, seed: int) -> GaussianSem:
    """Random model: uniform random ordering, candidate weight for every pair.

    Weights are uniform on [-2, 2] and zeroed inside the protocol's window
    (|b| < 0.25 homogeneous, |b| < 1 heterogeneous); homogeneous fixes all
    error variances at 1, heterogeneous draws them uniform on [1, 3].
    """
    if p < 2:
        raise ValidationError(f"need at least 2 nodes, got {p}")
    if protocol not in WEIGHT_WINDOWS:
        raise ValidationError(f"unknown protocol {protocol!r}")
    rng = seeded_rng(seed)
    perm = rng.permutation(p)
    betas = rng.uniform(-2.0, 2.0, size=p * (p - 1) // 2)
    window = WEIGHT_WINDOWS[protocol]
    b = np.zeros((p, p))
    idx = 0
    for later in range(1, p):
        for earlier in range(later):
            beta = betas[idx]
            idx += 1
            if abs(beta) >= window:
                b[perm[later], perm[earlier]] = beta
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
    Path(path).write_text(format_sem(m))


def read_sem(path) -> GaussianSem:
    where = str(path)
    p = None
    sigma2 = None
    intercepts = None
    edges: list[tuple[int, int, float, int]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *rest = line.split()
        try:
            if kind == "p":
                (p,) = rest
                p = int(p)
            elif kind == "sigma2":
                sigma2 = np.array([float(v) for v in rest])
            elif kind == "intercept":
                intercepts = np.array([float(v) for v in rest])
            elif kind == "edge":
                parent, child, beta = rest
                edges.append((int(parent), int(child), float(beta), lineno))
            else:
                raise DataFormatError(f"{where}:{lineno}: unknown field {kind!r}")
        except (ValueError, TypeError):
            raise DataFormatError(f"{where}:{lineno}: cannot parse {line!r}") from None
    if p is None or sigma2 is None:
        raise DataFormatError(f"{where}: missing required 'p' or 'sigma2' field")
    b = np.zeros((p, p))
    for parent, child, beta, lineno in edges:
        if not (0 <= parent < p and 0 <= child < p):
            raise DataFormatError(f"{where}:{lineno}: edge ({parent},{child}) out of range")
        b[child, parent] = beta
    try:
        return GaussianSem(B=b, sigma2=sigma2, intercepts=intercepts)
    except ValidationError as exc:
        raise DataFormatError(f"{where}: {exc}") from None
