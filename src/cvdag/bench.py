"""Replicated generate/sample/learn/score experiment runs with report emission.

Replications run one after another in one loop. Each builds and checks its
model, converts its true DAG to a CPDAG and builds its learner config once,
then runs every sample size. Each (replication, sample size) cell draws its
randomness from a stream derived from (seed, replication, cell), so a report
is a pure function of its config. Wall-clock seconds are the one field that
cannot be bit-stable across reruns. Every report table is formatted by
:func:`_csv`; a bench table's columns are the names in its header. Report
files are written by :func:`errors.write_files`, which holds the package's
one file I/O rule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ToolkitError, ValidationError, _count_problem, _instance, _is_int, write_files
from .graphs import dag_to_cpdag, hamming_cpdag, hamming_dag
from .learner import LearnConfig, _mode_problem, _size_problem, learn
from .numerics import _alpha_problem
from .sem import (
    PROTOCOLS,
    check_identifiability,
    derive_seed,
    protocol_sem,
    sample,
)

# Desk-scale defaults: minutes on one core, not the hours of a full-size run.
DEFAULT_N_GRID = (100, 400, 700, 1000)
DEFAULT_REPLICATIONS = 20


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str = "homogeneous"
    p: int = 10
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    replications: int = DEFAULT_REPLICATIONS
    seed: int = 0
    alpha: float = LearnConfig.alpha
    parent_test_mode: str = LearnConfig.parent_test_mode

    def __post_init__(self):
        problems = []
        if not isinstance(self.protocol, str):
            problems.append(f"protocol must be a string, got {self.protocol!r}")
        elif self.protocol not in PROTOCOLS:
            problems.append(f"unknown protocol {self.protocol!r}")
        if (isinstance(self.protocol, str) and self.protocol == "nonfaithful" and _is_int(self.p)
                and self.p != 3):
            problems.append("nonfaithful protocol uses the fixed 3-node model (p=3)")
        elif problem := _count_problem(self.p, "p", 2):
            problems.append(problem)
        if not (isinstance(self.n_grid, (list, tuple)) and all(map(_is_int, self.n_grid))):
            problems.append(f"n_grid must be a list of integers, got {self.n_grid!r}")
        elif not self.n_grid:
            problems.append("n_grid must be nonempty")
        elif list(self.n_grid) != sorted(set(self.n_grid)):
            problems.append(f"n_grid must be strictly increasing, got {self.n_grid}")
        elif _is_int(self.p) and (problem := _size_problem(min(self.n_grid), self.p,
                                                            "ordering needs")):
            problems.append(problem)
        problems += filter(None, (_count_problem(self.replications, "replications", 1),
                                  _count_problem(self.seed, "seed"), _alpha_problem(self.alpha),
                                  _mode_problem(self.parent_test_mode)))
        if problems:
            raise ValidationError("invalid experiment config: " + "; ".join(problems))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))


@dataclass(frozen=True)
class Cell:
    n: int
    rep: int
    hamming_dag: float
    hamming_cpdag: float
    seconds: float
    identifiable: bool
    failed: bool = False
    error: str = ""


@dataclass(frozen=True)
class AggregateRow:
    n: int
    mean_hd: float
    se_hd: float
    mean_hd_mec: float
    se_hd_mec: float
    mean_seconds: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    cells: tuple[Cell, ...]
    aggregates: tuple[AggregateRow, ...] = field(default=())


def _run_replication(cfg: ExperimentConfig, rep: int) -> list[Cell]:
    """The replication's cells, one per n, on one model checked once.

    A failed check fails every cell with its error and its wall time.
    """
    model = protocol_sem(cfg.protocol, cfg.p, derive_seed(cfg.seed, rep, 0))
    start = time.perf_counter()
    try:
        identifiable = check_identifiability(model).satisfied
    except ToolkitError as exc:
        seconds = time.perf_counter() - start
        return [Cell(n, rep, math.nan, math.nan, seconds, False, failed=True, error=str(exc))
                for n in cfg.n_grid]
    true_cpdag = dag_to_cpdag(model.dag)
    lcfg = LearnConfig(alpha=cfg.alpha, parent_test_mode=cfg.parent_test_mode)
    cells = []
    for i, n in enumerate(cfg.n_grid):
        data = sample(model, n, derive_seed(cfg.seed, rep, 1 + i))
        start = time.perf_counter()
        try:
            dag = learn(data, lcfg).dag
        except ToolkitError as exc:
            cells.append(Cell(n, rep, math.nan, math.nan, time.perf_counter() - start,
                              identifiable, failed=True, error=str(exc)))
            continue
        seconds = time.perf_counter() - start
        hd, hd_mec = hamming_dag(model.dag, dag), hamming_cpdag(true_cpdag, dag_to_cpdag(dag))
        cells.append(Cell(n, rep, float(hd), float(hd_mec), seconds, identifiable))
    return cells


def aggregate(cfg: ExperimentConfig, cells) -> tuple[AggregateRow, ...]:
    """Per-n mean and standard error over non-failed cells."""
    rows = []
    for n in cfg.n_grid:
        picked = [c for c in cells if c.n == n and not c.failed]
        if not picked:
            rows.append(AggregateRow(n, math.nan, math.nan, math.nan, math.nan, math.nan))
            continue
        hd = np.array([c.hamming_dag for c in picked])
        mec = np.array([c.hamming_cpdag for c in picked])
        secs = np.array([c.seconds for c in picked])

        def se(x):
            return float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0

        rows.append(AggregateRow(n, float(hd.mean()), se(hd), float(mec.mean()),
                                 se(mec), float(secs.mean())))
    return tuple(rows)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every (replication, n) cell; learner failures are recorded, not raised."""
    _instance(cfg, "run_experiment needs", ExperimentConfig)
    cells = [cell for rep in range(cfg.replications) for cell in _run_replication(cfg, rep)]
    cells.sort(key=lambda c: (c.n, c.rep))
    return ExperimentReport(cfg, tuple(cells), aggregate(cfg, cells))


# --- report files ------------------------------------------------------------

CELL_HEADER = "protocol,p,n,rep,hamming_dag,hamming_cpdag,seconds,identifiable,failed"
AGG_HEADER = "protocol,p,n,mean_hd,se_hd,mean_hd_mec,se_hd_mec,mean_seconds"


def _csv(header: str, rows) -> str:
    """CSV text of ``header`` and one line per row of values: a str is written
    as it is, NaN as an empty field, any other value with 17 significant
    digits, so a bool is 1 or 0 and an int its digits."""
    lines = [",".join(v if isinstance(v, str) else "" if math.isnan(v) else f"{v:.17g}"
                      for v in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"


def _report_table(header: str, cfg: ExperimentConfig, rows) -> str:
    """A bench table: protocol and p from ``cfg``, every further column of
    ``header`` the row's field of that name."""
    fields = header.split(",")[2:]
    return _csv(header, ((cfg.protocol, cfg.p, *(getattr(row, f) for f in fields))
                         for row in rows))


def format_cell_table(rep: ExperimentReport) -> str:
    return _report_table(CELL_HEADER, rep.config, rep.cells)


def format_aggregate_table(rep: ExperimentReport) -> str:
    return _report_table(AGG_HEADER, rep.config, rep.aggregates)


def render_chart_svg(rep: ExperimentReport) -> str:
    """Line chart of mean Hamming distance vs n; plain deterministic SVG text."""
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 30, 50
    rows = [r for r in rep.aggregates if not math.isnan(r.mean_hd)]
    xs = [r.n for r in rows]
    series = [
        ("graph", "#1f77b4", [r.mean_hd for r in rows]),
        ("equivalence class", "#d62728", [r.mean_hd_mec for r in rows]),
    ]
    ymax = max([v for _, _, vs in series for v in vs] + [1e-9])
    xmin, xmax = (min(xs), max(xs)) if xs else (0, 1)
    span_x = max(xmax - xmin, 1)

    def sx(x):
        return left + (x - xmin) / span_x * (width - left - right)

    def sy(y):
        return height - bottom - y / ymax * (height - top - bottom)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="{(left + width - right) / 2:.6g}" y="{height - 12}" '
        f'text-anchor="middle" font-size="14">n</text>',
        f'<text x="16" y="{(top + height - bottom) / 2:.6g}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 16 {(top + height - bottom) / 2:.6g})">'
        "mean Hamming distance</text>",
    ]
    for x in xs:
        out.append(
            f'<text x="{sx(x):.6g}" y="{height - bottom + 18}" text-anchor="middle" '
            f'font-size="11">{x}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        y = ymax * frac
        out.append(
            f'<text x="{left - 8}" y="{sy(y) + 4:.6g}" text-anchor="end" '
            f'font-size="11">{y:.3g}</text>'
        )
    for idx, (label, color, values) in enumerate(series):
        pts = " ".join(f"{sx(x):.6g},{sy(v):.6g}" for x, v in zip(xs, values))
        if pts:
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       'stroke-width="2"/>')
        ly = top + 16 * idx
        out.append(f'<line x1="{width - 210}" y1="{ly}" x2="{width - 185}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{width - 180}" y="{ly + 4}" font-size="12">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_report(rep: ExperimentReport, outdir) -> list[Path]:
    """Write cell table, aggregate table, and chart; byte-identical per report."""
    _instance(rep, "emit_report needs", ExperimentReport)
    return write_files(outdir, {
        "cells.csv": format_cell_table(rep),
        "aggregate.csv": format_aggregate_table(rep),
        "hamming_vs_n.svg": render_chart_svg(rep),
    })


def strip_timing(rep: ExperimentReport) -> ExperimentReport:
    """Copy of a report with wall-clock fields zeroed; equality on the rest."""
    cells = tuple(replace(c, seconds=0.0) for c in rep.cells)
    aggs = tuple(replace(a, mean_seconds=0.0) for a in rep.aggregates)
    return ExperimentReport(rep.config, cells, aggs)
