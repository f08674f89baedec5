"""Replicated generate/sample/learn/score experiment runs with report emission.

Each (replication, sample size) cell draws its randomness from a stream
derived from (seed, replication, cell), so reports are reproducible for a
fixed config regardless of how many workers execute the cells. Wall-clock
seconds are the one field that cannot be bit-stable across reruns.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import ReportIOError, ToolkitError, ValidationError
from .graphs import dag_to_cpdag, hamming_cpdag, hamming_dag
from .learner import LearnConfig, learn
from .sem import (
    GaussianSem,
    check_identifiability,
    derive_seed,
    nonfaithful_chain,
    random_sem,
    sample,
)

BenchProtocol = Literal["homogeneous", "heterogeneous", "nonfaithful"]

# Desk-scale defaults: minutes on one core, not the hours of a full-size run.
DEFAULT_N_GRID = (100, 400, 700, 1000)
DEFAULT_REPLICATIONS = 20


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: BenchProtocol = "homogeneous"
    p: int = 10
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    replications: int = DEFAULT_REPLICATIONS
    seed: int = 0
    alpha: float = 0.01
    parent_test_mode: str = "conditional"

    def __post_init__(self):
        problems = []
        if self.protocol not in ("homogeneous", "heterogeneous", "nonfaithful"):
            problems.append(f"unknown protocol {self.protocol!r}")
        if self.protocol == "nonfaithful" and self.p != 3:
            problems.append("nonfaithful protocol uses the fixed 3-node model (p=3)")
        elif self.p < 2:
            problems.append(f"p must be >= 2, got {self.p}")
        if not self.n_grid:
            problems.append("n_grid must be nonempty")
        elif list(self.n_grid) != sorted(set(self.n_grid)):
            problems.append(f"n_grid must be strictly increasing, got {self.n_grid}")
        elif min(self.n_grid) <= self.p + 1:
            problems.append(f"smallest n={min(self.n_grid)} too small for p={self.p}")
        if self.replications < 1:
            problems.append(f"replications must be >= 1, got {self.replications}")
        if not 0.0 < self.alpha < 1.0:
            problems.append(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.parent_test_mode not in ("conditional", "marginal"):
            problems.append(f"unknown parent_test_mode {self.parent_test_mode!r}")
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


def _protocol_sem(cfg: ExperimentConfig, rep: int) -> GaussianSem:
    if cfg.protocol == "nonfaithful":
        return nonfaithful_chain()
    return random_sem(cfg.p, cfg.protocol, derive_seed(cfg.seed, rep, 0))


def _run_cell(cfg: ExperimentConfig, rep: int, n_index: int) -> Cell:
    n = cfg.n_grid[n_index]
    model = _protocol_sem(cfg, rep)
    data = sample(model, n, derive_seed(cfg.seed, rep, 1 + n_index))
    lcfg = LearnConfig(alpha=cfg.alpha, parent_test_mode=cfg.parent_test_mode)
    identifiable = False
    start = time.perf_counter()
    try:
        identifiable = check_identifiability(model).satisfied
        start = time.perf_counter()
        result = learn(data, lcfg)
    except ToolkitError as exc:
        return Cell(n, rep, math.nan, math.nan, time.perf_counter() - start,
                    identifiable, failed=True, error=str(exc))
    seconds = time.perf_counter() - start
    hd = hamming_dag(model.dag, result.dag)
    hd_mec = hamming_cpdag(dag_to_cpdag(model.dag), dag_to_cpdag(result.dag))
    return Cell(n, rep, float(hd), float(hd_mec), seconds, identifiable)


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


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run every (replication, n) cell; learner failures are recorded, not raised."""
    tasks = [(rep, i) for rep in range(cfg.replications) for i in range(len(cfg.n_grid))]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(lambda t: _run_cell(cfg, *t), tasks))
    else:
        cells = [_run_cell(cfg, rep, i) for rep, i in tasks]
    cells.sort(key=lambda c: (c.n, c.rep))
    return ExperimentReport(cfg, tuple(cells), aggregate(cfg, cells))


# --- report files ------------------------------------------------------------

CELL_HEADER = "protocol,p,n,rep,hamming_dag,hamming_cpdag,seconds,identifiable,failed"
AGG_HEADER = "protocol,p,n,mean_hd,se_hd,mean_hd_mec,se_hd_mec,mean_seconds"


def _fmt(x: float) -> str:
    return "" if math.isnan(x) else f"{x:.17g}"


def format_cell_table(rep: ExperimentReport) -> str:
    cfg = rep.config
    lines = [CELL_HEADER]
    for c in rep.cells:
        lines.append(
            f"{cfg.protocol},{cfg.p},{c.n},{c.rep},{_fmt(c.hamming_dag)},"
            f"{_fmt(c.hamming_cpdag)},{_fmt(c.seconds)},"
            f"{int(c.identifiable)},{int(c.failed)}"
        )
    return "\n".join(lines) + "\n"


def format_aggregate_table(rep: ExperimentReport) -> str:
    cfg = rep.config
    lines = [AGG_HEADER]
    for row in rep.aggregates:
        lines.append(
            f"{cfg.protocol},{cfg.p},{row.n},{_fmt(row.mean_hd)},{_fmt(row.se_hd)},"
            f"{_fmt(row.mean_hd_mec)},{_fmt(row.se_hd_mec)},{_fmt(row.mean_seconds)}"
        )
    return "\n".join(lines) + "\n"


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
    outdir = Path(outdir)
    files = {
        outdir / "cells.csv": format_cell_table(rep),
        outdir / "aggregate.csv": format_aggregate_table(rep),
        outdir / "hamming_vs_n.svg": render_chart_svg(rep),
    }
    written = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for path, text in files.items():
            path.write_text(text)
            written.append(path)
    except OSError as exc:
        raise ReportIOError(f"cannot write report under {outdir}: {exc}") from exc
    return written


def strip_timing(rep: ExperimentReport) -> ExperimentReport:
    """Copy of a report with wall-clock fields zeroed; equality on the rest."""
    cells = tuple(replace(c, seconds=0.0) for c in rep.cells)
    aggs = tuple(replace(a, mean_seconds=0.0) for a in rep.aggregates)
    return ExperimentReport(rep.config, cells, aggs)
