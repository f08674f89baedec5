"""Command-line entry point.

Subcommands: learn, simulate, bench, check, cpdag. Exit codes are a stable
scripting contract: 0 success, 1 validation/parse error (or an unsatisfied
identifiability check), 2 numerical degeneracy, 3 I/O failure. The default
output directory comes from $CVDAG_OUTDIR, falling back to the working
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from .datasets import load_marks, parse_dataset, write_dataset
from .errors import DataFormatError, ReportIOError, ToolkitError, ValidationError
from .graphs import dag_to_cpdag, read_dag, write_graph
from .learner import LearnConfig, LearnResult, learn
from .sem import (
    check_identifiability,
    derive_seed,
    nonfaithful_chain,
    random_sem,
    read_sem,
    sample,
    write_sem,
)

PROTOCOLS = ("homogeneous", "heterogeneous", "nonfaithful")


class _UsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _default_outdir() -> str:
    return os.environ.get("CVDAG_OUTDIR", ".")


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise ReportIOError(f"cannot read {path}: {exc}") from exc


def _outdir(args) -> Path:
    out = Path(args.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ReportIOError(f"cannot create output directory {out}: {exc}") from exc
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="cvdag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-o", "--output", default=_default_outdir(),
                       help="output directory (default: $CVDAG_OUTDIR or '.')")
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="print extra diagnostics")

    p = sub.add_parser("learn", help="estimate a directed graph from a dataset file")
    p.add_argument("input", help="delimited dataset with a header row, or 'marks' "
                                 "for the bundled examination-marks fixture")
    p.add_argument("--alpha", type=float, default=0.01,
                   help="significance level of the parent tests (default 0.01)")
    p.add_argument("--parent-test", choices=("conditional", "marginal"),
                   default="conditional", dest="parent_test",
                   help="conditioning mode of the parent tests")
    add_common(p)

    p = sub.add_parser("simulate", help="sample a dataset from a model")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--sem", help="model file to sample from")
    src.add_argument("--protocol", choices=PROTOCOLS,
                     help="generate a random model from this protocol instead")
    p.add_argument("--p", type=int, default=10,
                   help="node count for --protocol (default 10)")
    p.add_argument("--n", type=int, required=True, help="number of rows to draw")
    p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    p.add_argument("--save-sem", action="store_true",
                   help="also write the generating model next to the dataset")
    add_common(p)

    p = sub.add_parser("check", help="check the identifiability condition of a model")
    p.add_argument("sem", help="model file")
    p.add_argument("--scope", choices=("descendants", "later"), default="descendants",
                   help="compare each node against its descendants (default) or "
                        "against every later node of the ordering")
    add_common(p)

    p = sub.add_parser("bench", help="run a replicated experiment from a config file")
    p.add_argument("config", help="JSON experiment config")
    p.add_argument("--replications", type=int, default=None,
                   help="override the config's replication count")
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel cell workers (default 1)")
    add_common(p)

    p = sub.add_parser("cpdag", help="convert a graph file to its equivalence class")
    p.add_argument("graph", help="graph file (one 'parent child' line per edge)")
    add_common(p)

    return parser


def _load_dataset(arg: str):
    if arg == "marks":
        return load_marks()
    path = Path(arg)
    return parse_dataset(_read_text(path), where=str(path))


def _load_sem(path_str: str):
    try:
        return read_sem(path_str)
    except OSError as exc:
        raise ReportIOError(f"cannot read {path_str}: {exc}") from exc


def _print_result(ds, result: LearnResult, verbose: int):
    names = ds.names
    print("ordering:", " ".join(names[j] for j in result.ordering))
    if result.dag.edges:
        for a, b in sorted(result.dag.edges):
            print(f"edge: {names[a]} -> {names[b]}")
    else:
        print("edge: (none)")
    if verbose:
        for rec in result.test_log:
            given = ",".join(names[g] for g in rec.given) or "-"
            verdict = "dependent" if rec.dependent else "independent"
            print(f"test: {names[rec.earlier]} ~ {names[rec.later]} | {given}: "
                  f"r={rec.r:.4f} z={rec.statistic:.3f} -> {verdict}")


def _write_learn_outputs(out: Path, stem: str, ds, result: LearnResult):
    write_graph(result.dag, out / f"{stem}.graph")
    (out / f"{stem}.order").write_text(
        " ".join(str(j) for j in result.ordering) + "\n"
    )
    lines = ["earlier,later,given,r,statistic,threshold,dependent"]
    for rec in result.test_log:
        given = ";".join(str(g) for g in rec.given)
        lines.append(f"{rec.earlier},{rec.later},{given},{rec.r:.17g},"
                     f"{rec.statistic:.17g},{rec.threshold:.17g},{int(rec.dependent)}")
    (out / f"{stem}.tests.csv").write_text("\n".join(lines) + "\n")


def cmd_learn(args) -> int:
    ds = _load_dataset(args.input)
    cfg = LearnConfig(alpha=args.alpha, parent_test_mode=args.parent_test)
    result = learn(ds, cfg)
    out = _outdir(args)
    stem = "marks" if args.input == "marks" else Path(args.input).stem
    _write_learn_outputs(out, stem, ds, result)
    _print_result(ds, result, args.verbose)
    return 0


def _summarize_check(report, verbose: int):
    verdict = "satisfied" if report.satisfied else "NOT satisfied"
    print(f"identifiability: {verdict} "
          f"(checked {len(report.margins)} inequalities, "
          f"worst margin {report.worst_margin:.6g})")
    if verbose:
        for j, k, lhs, rhs in report.margins.tolist():
            print(f"margin: j={j} k={k} lhs={lhs:.6g} rhs={rhs:.6g} slack={rhs - lhs:.6g}")


def cmd_simulate(args) -> int:
    if args.n < 1:
        raise ValidationError(f"--n must be >= 1, got {args.n}")
    if args.sem:
        model = _load_sem(args.sem)
        stem = Path(args.sem).stem
    else:
        if args.protocol == "nonfaithful":
            model = nonfaithful_chain()
        else:
            model = random_sem(args.p, args.protocol, derive_seed(args.seed, 0))
        stem = f"{args.protocol}_p{model.p}"
    report = check_identifiability(model)
    _summarize_check(report, args.verbose)
    data = sample(model, args.n, derive_seed(args.seed, 1))
    out = _outdir(args)
    target = out / f"{stem}_n{args.n}_seed{args.seed}.csv"
    write_dataset(data, target)
    if args.save_sem:
        write_sem(model, out / f"{stem}_seed{args.seed}.sem")
    print(f"wrote {target}")
    return 0


def cmd_check(args) -> int:
    model = _load_sem(args.sem)
    report = check_identifiability(model, scope=args.scope)
    _summarize_check(report, args.verbose)
    out = _outdir(args)
    target = out / f"{Path(args.sem).stem}.margins.csv"
    lines = ["j,k,lhs,rhs,slack"]
    for j, k, lhs, rhs in report.margins.tolist():
        lines.append(f"{j},{k},{lhs:.17g},{rhs:.17g},{rhs - lhs:.17g}")
    target.write_text("\n".join(lines) + "\n")
    return 0 if report.satisfied else 1


def cmd_bench(args) -> int:
    raw = _read_text(Path(args.config))
    try:
        body = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{args.config}: invalid JSON: {exc}") from None
    if not isinstance(body, dict):
        raise DataFormatError(f"{args.config}: expected a JSON object")
    allowed = {"protocol", "p", "n_grid", "replications", "seed", "alpha",
               "parent_test_mode"}
    unknown = sorted(set(body) - allowed)
    if unknown:
        raise ValidationError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    if "n_grid" in body:
        body["n_grid"] = tuple(body["n_grid"])
    if body.get("protocol") == "nonfaithful":
        body.setdefault("p", 3)
    if args.replications is not None:
        body["replications"] = args.replications
    if args.seed is not None:
        body["seed"] = args.seed
    cfg = bench_mod.ExperimentConfig(**body)
    report = bench_mod.run_experiment(cfg, workers=args.workers)
    out = _outdir(args)
    written = bench_mod.emit_report(report, out)
    print(bench_mod.format_aggregate_table(report), end="")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_cpdag(args) -> int:
    path = Path(args.graph)
    try:
        dag = read_dag(path)
    except OSError as exc:
        raise ReportIOError(f"cannot read {path}: {exc}") from exc
    cp = dag_to_cpdag(dag)
    out = _outdir(args)
    target = out / f"{path.stem}.cpdag"
    write_graph(cp, target)
    print(f"wrote {target}")
    return 0


_COMMANDS = {
    "learn": cmd_learn,
    "simulate": cmd_simulate,
    "check": cmd_check,
    "bench": cmd_bench,
    "cpdag": cmd_cpdag,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ToolkitError as exc:
        print(f"cvdag: error: {exc}", file=sys.stderr)
        return exc.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
