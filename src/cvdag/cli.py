"""Command-line entry point.

Subcommands: learn, simulate, bench, check, cpdag. Exit codes are a stable
scripting contract: 0 success, 1 validation/parse error (or an unsatisfied
identifiability check), 2 numerical degeneracy, 3 I/O failure: any file
that cannot be read or written, output directories included. Inputs are read
by the library readers and outputs written by ``errors.write_files``, so the
I/O rule lives in ``errors`` alone. The default output directory comes from
$CVDAG_OUTDIR, falling back to the working directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from .datasets import format_dataset, load_marks, read_dataset
from .errors import DataFormatError, ToolkitError, ValidationError, read_text, write_files
from .graphs import dag_to_cpdag, format_graph, read_dag
from .learner import PARENT_TEST_MODES, LearnConfig, LearnResult, learn
from .sem import (
    PROTOCOLS,
    SCOPES,
    _sample_size_problem,
    check_identifiability,
    derive_seed,
    format_sem,
    protocol_sem,
    read_sem,
    sample,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="cvdag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-o", "--output", default=os.environ.get("CVDAG_OUTDIR", "."),
                       help="output directory (default: $CVDAG_OUTDIR or '.')")
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="print extra diagnostics")

    p = sub.add_parser("learn", help="estimate a directed graph from a dataset file")
    p.add_argument("input", help="delimited dataset with a header row, or 'marks' "
                                 "for the bundled examination-marks fixture")
    p.add_argument("--alpha", type=float, default=LearnConfig.alpha,
                   help="significance level of the parent tests (default %(default)s)")
    p.add_argument("--parent-test", choices=PARENT_TEST_MODES,
                   default=LearnConfig.parent_test_mode, dest="parent_test",
                   help="conditioning mode of the parent tests")
    add_common(p)

    p = sub.add_parser("simulate", help="sample a dataset from a model")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--sem", help="model file to sample from")
    src.add_argument("--protocol", choices=PROTOCOLS,
                     help="generate a random model from this protocol instead")
    p.add_argument("--p", type=int, default=None,
                   help="node count of a random --protocol model (default 10), else the model's")
    p.add_argument("--n", type=int, required=True, help="number of rows to draw")
    p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    p.add_argument("--save-sem", action="store_true",
                   help="also write the generating model next to the dataset")
    add_common(p)

    p = sub.add_parser("check", help="check the identifiability condition of a model")
    p.add_argument("sem", help="model file")
    p.add_argument("--scope", choices=SCOPES, default=SCOPES[0],
                   help="compare each node against its descendants (default) or "
                        "against every later node of the ordering")
    add_common(p)

    p = sub.add_parser("bench", help="run a replicated experiment from a config file")
    p.add_argument("config", help="JSON experiment config")
    p.add_argument("--replications", type=int, default=None,
                   help="override the config's replication count")
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    add_common(p)

    p = sub.add_parser("cpdag", help="convert a graph file to its equivalence class")
    p.add_argument("graph", help="graph file (one 'parent child' line per edge)")
    add_common(p)

    return parser


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


def cmd_learn(args) -> int:
    path = Path(args.input)
    ds = load_marks() if args.input == "marks" else read_dataset(path)
    cfg = LearnConfig(alpha=args.alpha, parent_test_mode=args.parent_test)
    result = learn(ds, cfg)
    tests = ((t.earlier, t.later, ";".join(map(str, t.given)), t.r, t.statistic, t.threshold,
              t.dependent) for t in result.test_log)
    write_files(args.output, {
        f"{path.stem}.graph": format_graph(result.dag),
        f"{path.stem}.order": " ".join(str(j) for j in result.ordering) + "\n",
        f"{path.stem}.tests.csv": bench_mod._csv(
            "earlier,later,given,r,statistic,threshold,dependent", tests),
    })
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
    if problem := _sample_size_problem(args.n):
        raise ValidationError(problem)
    if args.sem:
        model = read_sem(Path(args.sem))
        stem = Path(args.sem).stem
    else:
        p = 10 if args.p is None else args.p
        model = protocol_sem(args.protocol, p, derive_seed(args.seed, 0))
        stem = f"{args.protocol}_p{model.p}"
    if args.p is not None and args.p != model.p:
        raise ValidationError(f"--p {args.p} differs from the model's node count {model.p}")
    report = check_identifiability(model)
    _summarize_check(report, args.verbose)
    data = sample(model, args.n, derive_seed(args.seed, 1))
    files = {f"{stem}_n{args.n}_seed{args.seed}.csv": format_dataset(data)}
    if args.save_sem:
        files[f"{stem}_seed{args.seed}.sem"] = format_sem(model)
    written = write_files(args.output, files)
    print(f"wrote {written[0]}")
    return 0


def cmd_check(args) -> int:
    path = Path(args.sem)
    report = check_identifiability(read_sem(path), scope=args.scope)
    _summarize_check(report, args.verbose)
    margins = ((j, k, lhs, rhs, rhs - lhs) for j, k, lhs, rhs in report.margins.tolist())
    table = bench_mod._csv("j,k,lhs,rhs,slack", margins)
    write_files(args.output, {f"{path.stem}.margins.csv": table})
    return 0 if report.satisfied else 1


def cmd_bench(args) -> int:
    try:
        body = json.loads(read_text(args.config))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{args.config}: invalid JSON: {exc}") from None
    if not isinstance(body, dict):
        raise DataFormatError(f"{args.config}: expected a JSON object")
    allowed = {f.name for f in dataclasses.fields(bench_mod.ExperimentConfig)}
    unknown = sorted(set(body) - allowed)
    if unknown:
        raise ValidationError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    if body.get("protocol") == "nonfaithful":
        body.setdefault("p", 3)
    if args.replications is not None:
        body["replications"] = args.replications
    if args.seed is not None:
        body["seed"] = args.seed
    cfg = bench_mod.ExperimentConfig(**body)
    report = bench_mod.run_experiment(cfg)
    written = bench_mod.emit_report(report, args.output)
    print(bench_mod.format_aggregate_table(report), end="")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_cpdag(args) -> int:
    path = Path(args.graph)
    cp = dag_to_cpdag(read_dag(path))
    (target,) = write_files(args.output, {f"{path.stem}.cpdag": format_graph(cp)})
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
