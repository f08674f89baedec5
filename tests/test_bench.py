import math

import numpy as np
import pytest

import cvdag.bench as bench
from cvdag.errors import (InsufficientSamplesError, NumericalDegeneracyError, ToolkitError,
                          ValidationError)
from cvdag.graphs import dag_to_cpdag, hamming_cpdag, hamming_dag
from cvdag.learner import learn
from cvdag.sem import derive_seed, nonfaithful_chain, random_sem, sample

TINY = bench.ExperimentConfig(
    protocol="nonfaithful", p=3, n_grid=(50, 100), replications=4, seed=11
)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = bench.ExperimentConfig()
        assert cfg.replications >= 1 and cfg.n_grid

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ValidationError) as err:
            bench.ExperimentConfig(protocol="nope", n_grid=(), replications=0,
                                   alpha=2.0)
        message = str(err.value)
        for fragment in ("protocol", "n_grid", "replications", "alpha"):
            assert fragment in message

    def test_type_violations_reported_at_once(self):
        with pytest.raises(ValidationError) as err:
            bench.ExperimentConfig(protocol=3, p="10", n_grid=[100.5, 200],
                                   replications=2.5, seed=-1, alpha="0.1",
                                   parent_test_mode=None)
        message = str(err.value)
        for key in ("protocol", "p", "n_grid", "replications", "seed", "alpha",
                    "parent_test_mode"):
            assert f"{key} must" in message

    def test_integer_likes_accepted(self):
        cfg = bench.ExperimentConfig(p=np.int64(3), n_grid=[np.int64(10), 20],
                                     replications=np.int32(1), seed=np.uint64(4),
                                     alpha=np.float64(0.05))
        assert cfg.n_grid == (10, 20) and type(cfg.n_grid[0]) is int

    def test_non_increasing_grid(self):
        with pytest.raises(ValidationError):
            bench.ExperimentConfig(n_grid=(100, 100))

    @pytest.mark.parametrize("args, message", [
        ({"p": 1}, "p must be >= 2, got 1"),
        ({"parent_test_mode": "partial"}, "unknown parent_test_mode 'partial'"),
    ])
    def test_single_violation_message(self, args, message):
        with pytest.raises(ValidationError) as err:
            bench.ExperimentConfig(**args)
        assert str(err.value) == f"invalid experiment config: {message}"

    def test_nonfaithful_pins_p(self):
        with pytest.raises(ValidationError):
            bench.ExperimentConfig(protocol="nonfaithful", p=5)

    def test_grid_must_exceed_p(self):
        with pytest.raises(ValidationError):
            bench.ExperimentConfig(p=10, n_grid=(10, 100))

    def test_grid_rule_is_the_learner_rule(self):
        message = "ordering needs n > p + 1 (n=11, p=10)"
        with pytest.raises(ValidationError) as err:
            bench.ExperimentConfig(p=10, n_grid=(11, 100))
        assert str(err.value) == f"invalid experiment config: {message}"
        with pytest.raises(InsufficientSamplesError) as err:
            learn(sample(random_sem(10, "homogeneous", 0), 11, 0))
        assert str(err.value) == message


class TestRunExperiment:
    def test_cell_count_and_order(self):
        report = bench.run_experiment(TINY)
        assert len(report.cells) == 2 * 4
        keys = [(c.n, c.rep) for c in report.cells]
        assert keys == sorted(keys)

    def test_deterministic_apart_from_wall_clock(self):
        a = bench.run_experiment(TINY)
        b = bench.run_experiment(TINY)
        assert bench.strip_timing(a) == bench.strip_timing(b)

    def test_aggregates_recomputable_from_cells(self):
        report = bench.run_experiment(TINY)
        assert bench.aggregate(report.config, report.cells) == report.aggregates

    def test_aggregate_mean_is_arithmetic_mean(self):
        report = bench.run_experiment(TINY)
        for row in report.aggregates:
            cells = [c for c in report.cells if c.n == row.n and not c.failed]
            mean = sum(c.hamming_dag for c in cells) / len(cells)
            assert abs(row.mean_hd - mean) <= 1e-12

    def test_heterogeneous_models_all_identifiable(self):
        cfg = bench.ExperimentConfig(protocol="heterogeneous", p=6,
                                     n_grid=(100,), replications=6, seed=3)
        report = bench.run_experiment(cfg)
        assert all(c.identifiable for c in report.cells)

    def test_mec_distance_sanity_bound(self):
        truth_edges = len(nonfaithful_chain().dag.edges)
        report = bench.run_experiment(TINY)
        for c in report.cells:
            assert c.hamming_cpdag <= c.hamming_dag + truth_edges

    def test_learner_failure_is_flagged_not_raised(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ToolkitError("synthetic failure")

        monkeypatch.setattr(bench, "learn", boom)
        report = bench.run_experiment(TINY)
        assert all(c.failed and "synthetic" in c.error for c in report.cells)
        assert all(math.isnan(c.hamming_dag) for c in report.cells)
        assert all(math.isnan(row.mean_hd) for row in report.aggregates)

    def test_model_check_failure_is_flagged_not_raised(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise NumericalDegeneracyError("identifiability check: stand-in failure")

        monkeypatch.setattr(bench, "check_identifiability", degenerate)
        cfg = bench.ExperimentConfig(protocol="homogeneous", p=4, n_grid=(100,),
                                     replications=1, seed=1)
        (cell,) = bench.run_experiment(cfg).cells
        assert cell.failed and "stand-in" in cell.error
        assert math.isnan(cell.hamming_dag)

    def test_model_built_and_checked_once_per_replication(self, monkeypatch):
        built, checked = [], []

        def build(protocol, p, seed):
            built.append(seed)
            return sem_for(protocol, p, seed)

        def check(model, *args, **kwargs):
            checked.append(model)
            return check_for(model, *args, **kwargs)

        sem_for, check_for = bench.protocol_sem, bench.check_identifiability
        monkeypatch.setattr(bench, "protocol_sem", build)
        monkeypatch.setattr(bench, "check_identifiability", check)
        cfg = bench.ExperimentConfig(protocol="heterogeneous", p=5, n_grid=(50, 100, 200),
                                     replications=3, seed=2)
        report = bench.run_experiment(cfg)
        assert sorted(built) == sorted(derive_seed(2, rep, 0) for rep in range(3))
        assert len(checked) == 3
        assert len(report.cells) == 9 and not any(c.failed for c in report.cells)

    def test_true_dag_converted_once_per_replication(self, monkeypatch):
        converted = []

        def convert(dag):
            converted.append(dag)
            return to_cpdag(dag)

        to_cpdag = bench.dag_to_cpdag
        monkeypatch.setattr(bench, "dag_to_cpdag", convert)
        cfg = bench.ExperimentConfig(protocol="heterogeneous", p=10, n_grid=(50, 100, 200),
                                     replications=4, seed=5)
        report = bench.run_experiment(cfg)
        assert not any(c.failed for c in report.cells)
        # one true DAG per replication, one learned DAG per cell
        assert len(converted) == 4 + 12 == 16

    def test_failed_check_fails_every_cell_of_the_replication(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise NumericalDegeneracyError("identifiability check: stand-in failure")

        monkeypatch.setattr(bench, "check_identifiability", degenerate)
        cfg = bench.ExperimentConfig(protocol="homogeneous", p=4, n_grid=(50, 100, 200),
                                     replications=2, seed=1)
        cells = bench.run_experiment(cfg).cells
        assert [(c.n, c.rep) for c in cells] == [(n, r) for n in cfg.n_grid for r in range(2)]
        for c in cells:
            assert c.failed and not c.identifiable and math.isnan(c.hamming_dag)
            assert c.error == "identifiability check: stand-in failure"

    def test_metrics_match_direct_recomputation(self):
        report = bench.run_experiment(TINY)
        truth = nonfaithful_chain().dag
        from cvdag.learner import learn
        from cvdag.sem import derive_seed, sample

        cell = report.cells[0]
        n_index = TINY.n_grid.index(cell.n)
        data = sample(nonfaithful_chain(), cell.n,
                      derive_seed(TINY.seed, cell.rep, 1 + n_index))
        result = learn(data)
        assert cell.hamming_dag == hamming_dag(truth, result.dag)
        assert cell.hamming_cpdag == hamming_cpdag(
            dag_to_cpdag(truth), dag_to_cpdag(result.dag)
        )


class TestEmitReport:
    def test_files_and_headers(self, tmp_path):
        report = bench.run_experiment(TINY)
        written = bench.emit_report(report, tmp_path)
        names = {p.name for p in written}
        assert names == {"cells.csv", "aggregate.csv", "hamming_vs_n.svg"}
        cells = (tmp_path / "cells.csv").read_text().splitlines()
        assert cells[0] == bench.CELL_HEADER
        assert len(cells) == 1 + len(report.cells)
        agg = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert agg[0] == bench.AGG_HEADER
        assert len(agg) == 1 + len(TINY.n_grid)

    def test_csv_number_rule(self):
        rows = [("a", 1, 2.5, math.nan, True, False, 0.1), ("", -3, math.inf, 1e-7, 0, 1.0, "x")]
        assert bench._csv("h", rows) == (
            "h\na,1,2.5,,1,0,0.10000000000000001\n,-3,inf,9.9999999999999995e-08,0,1,x\n"
        )

    def test_columns_are_the_header_fields(self):
        cfg = bench.ExperimentConfig(protocol="homogeneous", p=4, n_grid=(10,),
                                     replications=1)
        cell = bench.Cell(10, 0, math.nan, math.nan, 0.5, True, failed=True, error="e")
        report = bench.ExperimentReport(cfg, (cell,), bench.aggregate(cfg, (cell,)))
        assert bench.format_cell_table(report).splitlines()[1] == "homogeneous,4,10,0,,,0.5,1,1"
        assert bench.format_aggregate_table(report).splitlines()[1] == "homogeneous,4,10,,,,,"

    def test_one_cell_report(self, tmp_path):
        cfg = bench.ExperimentConfig(protocol="nonfaithful", p=3, n_grid=(60,),
                                     replications=1, seed=5)
        report = bench.run_experiment(cfg)
        bench.emit_report(report, tmp_path)
        assert len((tmp_path / "cells.csv").read_text().splitlines()) == 2

    def test_reemission_is_byte_identical(self, tmp_path):
        report = bench.run_experiment(TINY)
        bench.emit_report(report, tmp_path / "a")
        bench.emit_report(report, tmp_path / "b")
        for name in ("cells.csv", "aggregate.csv", "hamming_vs_n.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_chart_is_labeled_svg(self, tmp_path):
        report = bench.run_experiment(TINY)
        bench.emit_report(report, tmp_path)
        svg = (tmp_path / "hamming_vs_n.svg").read_text()
        assert svg.startswith("<svg")
        assert ">n</text>" in svg
        assert "mean Hamming distance" in svg
        assert "polyline" in svg
