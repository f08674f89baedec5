import json

import numpy as np
import pytest

import cvdag.sem as sem
from cvdag.cli import main
from cvdag.datasets import read_dataset
from cvdag.graphs import read_cpdag, read_dag, write_graph, Dag
from cvdag.sem import nonfaithful_chain, write_sem, GaussianSem


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def chain_sem(tmp_path):
    path = tmp_path / "chain.sem"
    write_sem(nonfaithful_chain(), path)
    return path


class TestSimulate:
    def test_deterministic_files(self, tmp_path):
        for sub in ("a", "b"):
            assert run("simulate", "--protocol", "nonfaithful", "--n", 200,
                       "--seed", 7, "-o", tmp_path / sub) == 0
        fa = tmp_path / "a" / "nonfaithful_p3_n200_seed7.csv"
        fb = tmp_path / "b" / "nonfaithful_p3_n200_seed7.csv"
        assert fa.read_bytes() == fb.read_bytes()

    def test_heterogeneous_prints_identifiable(self, tmp_path, capsys):
        assert run("simulate", "--protocol", "heterogeneous", "--p", 20,
                   "--n", 50, "-o", tmp_path) == 0
        out = capsys.readouterr().out
        assert "identifiability: satisfied" in out

    def test_dense_p80_model_runs(self, tmp_path):
        assert run("simulate", "--protocol", "heterogeneous", "--p", 80,
                   "--n", 100, "-o", tmp_path) == 0

    def test_zero_rows_rejected(self, tmp_path):
        assert run("simulate", "--protocol", "nonfaithful", "--n", 0,
                   "-o", tmp_path) == 1

    def test_from_sem_file(self, chain_sem, tmp_path):
        assert run("simulate", "--sem", chain_sem, "--n", 30, "--seed", 2,
                   "-o", tmp_path) == 0
        ds = read_dataset(tmp_path / "chain_n30_seed2.csv")
        assert ds.n == 30 and ds.p == 3

    def test_bad_sem_file(self, tmp_path):
        bad = tmp_path / "bad.sem"
        bad.write_text("p 2\nsigma2 1 x\n")
        assert run("simulate", "--sem", bad, "--n", 10, "-o", tmp_path) == 1

    def test_missing_sem_file_is_io_error(self, tmp_path):
        assert run("simulate", "--sem", tmp_path / "nope.sem", "--n", 10,
                   "-o", tmp_path) == 3


class TestLearn:
    def test_round_trip_from_simulate(self, tmp_path, capsys):
        run("simulate", "--protocol", "nonfaithful", "--n", 5000, "--seed", 3,
            "-o", tmp_path)
        data = tmp_path / "nonfaithful_p3_n5000_seed3.csv"
        assert run("learn", data, "-o", tmp_path) == 0
        out = capsys.readouterr().out
        assert "ordering: X0 X1 X2" in out
        dag = read_dag(tmp_path / "nonfaithful_p3_n5000_seed3.graph")
        assert dag.edges == {(0, 1), (0, 2), (1, 2)}
        order = (tmp_path / "nonfaithful_p3_n5000_seed3.order").read_text()
        assert order == "0 1 2\n"
        tests = (tmp_path / "nonfaithful_p3_n5000_seed3.tests.csv").read_text()
        assert tests.splitlines()[0] == \
            "earlier,later,given,r,statistic,threshold,dependent"
        assert len(tests.splitlines()) == 4  # header + three tested pairs

    def test_marks_bundled_fixture(self, tmp_path, capsys):
        assert run("learn", "marks", "--alpha", 0.05, "-o", tmp_path) == 0
        out = capsys.readouterr().out
        assert "ordering: algebra" in out
        dag = read_dag(tmp_path / "marks.graph")
        assert len(dag.edges) == 6

    def test_malformed_row_names_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3,oops\n")
        assert run("learn", bad, "-o", tmp_path) == 1
        assert ":3" in capsys.readouterr().err

    def test_wrong_arity_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2,3\n")
        assert run("learn", bad, "-o", tmp_path) == 1

    def test_missing_value_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,\n2,3\n")
        assert run("learn", bad, "-o", tmp_path) == 1

    def test_header_only_file(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("a,b\n")
        assert run("learn", bad, "-o", tmp_path) == 1

    def test_single_data_row(self, tmp_path):
        bad = tmp_path / "one.csv"
        bad.write_text("a,b\n1,2\n")
        assert run("learn", bad, "-o", tmp_path) == 1

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("learn", tmp_path / "ghost.csv", "-o", tmp_path) == 3

    def test_verbose_prints_test_log(self, tmp_path, capsys):
        run("simulate", "--protocol", "nonfaithful", "--n", 500, "--seed", 4,
            "-o", tmp_path)
        assert run("learn", tmp_path / "nonfaithful_p3_n500_seed4.csv",
                   "-v", "-o", tmp_path) == 0
        assert "test: " in capsys.readouterr().out


class TestCheck:
    def test_satisfied_exits_zero(self, chain_sem, tmp_path):
        assert run("check", chain_sem, "-o", tmp_path) == 0
        margins = (tmp_path / "chain.margins.csv").read_text().splitlines()
        assert margins[0] == "j,k,lhs,rhs,slack"
        assert len(margins) == 4

    def test_edgeless_model_writes_header_only(self, tmp_path):
        path = tmp_path / "edgeless.sem"
        write_sem(GaussianSem(B=np.zeros((4, 4)), sigma2=np.ones(4)), path)
        assert run("check", path, "-o", tmp_path) == 0
        assert (tmp_path / "edgeless.margins.csv").read_text() == "j,k,lhs,rhs,slack\n"

    def test_unidentifiable_exits_nonzero(self, tmp_path):
        m = GaussianSem(B=np.array([[0.0, 0.0], [0.2, 0.0]]),
                        sigma2=np.array([1.0, 0.1]))
        path = tmp_path / "weak.sem"
        write_sem(m, path)
        assert run("check", path, "-o", tmp_path) == 1

    def test_boundary_equality_exits_nonzero(self, tmp_path):
        # beta^2 exactly equal to 1 - r^2: strict inequality required
        m = GaussianSem(B=np.array([[0.0, 0.0], [np.sqrt(0.5), 0.0]]),
                        sigma2=np.array([1.0, 0.5]))
        path = tmp_path / "edge.sem"
        write_sem(m, path)
        assert run("check", path, "-o", tmp_path) == 1

    def test_later_scope_flag(self, chain_sem, tmp_path):
        assert run("check", chain_sem, "--scope", "later", "-o", tmp_path) == 0

    @pytest.mark.parametrize("command", [("check",), ("simulate", "--n", 50, "--sem")])
    def test_failed_self_check_exits_two(self, command, tmp_path, capsys, monkeypatch):
        # a total effect that the structural form B A never reads, corrupted
        exact = sem._total_effects

        def corrupted(m):
            a = exact(m)
            a[2, 0] *= 1.0 + 1e-6
            return a

        monkeypatch.setattr(sem, "_total_effects", corrupted)
        path = tmp_path / "chain.sem"
        write_sem(nonfaithful_chain(), path)
        assert run(*command, path, "-o", tmp_path) == 2
        assert "self-check failed at (j=0, k=2)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [("check",), ("simulate", "--n", 50, "--sem")])
    def test_overflowing_total_effects_exit_two(self, command, tmp_path, capsys):
        b = np.zeros((3, 3))
        b[1, 0] = b[2, 1] = 1e200
        path = tmp_path / "huge.sem"
        write_sem(GaussianSem(B=b, sigma2=np.ones(3)), path)
        assert run(*command, path, "-o", tmp_path) == 2
        err = capsys.readouterr().err
        assert "total effects: " in err and "at (k=1, i=0)" in err


class TestCpdag:
    def test_chain_file_goes_undirected(self, tmp_path):
        src = tmp_path / "chain.graph"
        write_graph(Dag(3, frozenset({(0, 1), (1, 2)})), src)
        assert run("cpdag", src, "-o", tmp_path) == 0
        cp = read_cpdag(tmp_path / "chain.cpdag")
        assert cp.directed == frozenset()
        assert cp.undirected == {(0, 1), (1, 2)}

    def test_collider_stays_directed(self, tmp_path):
        src = tmp_path / "collider.graph"
        write_graph(Dag(3, frozenset({(0, 2), (1, 2)})), src)
        run("cpdag", src, "-o", tmp_path)
        cp = read_cpdag(tmp_path / "collider.cpdag")
        assert cp.directed == {(0, 2), (1, 2)}

    def test_marks_shape_goes_undirected(self, tmp_path):
        src = tmp_path / "marks_est.graph"
        write_graph(Dag(5, frozenset(
            {(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (4, 3)})), src)
        run("cpdag", src, "-o", tmp_path)
        cp = read_cpdag(tmp_path / "marks_est.cpdag")
        assert cp.directed == frozenset()
        assert len(cp.undirected) == 6

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("cpdag", tmp_path / "nothing.graph", "-o", tmp_path) == 3


class TestBenchCommand:
    def config(self, tmp_path, **overrides):
        body = {"protocol": "nonfaithful", "p": 3, "n_grid": [50, 100],
                "replications": 3, "seed": 9}
        body.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(body))
        return path

    def test_runs_and_emits(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        assert run("bench", cfg, "-o", tmp_path / "out") == 0
        out = capsys.readouterr().out
        assert out.startswith("protocol,p,n,mean_hd")
        for name in ("cells.csv", "aggregate.csv", "hamming_vs_n.svg"):
            assert (tmp_path / "out" / name).exists()

    def test_rerun_identical_apart_from_seconds(self, tmp_path):
        cfg = self.config(tmp_path)
        run("bench", cfg, "-o", tmp_path / "r1")
        run("bench", cfg, "-o", tmp_path / "r2")

        def strip(path):
            rows = [ln.split(",") for ln in path.read_text().splitlines()]
            head = rows[0]
            drop = [i for i, col in enumerate(head)
                    if "seconds" in col]
            return [[f for i, f in enumerate(row) if i not in drop]
                    for row in rows]

        for name in ("cells.csv", "aggregate.csv"):
            assert strip(tmp_path / "r1" / name) == strip(tmp_path / "r2" / name)

    def test_zero_replications_rejected(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        assert run("bench", cfg, "--replications", 0, "-o", tmp_path) == 1
        assert "replications" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run("bench", bad, "-o", tmp_path) == 1

    def test_unknown_keys_listed(self, tmp_path, capsys):
        cfg = self.config(tmp_path, extra_knob=1)
        assert run("bench", cfg, "-o", tmp_path) == 1
        assert "extra_knob" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        assert run("bench", tmp_path / "none.json", "-o", tmp_path) == 3

    def test_nonfaithful_config_defaults_p(self, tmp_path):
        cfg = tmp_path / "nf.json"
        cfg.write_text(json.dumps({"protocol": "nonfaithful", "n_grid": [50],
                                   "replications": 2}))
        assert run("bench", cfg, "-o", tmp_path / "nf") == 0

    def test_empty_config_uses_desk_scale_defaults(self, tmp_path):
        import time

        cfg = tmp_path / "default.json"
        cfg.write_text("{}")
        start = time.perf_counter()
        assert run("bench", cfg, "-o", tmp_path / "dflt") == 0
        assert time.perf_counter() - start < 600.0
        cells = (tmp_path / "dflt" / "cells.csv").read_text().splitlines()
        assert len(cells) == 1 + 20 * 4  # replications x n-grid cells


class TestContract:
    def test_unknown_flag_is_validation_error(self, tmp_path, capsys):
        assert run("learn", "marks", "--nonsense", "-o", tmp_path) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run("transmogrify") == 1

    def test_degenerate_data_is_exit_two(self, tmp_path, capsys):
        # a constant column wins the first ordering step (zero variance) and
        # then defeats every later regression
        rows = "\n".join(f"7,{v}" for v in range(12))
        bad = tmp_path / "flat.csv"
        bad.write_text(f"a,b\n{rows}\n")
        assert run("learn", bad, "-o", tmp_path) == 2
        assert "error" in capsys.readouterr().err

    def test_outdir_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CVDAG_OUTDIR", str(tmp_path / "envout"))
        assert run("simulate", "--protocol", "nonfaithful", "--n", 20,
                   "--seed", 1) == 0
        assert (tmp_path / "envout" / "nonfaithful_p3_n20_seed1.csv").exists()

    def test_save_sem_round_trips_through_learn(self, tmp_path):
        run("simulate", "--protocol", "heterogeneous", "--p", 4, "--n", 400,
            "--seed", 6, "--save-sem", "-o", tmp_path)
        sem_file = tmp_path / "heterogeneous_p4_seed6.sem"
        data_file = tmp_path / "heterogeneous_p4_n400_seed6.csv"
        assert sem_file.exists() and data_file.exists()
        assert run("learn", data_file, "-o", tmp_path) == 0
