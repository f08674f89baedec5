import argparse
import json
import re

import numpy as np
import pytest

import cvdag.learner as learner
import cvdag.sem as sem
from cvdag.cli import build_parser, main
from cvdag.datasets import read_dataset, write_dataset
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

    @pytest.mark.parametrize("protocol", ["homogeneous", "nonfaithful"])
    def test_negative_seed_rejected(self, protocol, tmp_path, capsys):
        # once a bare ValueError from numpy's SeedSequence
        assert run("simulate", "--protocol", protocol, "--n", 10, "--seed", -1,
                   "-o", tmp_path) == 1
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--protocol", "--sem"])
    def test_p_the_model_cannot_have_is_refused(self, flag, chain_sem, tmp_path, capsys):
        # once ignored: nonfaithful --p 7 wrote nonfaithful_p3_n10_seed0.csv
        source = "nonfaithful" if flag == "--protocol" else chain_sem
        assert run("simulate", flag, source, "--p", 7, "--n", 10, "-o", tmp_path / "out") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cvdag: error: --p 7 differs from the model's node count 3\n"
        assert not (tmp_path / "out").exists()

    def test_p_the_model_has_is_accepted(self, chain_sem, tmp_path):
        assert run("simulate", "--protocol", "nonfaithful", "--p", 3, "--n", 10,
                   "-o", tmp_path) == 0
        assert run("simulate", "--sem", chain_sem, "--p", 3, "--n", 10, "-o", tmp_path) == 0
        assert (tmp_path / "chain_n10_seed0.csv").exists()

    def test_nonfaithful_without_p_unchanged(self, tmp_path, capsys):
        assert run("simulate", "--protocol", "nonfaithful", "--n", 10, "-o", tmp_path) == 0
        assert capsys.readouterr().out.endswith(
            f"wrote {tmp_path / 'nonfaithful_p3_n10_seed0.csv'}\n")
        assert read_dataset(tmp_path / "nonfaithful_p3_n10_seed0.csv").p == 3

    def test_from_sem_file(self, chain_sem, tmp_path):
        assert run("simulate", "--sem", chain_sem, "--n", 30, "--seed", 2,
                   "-o", tmp_path) == 0
        ds = read_dataset(tmp_path / "chain_n30_seed2.csv")
        assert ds.n == 30 and ds.p == 3

    def test_bad_sem_file(self, tmp_path):
        bad = tmp_path / "bad.sem"
        bad.write_text("p 2\nsigma2 1 x\n")
        assert run("simulate", "--sem", bad, "--n", 10, "-o", tmp_path) == 1

    @pytest.mark.parametrize("command", [("check",), ("simulate", "--n", 50, "--sem")])
    @pytest.mark.parametrize("text", [
        "p 2\nsigma2 1 1\nedge 0 1 nan\n",
        "p 2\nsigma2 1 inf\n",
        "p -1\nsigma2 1\n",
        "p 0\nsigma2\n",
    ])
    def test_invalid_sem_values_are_format_errors(self, command, text, tmp_path, capsys):
        # once reported as float64 overflow (exit 2), a traceback or an IndexError
        bad = tmp_path / "bad.sem"
        bad.write_text(text)
        assert run(*command, bad, "-o", tmp_path) == 1
        assert f"cvdag: error: {bad}" in capsys.readouterr().err

    def test_repeated_edge_is_format_error(self, tmp_path, capsys):
        # the second weight used to overwrite the first without a word
        bad = tmp_path / "twice.sem"
        bad.write_text("p 3\nsigma2 1 1 1\nedge 0 1 0.5\nedge 1 2 1.0\nedge 0 1 2.0\n")
        assert run("check", bad, "-o", tmp_path) == 1
        err = capsys.readouterr().err
        assert f"cvdag: error: {bad}:5: edge (0,1) repeats line 3" in err

    def test_repeated_field_is_format_error(self, tmp_path, capsys):
        # read as p=3, the last sigma2 winning, and exit 0
        bad = tmp_path / "twice.sem"
        bad.write_text("p 2\np 3\nsigma2 1 1 1\nsigma2 1 1 1\n")
        assert run("check", bad, "-o", tmp_path) == 1
        assert capsys.readouterr().err == f"cvdag: error: {bad}:2: p repeats line 1\n"

    @pytest.mark.parametrize("text, error", [
        ("p 1000000000\nsigma2 1\n", ":2: sigma2 has 1 values for p=1000000000"),
        ("p 2\nsigma2 1 1\nintercept 0\n", ":3: intercept has 1 values for p=2"),
    ])
    def test_value_count_checked_before_allocation(self, text, error, tmp_path, capsys):
        # p = 10**9 made the p x p weight matrix first: a numpy allocation traceback
        bad = tmp_path / "bad.sem"
        bad.write_text(text)
        assert run("check", bad, "-o", tmp_path) == 1
        assert capsys.readouterr().err == f"cvdag: error: {bad}{error}\n"

    def test_weight_matrix_too_large_to_hold(self, tmp_path, capsys, monkeypatch):
        # p = 100000 asks for a 74.5 GiB weight matrix, a bare MemoryError
        # traceback on a machine without it; the allocation is refused here on
        # any machine
        zeros = np.zeros

        def refuse(shape, *args, **kwargs):
            if shape == (100000, 100000):
                raise MemoryError
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", refuse)
        bad = tmp_path / "huge.sem"
        bad.write_text("p 100000\nsigma2" + " 1" * 100000 + "\n")
        assert run("check", bad, "-o", tmp_path) == 1
        assert capsys.readouterr().err == (
            f"cvdag: error: {bad}: node count p=100000 is too large to hold a p x p matrix\n")

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

    def test_repeated_column_name_names_header_line(self, tmp_path, capsys):
        bad = tmp_path / "twice.csv"
        bad.write_text("\na,b,a\n1,2,3\n4,5,6\n7,8,9\n")
        assert run("learn", bad, "-o", tmp_path) == 1
        err = capsys.readouterr().err
        assert err == f"cvdag: error: {bad}:2: header has repeated column name 'a' in columns 0 and 2\n"

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

    def test_no_edges_printed_as_none(self, tmp_path, capsys):
        # orthogonal centered columns: r is exactly 0
        path = tmp_path / "flat.csv"
        path.write_text("a,b\n" + "1,1\n-1,1\n1,-1\n-1,-1\n" * 2)
        assert run("learn", path, "-o", tmp_path) == 0
        assert capsys.readouterr().out == "ordering: a b\nedge: (none)\n"
        assert (tmp_path / "flat.graph").read_text() == "2\n"

    def test_data_below_the_float64_floor_exits_two(self, tmp_path, capsys):
        model = sem.random_sem(120, "heterogeneous", sem.derive_seed(7120, 0))
        path = tmp_path / "deep.csv"
        write_dataset(sem.sample(model, 3000, sem.derive_seed(7121, 0)), path)
        assert run("learn", path, "-o", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("cvdag: error: factorization step ")
        assert "below the float64 floor 1e-29" in err
        assert not (tmp_path / "deep.graph").exists()

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

    def test_verbose_prints_each_margin(self, chain_sem, tmp_path, capsys):
        assert run("check", chain_sem, "-v", "-o", tmp_path) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = (tmp_path / "chain.margins.csv").read_text().splitlines()[1:]
        assert len(lines) == 1 + len(rows) == 4
        for line, row in zip(lines[1:], rows):
            j, k, *_ = row.split(",")
            assert re.fullmatch(rf"margin: j={j} k={k} lhs=\S+ rhs=\S+ slack=\S+", line)

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

    def test_cyclic_file_is_named(self, tmp_path, capsys):
        # the error once read only "edge set contains a directed cycle"
        src = tmp_path / "cyc.graph"
        src.write_text("3\n0 1\n1 0\n")
        assert run("cpdag", src, "-o", tmp_path) == 1
        err = capsys.readouterr().err
        assert err == f"cvdag: error: {src}: edge set contains a directed cycle\n"

    def test_node_count_too_large_to_hold(self, tmp_path, capsys):
        # numpy refused the p x p mask with a bare "array is too big" traceback
        src = tmp_path / "huge.graph"
        src.write_text("1000000000000\n")
        assert run("cpdag", src, "-o", tmp_path) == 1
        assert capsys.readouterr().err == (f"cvdag: error: {src}: node count p=1000000000000 "
                                           "is too large to hold a p x p matrix\n")
        assert not (tmp_path / "huge.cpdag").exists()

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

    def test_json_array_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text(json.dumps([{"protocol": "nonfaithful"}]))
        assert run("bench", cfg, "-o", tmp_path) == 1
        assert capsys.readouterr().err == f"cvdag: error: {cfg}: expected a JSON object\n"

    @pytest.mark.parametrize("body, key", [
        ({"n_grid": 5}, "n_grid"),
        ({"n_grid": [100.5, 200]}, "n_grid"),
        ({"p": "10"}, "p"),
        ({"p": 10.5}, "p"),
        ({"p": True}, "p"),
        ({"alpha": "0.1"}, "alpha"),
        ({"replications": 2.5}, "replications"),
        ({"seed": -1}, "seed"),
        ({"protocol": 3}, "protocol"),
        ({"parent_test_mode": None}, "parent_test_mode"),
    ])
    def test_wrong_value_types_rejected(self, body, key, tmp_path, capsys):
        # once TypeError or numpy AxisError tracebacks, or a silently truncated n
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(body))
        assert run("bench", cfg, "-o", tmp_path / "out") == 1
        assert f"invalid experiment config: {key} must" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        assert run("bench", self.config(tmp_path), "--seed", -3, "-o", tmp_path) == 1
        assert "seed must be a non-negative integer, got -3" in capsys.readouterr().err

    def test_workers_flag_is_gone(self, tmp_path, capsys):
        assert run("bench", self.config(tmp_path), "--workers", 2,
                   "-o", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == "cvdag: error: cvdag: unrecognized arguments: --workers 2\n"
        assert not (tmp_path / "out").exists()

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


# a command run on the inputs of TestFileErrors, and one file it writes
WRITES = [
    (("learn", "marks"), "marks.graph"),
    (("learn", "marks"), "marks.tests.csv"),
    (("simulate", "--protocol", "nonfaithful", "--n", 20), "nonfaithful_p3_n20_seed0.csv"),
    (("simulate", "--protocol", "nonfaithful", "--n", 20, "--save-sem"),
     "nonfaithful_p3_seed0.sem"),
    (("check", "chain.sem"), "chain.margins.csv"),
    (("cpdag", "chain.graph"), "chain.cpdag"),
    (("bench", "config.json"), "hamming_vs_n.svg"),
]


class TestFileErrors:
    """A file the CLI cannot read or write is exit 3 with one error line."""

    @pytest.fixture(autouse=True)
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_sem(nonfaithful_chain(), "chain.sem")
        write_graph(Dag(3, frozenset({(0, 1), (1, 2)})), "chain.graph")
        (tmp_path / "config.json").write_text(json.dumps(
            {"protocol": "nonfaithful", "n_grid": [50], "replications": 1}))

    @pytest.mark.parametrize("argv, occupied", WRITES)
    def test_output_path_taken_by_directory(self, argv, occupied, tmp_path, capsys):
        # once a bare IsADirectoryError traceback and exit 1
        (tmp_path / "out" / occupied).mkdir(parents=True)
        assert run(*argv, "-o", "out") == 3
        err = capsys.readouterr().err
        assert err.startswith("cvdag: error: cannot write under out: ")
        assert occupied in err

    @pytest.mark.parametrize("argv", list(dict.fromkeys(argv for argv, _ in WRITES)))
    def test_output_directory_is_a_file(self, argv, capsys):
        assert run(*argv, "-o", "chain.sem") == 3
        assert capsys.readouterr().err.startswith("cvdag: error: cannot write under chain.sem: ")

    @pytest.mark.parametrize("argv", [
        ("learn", "."), ("simulate", "--n", 10, "--sem", "."), ("check", "."),
        ("cpdag", "."), ("bench", "."),
    ])
    def test_input_path_is_a_directory(self, argv, capsys):
        assert run(*argv, "-o", "out") == 3
        assert capsys.readouterr().err.startswith("cvdag: error: cannot read .: ")

    @pytest.mark.parametrize("argv", [
        ("learn", "bin.csv"), ("simulate", "--n", 10, "--sem", "bin.csv"), ("check", "bin.csv"),
        ("cpdag", "bin.csv"), ("bench", "bin.csv"),
    ])
    def test_input_that_is_not_text(self, argv, tmp_path, capsys):
        # once a bare UnicodeDecodeError traceback; 0xff never occurs in UTF-8
        (tmp_path / "bin.csv").write_bytes(b"a,b\n1,2\n\xff\x00\x01\n")
        assert run(*argv, "-o", "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("cvdag: error: bin.csv: not ")
        assert " text at byte 8 " in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestContract:
    def test_choices_are_the_library_names(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]

        def choices(command, dest):
            (action,) = [a for a in sub.choices[command]._actions if a.dest == dest]
            return action.choices

        assert choices("simulate", "protocol") == sem.PROTOCOLS
        assert choices("learn", "parent_test") == learner.PARENT_TEST_MODES
        assert choices("check", "scope") == sem.SCOPES
        assert sem.PROTOCOLS == ("homogeneous", "heterogeneous", "nonfaithful")
        assert learner.PARENT_TEST_MODES == ("conditional", "marginal")
        assert sem.SCOPES == ("descendants", "later")

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
