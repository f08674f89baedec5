import argparse
import json
import re

import numpy as np
import pytest

import cvdag.learner as learner
import cvdag.sem as sem
from cvdag.bench import ExperimentConfig
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

    def test_zero_rows_refused_by_the_sample_rule_before_any_output(self, tmp_path, capsys):
        assert run("simulate", "--protocol", "nonfaithful", "--n", 0, "-o", tmp_path) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "cvdag: error: sample size must be >= 1, got 0\n")

    @pytest.mark.parametrize("protocol", ["homogeneous", "nonfaithful"])
    def test_negative_seed_rejected(self, protocol, tmp_path, capsys):
        # once a bare ValueError from numpy's SeedSequence
        assert run("simulate", "--protocol", protocol, "--n", 10, "--seed", -1,
                   "-o", tmp_path) == 1
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--protocol", "--sem"])
    def test_p_the_model_cannot_have_is_refused(self, flag, chain_sem, cli_twice):
        # once ignored: nonfaithful --p 7 wrote nonfaithful_p3_n10_seed0.csv
        source = "nonfaithful" if flag == "--protocol" else chain_sem
        a, b = cli_twice("simulate", flag, source, "--p", 7, "--n", 10, "-o", "out")
        assert a == b
        assert (a.code, a.stdout, a.files) == (1, "", {})
        assert a.stderr == "cvdag: error: --p 7 differs from the model's node count 3\n"

    def test_p_the_model_has_is_accepted(self, chain_sem, tmp_path):
        assert run("simulate", "--protocol", "nonfaithful", "--p", 3, "--n", 10,
                   "-o", tmp_path) == 0
        assert run("simulate", "--sem", chain_sem, "--p", 3, "--n", 10, "-o", tmp_path) == 0
        assert (tmp_path / "chain_n10_seed0.csv").exists()

    def test_nonfaithful_without_p_unchanged(self, cli_twice):
        a, b = cli_twice("simulate", "--protocol", "nonfaithful", "--n", 10, "-o", "out")
        assert a == b
        assert a.code == 0
        assert a.stdout.endswith("wrote out/nonfaithful_p3_n10_seed0.csv\n")
        assert read_dataset(a.cwd / "out" / "nonfaithful_p3_n10_seed0.csv").p == 3

    @pytest.mark.parametrize("p, n, error", [
        (10, 10**13, "sample size n=10000000000000 is too large to hold an n x p array at p=10"),
        (10**7, 10, "node count p=10000000 is too large to hold a p x p matrix"),
    ])
    def test_sizes_too_large_to_hold(self, p, n, error, cli_twice):
        # numpy refused the noise array and the weight table with a bare
        # _ArrayMemoryError traceback; each asks for 8e14 bytes, past any 47-bit
        # address space, so numpy refuses it at once even where memory overcommits
        a, b = cli_twice("simulate", "--protocol", "homogeneous", "--p", p, "--n", n,
                         "-o", "out")
        assert a == b
        assert (a.code, a.stderr, a.files) == (1, f"cvdag: error: {error}\n", {})

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

    def test_parent_test_flag_is_gone(self, tmp_path, capsys):
        assert run("learn", "marks", "--parent-test", "conditional", "-o", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == "cvdag: error: cvdag: unrecognized arguments: --parent-test conditional\n"
        assert not (tmp_path / "out").exists()

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

    def test_data_below_the_float64_floor_exits_two(self, tmp_path, cli_twice):
        # p=120 heterogeneous data from models whose identifiability check is
        # satisfied: one pivot keeps less than 1e-29 of its sum of squares; the
        # step is not pinned, since another BLAS may round differently
        model = sem.random_sem(120, "heterogeneous", sem.derive_seed(7120, 0))
        deep = tmp_path / "deep.csv"
        write_dataset(sem.sample(model, 3000, sem.derive_seed(7121, 0)), deep)
        a, b = cli_twice("simulate", "--protocol", "heterogeneous", "--p", 120, "--n", 3000,
                         "-o", "out")
        assert a == b
        assert a.code == 0
        assert "identifiability: satisfied" in a.stdout
        for path in (deep, a.cwd / "out" / "heterogeneous_p120_n3000_seed0.csv"):
            a, b = cli_twice("learn", path, "-o", "out")
            assert a == b
            assert (a.code, a.stdout, a.files) == (2, "", {})
            assert a.stderr.startswith("cvdag: error: factorization step ")
            assert "below the float64 floor 1e-29" in a.stderr

    def test_p80_learn_is_byte_deterministic(self, tmp_path, cli_twice):
        # pins the parser, the factorization and the test log on this BLAS; the
        # CSV must be the bytes of a per-value "%.17g", which pins the array
        # formatter on this Python and numpy, and read and written again it
        # must be the same bytes, which pins numpy's text reader
        ds = sem.sample(sem.random_sem(80, "heterogeneous", 1901), 2000, 1902)
        path, again = tmp_path / "large.csv", tmp_path / "again.csv"
        write_dataset(ds, path)
        rows = [",".join(ds.names)] + [",".join("%.17g" % v for v in row)
                                      for row in ds.data.tolist()]
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
        write_dataset(read_dataset(path), again)
        assert again.read_bytes() == path.read_bytes()
        a, b = cli_twice("learn", path, "-v", "-o", "out")
        assert a == b
        assert a.code == 0
        assert sorted(a.files) == ["out/large.graph", "out/large.order", "out/large.tests.csv"]
        assert "test: " in a.stdout

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

    def test_p80_check_is_byte_deterministic(self, cli_twice):
        # a dense p=80 model gets a verdict (exit 0 or 1), never a numerical
        # failure (exit 2), under both scopes; the saved model and data pin the
        # random generator on this numpy
        a, b = cli_twice("simulate", "--protocol", "heterogeneous", "--p", 80, "--n", 2000,
                         "--save-sem", "-o", "out")
        assert a == b
        assert a.code == 0
        model = a.cwd / "out" / "heterogeneous_p80_seed0.sem"
        for scope in sem.SCOPES:
            a, b = cli_twice("check", model, "--scope", scope, "-v", "-o", "out")
            assert a == b
            assert a.code in (0, 1)
            assert list(a.files) == ["out/heterogeneous_p80_seed0.margins.csv"]
            assert "margin: " in a.stdout


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

    @pytest.mark.parametrize("p", [10**11, 10**12])
    def test_node_count_too_large_to_hold(self, p, tmp_path, cli_twice):
        # numpy refused the p x p mask with a bare "array is too big" traceback
        src = tmp_path / "huge.graph"
        src.write_text(f"{p}\n")
        a, b = cli_twice("cpdag", src, "-o", "out")
        assert a == b
        assert (a.code, a.stdout, a.files) == (1, "", {})
        assert a.stderr == (f"cvdag: error: {src}: node count p={p} "
                            "is too large to hold a p x p matrix\n")

    def test_p80_graph_files_are_byte_deterministic(self, tmp_path, cli_twice):
        # the order in which a Dag's edge view iterates never reaches a file,
        # and read_cpdag and the one mask-based writer round-trip a p=80 class
        src, again = tmp_path / "true.graph", tmp_path / "again.graph"
        write_graph(sem.random_sem(80, "heterogeneous", 1901).dag, src)
        write_graph(read_dag(src), again)
        assert again.read_bytes() == src.read_bytes()
        a, b = cli_twice("cpdag", src, "-o", "out")
        assert a == b
        assert a.code == 0
        cpdag = a.cwd / "out" / "true.cpdag"
        write_graph(read_cpdag(cpdag), again)
        assert again.read_bytes() == cpdag.read_bytes()

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

    @pytest.mark.parametrize("body", [
        {"protocol": "nonfaithful", "n_grid": [50, 100], "replications": 4, "seed": 5},
        {"protocol": "heterogeneous", "p": 10, "n_grid": [50, 100, 200], "replications": 4,
         "seed": 5},
    ], ids=["nonfaithful", "heterogeneous"])
    def test_rerun_identical_apart_from_seconds(self, body, tmp_path, cli_twice):
        # the chart holds no timings, so its bytes match; the tables match once
        # their wall-clock columns are cut, which pins every cell's hamming_dag
        # and hamming_cpdag, not only the plotted means
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(body))
        a, b = cli_twice("bench", cfg, "-o", "out")

        def strip(text):
            rows = [ln.split(",") for ln in text.splitlines()]
            drop = [i for i, col in enumerate(rows[0]) if "seconds" in col]
            return [[f for i, f in enumerate(row) if i not in drop] for row in rows]

        assert a.code == b.code == 0
        assert strip(a.stdout) == strip(b.stdout)
        assert sorted(a.files) == sorted(b.files) == [
            "out/aggregate.csv", "out/cells.csv", "out/hamming_vs_n.svg"]
        assert a.files["out/hamming_vs_n.svg"] == b.files["out/hamming_vs_n.svg"]
        for name in ("out/cells.csv", "out/aggregate.csv"):
            assert strip(a.files[name].decode()) == strip(b.files[name].decode())

    def test_sample_too_large_to_hold(self, tmp_path, cli_twice):
        # once a bare _ArrayMemoryError traceback that ended the whole run
        cfg = self.config(tmp_path, protocol="homogeneous", p=10, n_grid=[10**13],
                          replications=1)
        a, b = cli_twice("bench", cfg, "-o", "out")
        assert a == b
        assert (a.code, a.stdout, a.files) == (1, "", {})
        assert a.stderr == ("cvdag: error: sample size n=10000000000000 is too large "
                            "to hold an n x p array at p=10\n")

    def test_zero_replications_rejected(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        assert run("bench", cfg, "--replications", 0, "-o", tmp_path) == 1
        assert "replications" in capsys.readouterr().err

    def test_config_with_byte_order_mark(self, tmp_path, capsys):
        # once "invalid JSON: Unexpected UTF-8 BOM" with exit 1
        cfg = self.config(tmp_path)
        plain = run("bench", cfg, "-o", tmp_path / "plain"), capsys.readouterr().out
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        marked = run("bench", cfg, "-o", tmp_path / "marked"), capsys.readouterr().out
        assert marked[0] == plain[0] == 0
        keep = [ln.rsplit(",", 1)[0] for ln in plain[1].splitlines() if "," in ln]
        assert [ln.rsplit(",", 1)[0] for ln in marked[1].splitlines() if "," in ln] == keep

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

    def test_parent_test_mode_key_is_gone(self, tmp_path, capsys):
        cfg = self.config(tmp_path, parent_test_mode="conditional")
        assert run("bench", cfg, "-o", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == f"cvdag: error: {cfg}: unknown config keys: parent_test_mode\n"
        assert not (tmp_path / "out").exists()

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
        assert choices("check", "scope") == sem.SCOPES
        assert sem.PROTOCOLS == ("homogeneous", "heterogeneous", "nonfaithful")
        assert sem.SCOPES == ("descendants", "later")

    def test_defaults_are_the_library_defaults(self):
        parser = build_parser()
        learn_args = parser.parse_args(["learn", "data.csv"])
        library = learner.LearnConfig()
        assert learn_args.alpha == library.alpha
        assert parser.parse_args(["check", "model.sem"]).scope == sem.SCOPES[0]
        assert ExperimentConfig().alpha == library.alpha
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        help_text = " ".join(sub.choices["learn"].format_help().split())
        assert f"significance level of the parent tests (default {library.alpha})" in help_text

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
