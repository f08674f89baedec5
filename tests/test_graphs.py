import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvdag.errors import DataFormatError, ValidationError
from cvdag.graphs import (
    Cpdag,
    Dag,
    Ordering,
    dag_to_cpdag,
    descendant_mask,
    descendants,
    format_graph,
    hamming_cpdag,
    hamming_dag,
    is_consistent,
    read_cpdag,
    read_dag,
    topological_order,
    vstructures,
    write_graph,
)
from cvdag.sem import random_sem

CHAIN = Dag(3, frozenset({(0, 1), (1, 2)}))
COLLIDER = Dag(3, frozenset({(0, 2), (1, 2)}))
DIAMOND = Dag(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
# estimated five-subject marks graph: 0=algebra 1=analysis 2=statistics
# 3=vector 4=mechanics
MARKS_GRAPH = Dag(5, frozenset({(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (4, 3)}))


def random_dag(rng, p, prob=0.4):
    perm = rng.permutation(p)
    edges = set()
    for j in range(p):
        for i in range(j):
            if rng.random() < prob:
                edges.add((int(perm[i]), int(perm[j])))
    return Dag(p, frozenset(edges))


def cpdag_by_enumeration(g: Dag) -> Cpdag:
    """Definitional oracle: orient the skeleton every acyclic way that keeps
    the v-structures; an edge is compelled iff all members agree on it."""
    skeleton = sorted(g.skeleton())
    vs = vstructures(g)
    members = []
    for bits in itertools.product((0, 1), repeat=len(skeleton)):
        edges = frozenset(
            (a, b) if bit == 0 else (b, a) for (a, b), bit in zip(skeleton, bits)
        )
        try:
            candidate = Dag(g.p, edges)
        except ValidationError:
            continue
        if vstructures(candidate) == vs:
            members.append(candidate)
    assert members, "the DAG itself is always a member"
    directed, undirected = set(), set()
    for a, b in skeleton:
        if all((a, b) in m.edges for m in members):
            directed.add((a, b))
        elif all((b, a) in m.edges for m in members):
            directed.add((b, a))
        else:
            undirected.add((a, b))
    return Cpdag(g.p, frozenset(directed), frozenset(undirected))


def assert_equivalence_class_invariants(g: Dag) -> int:
    """Check dag_to_cpdag(g) against facts that need no enumeration; return
    the number of covered edges checked.

    Reversing a covered edge x->y, pa(y) = pa(x) | {x}, gives an equivalent
    DAG (Chickering 1995), so the edge is undirected in the CPDAG and the
    reversed DAG has the identical CPDAG.
    """
    cp = dag_to_cpdag(g)
    assert cp.skeleton() == g.skeleton()
    assert cp.directed <= g.edges
    for a, c, b in vstructures(g):
        assert {(a, c), (b, c)} <= cp.directed
    covered = [(x, y) for x, y in sorted(g.edges) if g.parents(y) == g.parents(x) | {x}]
    for x, y in covered:
        assert (min(x, y), max(x, y)) in cp.undirected
        assert dag_to_cpdag(Dag(g.p, g.edges - {(x, y)} | {(y, x)})) == cp
    return len(covered)


class TestDagBasics:
    def test_cycle_rejected(self):
        with pytest.raises(ValidationError):
            Dag(3, frozenset({(0, 1), (1, 2), (2, 0)}))

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Dag(2, frozenset({(1, 1)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Dag(2, frozenset({(0, 5)}))

    def test_parents_children(self):
        assert COLLIDER.parents(2) == {0, 1}
        assert COLLIDER.children(0) == {2}
        assert type(COLLIDER.parents(0)) is frozenset

    def test_equality_sees_only_p_and_edges(self):
        a = Dag(3, frozenset({(0, 2), (1, 2)}))
        b = Dag(3, [(1, 2), (0, 2)])
        assert a == b and hash(a) == hash(b)
        assert [f.name for f in dataclasses.fields(Dag)] == ["p", "edges"]


class TestTopologicalOrder:
    def test_empty_graph_index_order(self):
        assert topological_order(Dag(3, frozenset())).order == (0, 1, 2)

    def test_chain(self):
        assert topological_order(CHAIN).order == (0, 1, 2)

    def test_collider_tie_break(self):
        # both (0,1,2) and (1,0,2) are valid; the smallest-index rule picks 0 first
        valid = {(0, 1, 2), (1, 0, 2)}
        got = topological_order(COLLIDER).order
        assert got in valid
        assert got == (0, 1, 2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_always_consistent(self, seed):
        g = random_dag(np.random.default_rng(seed), p=6)
        assert is_consistent(topological_order(g), g)


class TestDescendants:
    def test_chain_root(self):
        assert descendants(CHAIN, 0) == {1, 2}

    def test_empty_graph(self):
        g = Dag(4, frozenset())
        assert all(descendants(g, j) == frozenset() for j in range(4))

    def test_diamond_inner_node(self):
        assert descendants(DIAMOND, 1) == {3}

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_transitive(self, seed):
        g = random_dag(np.random.default_rng(seed), p=6)
        for j in range(g.p):
            for k in descendants(g, j):
                assert descendants(g, k) <= descendants(g, j)

    @given(st.integers(0, 10_000), st.integers(1, 40), st.floats(0.0, 0.6))
    @settings(max_examples=60, deadline=None)
    def test_one_pass_mask_matches_walks(self, seed, p, prob):
        g = random_dag(np.random.default_rng(seed), p, prob)
        mask = descendant_mask(g)
        assert mask.dtype == bool and mask.shape == (p, p)
        for j in range(p):
            assert set(np.flatnonzero(mask[j]).tolist()) == descendants(g, j)

    @pytest.mark.parametrize("protocol", ["homogeneous", "heterogeneous"])
    def test_one_pass_mask_matches_walks_generated_p80(self, protocol):
        for seed in range(3):
            g = random_sem(80, protocol, seed).dag
            mask = descendant_mask(g)
            for j in range(80):
                assert set(np.flatnonzero(mask[j]).tolist()) == descendants(g, j)


class TestIsConsistent:
    def test_chain_forward(self):
        assert is_consistent(Ordering((0, 1, 2)), CHAIN)

    def test_chain_reversed(self):
        assert not is_consistent(Ordering((2, 1, 0)), CHAIN)

    def test_collider_swapped_sources(self):
        assert is_consistent(Ordering((1, 0, 2)), COLLIDER)

    def test_not_a_permutation(self):
        with pytest.raises(ValidationError):
            Ordering((0, 0, 2))


class TestDagToCpdag:
    def test_chain_fully_undirected(self):
        cp = dag_to_cpdag(CHAIN)
        assert cp.directed == frozenset()
        assert cp.undirected == {(0, 1), (1, 2)}

    def test_collider_stays_directed(self):
        cp = dag_to_cpdag(COLLIDER)
        assert cp.directed == {(0, 2), (1, 2)}
        assert cp.undirected == frozenset()

    def test_marks_graph_fully_undirected(self):
        # every pair of edges into a common child is shielded, so nothing compels
        for c in range(5):
            parents = sorted(MARKS_GRAPH.parents(c))
            for a, b in itertools.combinations(parents, 2):
                assert (min(a, b), max(a, b)) in MARKS_GRAPH.skeleton()
        cp = dag_to_cpdag(MARKS_GRAPH)
        assert cp.directed == frozenset()
        assert cp.undirected == MARKS_GRAPH.skeleton()

    def test_matches_enumeration_oracle_on_specified_graphs(self):
        for g in (CHAIN, COLLIDER, DIAMOND, MARKS_GRAPH):
            assert dag_to_cpdag(g) == cpdag_by_enumeration(g)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_oracle_random(self, seed):
        g = random_dag(np.random.default_rng(seed), p=5, prob=0.45)
        assert dag_to_cpdag(g) == cpdag_by_enumeration(g)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_equivalent_dags_map_to_equal_cpdags(self, seed):
        g = random_dag(np.random.default_rng(seed), p=5, prob=0.45)
        cp = dag_to_cpdag(g)
        # every equivalent orientation must give the identical representative
        skeleton = sorted(g.skeleton())
        vs = vstructures(g)
        for bits in itertools.product((0, 1), repeat=len(skeleton)):
            edges = frozenset(
                (a, b) if bit == 0 else (b, a) for (a, b), bit in zip(skeleton, bits)
            )
            try:
                other = Dag(g.p, edges)
            except ValidationError:
                continue
            if vstructures(other) == vs:
                assert dag_to_cpdag(other) == cp

    @given(st.integers(0, 10_000), st.integers(6, 40), st.floats(0.05, 0.6))
    @settings(max_examples=60, deadline=None)
    def test_class_invariants_random(self, seed, p, prob):
        assert_equivalence_class_invariants(random_dag(np.random.default_rng(seed), p, prob))

    def test_class_invariants_generated_p80(self):
        # dense generated DAGs have few covered edges (none at all in some)
        covered = sum(
            assert_equivalence_class_invariants(random_sem(80, protocol, seed).dag)
            for protocol in ("homogeneous", "heterogeneous")
            for seed in range(3)
        )
        assert covered > 0

    @given(st.integers(0, 10_000), st.integers(1, 40), st.floats(0.0, 0.6))
    @settings(max_examples=60, deadline=None)
    def test_trusted_construction_equals_validated(self, seed, p, prob):
        cp = dag_to_cpdag(random_dag(np.random.default_rng(seed), p, prob))
        assert cp == Cpdag(cp.p, cp.directed, cp.undirected)

    @pytest.mark.parametrize("protocol", ["homogeneous", "heterogeneous"])
    def test_trusted_construction_equals_validated_generated_p80(self, protocol):
        for seed in range(3):
            cp = dag_to_cpdag(random_sem(80, protocol, seed).dag)
            assert cp == Cpdag(cp.p, cp.directed, cp.undirected)


class TestHammingDag:
    def test_identical(self):
        assert hamming_dag(CHAIN, CHAIN) == 0

    def test_single_reversal_costs_two(self):
        a = Dag(2, frozenset({(0, 1)}))
        b = Dag(2, frozenset({(1, 0)}))
        assert hamming_dag(a, b) == 2
        assert hamming_dag(a, b, reversal_as_one=True) == 1

    def test_empty_estimate_costs_edge_count(self):
        assert hamming_dag(DIAMOND, Dag(4, frozenset())) == 4

    def test_p_mismatch(self):
        with pytest.raises(ValidationError):
            hamming_dag(CHAIN, DIAMOND)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_dag(rng, 5) for _ in range(3))
        assert hamming_dag(a, b) == hamming_dag(b, a)
        assert (hamming_dag(a, b) == 0) == (a.edges == b.edges)
        assert hamming_dag(a, c) <= hamming_dag(a, b) + hamming_dag(b, c)


class TestHammingCpdag:
    def test_identical(self):
        cp = dag_to_cpdag(DIAMOND)
        assert hamming_cpdag(cp, cp) == 0

    def test_kind_mismatch_costs_one(self):
        undirected = Cpdag(2, frozenset(), frozenset({(0, 1)}))
        directed = Cpdag(2, frozenset({(0, 1)}), frozenset())
        assert hamming_cpdag(undirected, directed) == 1

    def test_missing_chain_costs_two(self):
        chain = Cpdag(3, frozenset(), frozenset({(0, 1), (1, 2)}))
        empty = Cpdag(3, frozenset(), frozenset())
        assert hamming_cpdag(chain, empty) == 2

    def test_opposite_directions_cost_one(self):
        a = Cpdag(2, frozenset({(0, 1)}), frozenset())
        b = Cpdag(2, frozenset({(1, 0)}), frozenset())
        assert hamming_cpdag(a, b) == 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (dag_to_cpdag(random_dag(rng, 5)) for _ in range(3))
        assert hamming_cpdag(a, b) == hamming_cpdag(b, a)
        assert (hamming_cpdag(a, b) == 0) == (a == b)
        assert hamming_cpdag(a, c) <= hamming_cpdag(a, b) + hamming_cpdag(b, c)

    def test_reduces_to_dag_distance_when_fully_directed(self):
        a = Cpdag(3, frozenset({(0, 2), (1, 2)}), frozenset())
        b = Cpdag(3, frozenset({(0, 2)}), frozenset())
        assert hamming_cpdag(a, b) == 1


class TestGraphFiles:
    def test_dag_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "g.graph"
        write_graph(DIAMOND, path)
        first = path.read_text()
        again = tmp_path / "g2.graph"
        write_graph(read_dag(path), again)
        assert again.read_text() == first
        assert read_dag(path) == DIAMOND

    def test_cpdag_round_trip_bit_exact(self, tmp_path):
        cp = Cpdag(4, frozenset({(0, 1)}), frozenset({(1, 2), (2, 3)}))
        path = tmp_path / "c.graph"
        write_graph(cp, path)
        assert read_cpdag(path) == cp
        text = path.read_text()
        write_graph(read_cpdag(path), path)
        assert path.read_text() == text

    def test_format_content(self):
        text = format_graph(Cpdag(3, frozenset({(2, 0)}), frozenset({(0, 1)})))
        assert text == "3\n0 1 u\n2 0\n"

    def test_malformed_line_is_located(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("3\n0 1\nnope\n")
        with pytest.raises(DataFormatError, match="bad.graph:3"):
            read_dag(path)

    def test_undirected_edge_rejected_in_dag_file(self, tmp_path):
        path = tmp_path / "u.graph"
        path.write_text("3\n0 1 u\n")
        with pytest.raises(DataFormatError):
            read_dag(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.graph"
        path.write_text("\n")
        with pytest.raises(DataFormatError):
            read_dag(path)
