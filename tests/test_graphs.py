import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvdag.errors import DataFormatError, ValidationError
from cvdag.graphs import (
    Cpdag,
    Dag,
    Ordering,
    _EdgeView,
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
from cvdag.learner import learn, learn_from_covariance
from cvdag.sem import population_covariance, random_sem, sample

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

    @pytest.mark.parametrize("j, message", [(-1, "node -1 out of range for p=3"),
                                            (3, "node 3 out of range for p=3"),
                                            (1.0, "node id must be an integer, got 1.0"),
                                            (True, "node id must be an integer, got True")])
    @pytest.mark.parametrize("lookup", [Dag.parents, Dag.children, descendants])
    def test_node_argument_checked(self, lookup, j, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            lookup(COLLIDER, j)

    def test_equality_sees_only_p_and_edges(self):
        a = Dag(3, frozenset({(0, 2), (1, 2)}))
        b = Dag(3, [(1, 2), (0, 2)])
        assert a == b and hash(a) == hash(b)
        assert [f.name for f in dataclasses.fields(Dag)] == ["p", "edges"]


class TestNodeIds:
    """Node counts and node ids must be integers; nothing is truncated."""

    @pytest.mark.parametrize("order, bad", [((0.5, 1, 2), "0.5"), ((True, False), "True"),
                                            (("0", "1", "2"), "'0'"), ((0, 1.0), "1.0")])
    def test_ordering_rejects_non_integers(self, order, bad):
        with pytest.raises(ValidationError, match=f"node id must be an integer, got {bad}$"):
            Ordering(order)

    def test_ordering_accepts_numpy_integers(self):
        pi = Ordering(np.array([2, 0, 1], dtype=np.int32))
        assert pi == Ordering((2, 0, 1)) and all(type(j) is int for j in pi)

    @pytest.mark.parametrize("edges, bad", [({(0, 1.7)}, "1.7"), ({(True, 2)}, "True"),
                                            ({("0", 1)}, "'0'")])
    def test_dag_rejects_non_integer_ends(self, edges, bad):
        with pytest.raises(ValidationError, match=f"node id must be an integer, got {bad}$"):
            Dag(3, frozenset(edges))

    @pytest.mark.parametrize("p", [-1, 2.5, 3.0, True, "3", None])
    def test_dag_rejects_bad_node_counts(self, p):
        with pytest.raises(ValidationError,
                           match=rf"node count must be a non-negative integer, got {p!r}$"):
            Dag(p, frozenset())

    @pytest.mark.parametrize("make", [lambda p: Dag(p, frozenset()), lambda p: Cpdag(p, set())])
    def test_node_count_too_large_to_hold_rejected(self, make):
        # numpy refused the p x p mask with a bare "array is too big" ValueError
        with pytest.raises(ValidationError,
                           match=r"^node count p=10{12} is too large to hold a p x p matrix$"):
            make(10**12)

    def test_dag_accepts_numpy_integers(self):
        g = Dag(np.int64(3), {(np.int64(0), np.int32(1)), (np.uint8(1), 2)})
        assert g == CHAIN and type(g.p) is int
        assert all(type(x) is int for edge in g.edges for x in edge)
        assert Dag(0, frozenset()).p == 0

    @pytest.mark.parametrize("marks", [({(0, 1.5)}, ()), ((), {(0.0, 1)}), ((), {(False, 1)})])
    def test_cpdag_rejects_non_integer_ends(self, marks):
        with pytest.raises(ValidationError, match="node id must be an integer"):
            Cpdag(3, frozenset(marks[0]), frozenset(marks[1]))

    def test_cpdag_rejects_bad_node_count(self):
        with pytest.raises(ValidationError, match="node count must be a non-negative integer"):
            Cpdag(-1, frozenset())

    @pytest.mark.parametrize("graph, marks, bad", [
        (Dag, ([(0, 1, 2)],), "(0, 1, 2)"),
        (Dag, ([0, 1],), "0"),
        (Dag, ([(0,)],), "(0,)"),
        (Cpdag, ([(0,)],), "(0,)"),
        (Cpdag, (set(), [(0, 1, 2)]), "(0, 1, 2)"),
    ], ids=["dag-triple", "dag-int", "dag-single", "cpdag-directed", "cpdag-undirected"])
    def test_malformed_edge_rejected(self, graph, marks, bad):
        # once a bare ValueError or TypeError from unpacking the edge
        message = f"edge must be a (parent, child) pair, got {bad}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            graph(3, *marks)

    @pytest.mark.parametrize("graph, marks, bad", [
        (Dag, (5,), "5"),
        (Cpdag, (1.5,), "1.5"),
        (Cpdag, (set(), None), "None"),
    ], ids=["dag-int", "cpdag-directed", "cpdag-undirected"])
    def test_non_iterable_edges_rejected(self, graph, marks, bad):
        # once a bare TypeError from iterating the edge collection
        message = f"edges must be a collection of pairs, got {bad}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            graph(3, *marks)

    def test_cpdag_accepts_numpy_integers(self):
        cp = Cpdag(np.int64(3), {(np.int64(0), 1)}, {(np.int64(2), np.int32(1))})
        assert cp == Cpdag(3, frozenset({(0, 1)}), frozenset({(1, 2)}))


class TestAdjacency:
    def test_read_only_and_stored_at_construction(self):
        g = Dag(4, DIAMOND.edges)
        adj = g._adjacency
        assert g._adjacency is adj and vars(g)["edges"]._mask is adj
        assert adj.dtype == bool and adj.shape == (4, 4) and not adj.flags.writeable
        with pytest.raises(ValueError):
            adj[0, 0] = True
        assert {tuple(e) for e in np.argwhere(adj).tolist()} == DIAMOND.edges

    def test_empty_graphs(self):
        assert not Dag(3, frozenset())._adjacency.any()
        assert Dag(0, frozenset())._adjacency.shape == (0, 0)

    def test_learned_graph_stores_its_edges_mask(self):
        for g in TestTrustedDag.learned_graphs():
            assert set(vars(g)) == {"p", "edges"}
            stored = vars(g)["edges"]._mask
            assert g._adjacency is stored and not stored.flags.writeable
            assert np.array_equal(stored, Dag(g.p, g.edges)._adjacency)


def view_graphs():
    """Learned graphs, then generated p=80 DAGs, then the fixed small ones."""
    yield from TestTrustedDag.learned_graphs()
    for protocol in ("homogeneous", "heterogeneous"):
        yield random_sem(80, protocol, 0).dag
    yield from (CHAIN, COLLIDER, DIAMOND, MARKS_GRAPH, Dag(0, frozenset()))


class TestEdgeView:
    """``Dag.edges`` behaves as the frozenset of its pairs without storing one."""

    def test_equal_and_hashed_as_the_frozenset(self):
        for g in view_graphs():
            pairs = frozenset(g.edges)
            assert g.edges == pairs and pairs == g.edges and not g.edges != pairs
            assert hash(g.edges) == hash(pairs)
            assert g == Dag(g.p, pairs) and hash(g) == hash(Dag(g.p, pairs))

    def test_repr_lists_the_pairs(self):
        assert repr(Dag(3, [(1, 2), (0, 2)]).edges) == "edges([(0, 2), (1, 2)])"

    def test_iterates_in_sorted_order(self):
        for g in view_graphs():
            pairs = list(g.edges)
            assert pairs == sorted(g.edges)
            assert all(type(x) is int for edge in pairs for x in edge)

    def test_membership_and_size_agree_with_the_frozenset(self):
        for g in view_graphs():
            pairs = frozenset(g.edges)
            assert len(g.edges) == len(pairs) and bool(g.edges) == bool(pairs)
            for edge in itertools.product(range(-1, g.p + 1), repeat=2):
                assert (edge in g.edges) == (edge in pairs), edge
            assert (np.int64(0), np.int32(1)) in CHAIN.edges
            for other in [(0, 1, 2), (0,), "01", None, 0.5, (0.5, 1)]:
                assert other not in g.edges

    def test_set_operators_return_frozensets(self):
        graphs = list(view_graphs())
        for g, h in zip(graphs, graphs[1:]):
            if g.p != h.p:
                h = Dag(g.p, frozenset())
            pairs, other = frozenset(g.edges), frozenset(h.edges)
            for got, want in [(g.edges - h.edges, pairs - other),
                              (g.edges | h.edges, pairs | other),
                              (g.edges & h.edges, pairs & other),
                              (g.edges ^ h.edges, pairs ^ other),
                              (pairs - h.edges, pairs - other),
                              (g.edges - {(0, 1)}, pairs - {(0, 1)})]:
                assert type(got) is frozenset and got == want
            assert (h.edges <= g.edges) == (other <= pairs)

    def test_learned_graphs_retain_only_their_masks(self):
        # 50 oracle graphs at p=40 keep less than 4 p^2 bytes each, the p^2
        # mask bytes and fixed object overheads; with a frozenset of edge
        # tuples each kept about 65 KB
        p = 40
        covariances = [population_covariance(random_sem(p, "heterogeneous", seed))
                       for seed in range(50)]
        learn_from_covariance(covariances[0])
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            graphs = [learn_from_covariance(cov).dag for cov in covariances]
            for g in graphs:
                len(g.edges), sorted(g.edges), g.edges == g.edges
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert retained < 4 * p * p * len(graphs)

    def test_model_graphs_retain_no_per_node_rows(self):
        # 50 dense model graphs at p=40, each asked for its order, descendant
        # mask, CPDAG, parents and children, keep less than 5 p^2 bytes each:
        # the adjacency and descendant masks, the order and fixed overheads;
        # with a parent and a child tuple cached per node each kept 12 p^2
        p = 40

        def use(g):
            topological_order(g), descendant_mask(g), dag_to_cpdag(g)
            for j in range(p):
                g.parents(j), g.children(j)

        use(random_sem(p, "homogeneous", 50).dag)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            graphs = [random_sem(p, "homogeneous", seed).dag for seed in range(50)]
            for g in graphs:
                use(g)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert retained < 5 * p * p * len(graphs)


def hamming_dag_by_sets(g_true: Dag, g_est: Dag, *, reversal_as_one: bool = False) -> int:
    """Reference: the set-difference count that ``hamming_dag`` replaced."""
    if g_true.p != g_est.p:
        raise ValidationError(f"node counts differ: {g_true.p} vs {g_est.p}")
    diff = len(g_true.edges - g_est.edges) + len(g_est.edges - g_true.edges)
    if reversal_as_one:
        reversed_pairs = sum(1 for a, b in g_true.edges if (b, a) in g_est.edges)
        diff -= reversed_pairs
    return diff


class TestTrustedDag:
    """Learned graphs skip validation; they must behave as validated ones."""

    @staticmethod
    def learned_graphs():
        for seed, p, protocol in [(1, 6, "homogeneous"), (2, 12, "heterogeneous"),
                                  (3, 30, "heterogeneous")]:
            model = random_sem(p, protocol, seed)
            yield learn(sample(model, 20 * p, seed)).dag
            yield learn_from_covariance(population_covariance(model)).dag

    def test_learned_graph_is_trusted_and_indexed_lazily(self):
        g = learn(sample(random_sem(8, "homogeneous", 4), 200, 5)).dag
        assert "_ordering" not in vars(g)
        topological_order(g)
        assert "_ordering" in vars(g)

    def test_matches_validated_dag(self):
        for trusted in self.learned_graphs():
            assert trusted.edges
            checked = Dag(trusted.p, trusted.edges)
            assert trusted == checked and hash(trusted) == hash(checked)
            assert topological_order(trusted) == topological_order(checked)
            for j in range(trusted.p):
                assert trusted.parents(j) == checked.parents(j)
                assert trusted.children(j) == checked.children(j)
            assert np.array_equal(descendant_mask(trusted), descendant_mask(checked))
            assert dag_to_cpdag(trusted) == dag_to_cpdag(checked)
            assert format_graph(trusted) == format_graph(checked)

    @pytest.mark.parametrize("edges, message", [
        ({(0, 1), (1, 2), (2, 0)}, "directed cycle"),
        ({(0, 1), (1, 1)}, "self-loop at node 1"),
        ({(0, 1), (2, 5)}, r"edge \(2,5\) out of range for p=3"),
    ])
    def test_public_constructor_still_validates(self, edges, message):
        with pytest.raises(ValidationError, match=message):
            Dag(3, frozenset(edges))


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

    def test_plain_permutation(self):
        assert is_consistent((0, 1, 2), CHAIN)
        assert not is_consistent([2, 1, 0], CHAIN)

    @pytest.mark.parametrize("order", [(0, 0, 2), [0, 1, 5]])
    def test_non_permutation_rejected(self, order):
        with pytest.raises(ValidationError, match="not a permutation"):
            is_consistent(order, CHAIN)

    def test_length_checked_first(self):
        with pytest.raises(ValidationError, match="ordering of length 2 for p=3"):
            is_consistent((0, 0), CHAIN)


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

    def test_empty_estimate_costs_edge_count(self):
        assert hamming_dag(DIAMOND, Dag(4, frozenset())) == 4

    def test_p_mismatch(self):
        with pytest.raises(ValidationError, match="node counts differ: 3 vs 4"):
            hamming_dag(CHAIN, DIAMOND)

    def test_other_graph_type_rejected(self):
        # hamming_dag(dag, its CPDAG) once returned 1 and hamming_cpdag(dag, dag) 0
        dag = Dag(3, {(0, 1)})
        cpdag = dag_to_cpdag(dag)
        for call, a, b, message in (
            (hamming_dag, dag, cpdag, "expected two Dags, got Dag and Cpdag"),
            (hamming_dag, cpdag, dag, "expected two Dags, got Cpdag and Dag"),
            (hamming_cpdag, dag, dag, "expected two Cpdags, got Dag and Dag"),
            (hamming_cpdag, cpdag, dag, "expected two Cpdags, got Cpdag and Dag"),
        ):
            with pytest.raises(ValidationError) as err:
                call(a, b)
            assert str(err.value) == message

    @pytest.mark.parametrize("call, value, message", [
        (dag_to_cpdag, None, "dag_to_cpdag needs a Dag, got NoneType"),
        (dag_to_cpdag, dag_to_cpdag(Dag(2, {(0, 1)})), "dag_to_cpdag needs a Dag, got Cpdag"),
        (topological_order, [[0, 1]], "topological_order needs a Dag, got list"),
        (lambda g: descendants(g, 0), None, "descendants needs a Dag, got NoneType"),
        (lambda g: is_consistent((0, 1, 2), g), None, "is_consistent needs a Dag, got NoneType"),
        (format_graph, None, "graph text needs a Dag or Cpdag, got NoneType"),
        (lambda g: write_graph(g, "unused.graph"), {(0, 1)},
         "graph text needs a Dag or Cpdag, got set"),
    ])
    def test_graph_argument_rule(self, call, value, message):
        # each once raised a bare AttributeError
        with pytest.raises(ValidationError) as err:
            call(value)
        assert str(err.value) == message

    def test_matches_set_difference_reference(self):
        # the second graph is another DAG, the first with some edges reversed,
        # dropped or added, or the first itself
        reversals = 0
        for seed in range(2400):
            rng = np.random.default_rng(seed)
            p = 1 + seed % 14
            a = random_dag(rng, p, rng.uniform(0.0, 0.8))
            if seed % 3 == 0:
                b = random_dag(rng, p, rng.uniform(0.0, 0.8))
            else:
                order = topological_order(a).order
                edges = {(x, y) for x, y in a.edges if rng.random() > 0.2 * (seed % 3)}
                if seed % 3 == 2:
                    edges |= {(order[i], order[j]) for i in range(p) for j in range(i + 1, p)
                              if rng.random() < 0.1}
                b = Dag(p, frozenset(edges))
                if rng.random() < 0.5:
                    b = Dag(p, frozenset((y, x) for x, y in b.edges))
            want = hamming_dag_by_sets(a, b)
            assert hamming_dag(a, b) == want, seed
            assert hamming_dag(b, a) == want, seed
            # the inputs hold many reversals, each counted twice
            reversals += want - hamming_dag_by_sets(a, b, reversal_as_one=True)
        assert reversals > 1000

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_dag(rng, 5) for _ in range(3))
        assert hamming_dag(a, b) == hamming_dag(b, a)
        assert (hamming_dag(a, b) == 0) == (a.edges == b.edges)
        assert hamming_dag(a, c) <= hamming_dag(a, b) + hamming_dag(b, c)


class TestCpdagBasics:
    @pytest.mark.parametrize("edge, message", [
        ((1, 1), "self-loop at node 1"),
        ((2, 3), r"edge \(2,3\) out of range for p=3"),
        ((-1, 0), r"edge \(-1,0\) out of range for p=3"),
    ])
    @pytest.mark.parametrize("undirected", [False, True])
    def test_edges_checked_like_a_dag(self, edge, message, undirected):
        marks = (frozenset(), frozenset({edge})) if undirected else (frozenset({edge}),)
        with pytest.raises(ValidationError, match=message):
            Cpdag(3, *marks)


    def test_stores_two_read_only_edge_views(self):
        # validated (cpdag_from_kinds) and trusted (dag_to_cpdag) Cpdags alike
        assert [f.name for f in dataclasses.fields(Cpdag)] == ["p", "directed", "undirected"]
        for seed in range(300):
            for cp in random_cpdag_pair(seed):
                assert set(vars(cp)) == {"p", "directed", "undirected"}
                for view in (cp.directed, cp.undirected):
                    assert type(view) is _EdgeView and not view._mask.flags.writeable
                    with pytest.raises(ValueError):
                        view._mask[0, 1] = True
                    pairs = frozenset(view)
                    assert view == pairs and pairs == view and hash(view) == hash(pairs)
                # the PDAG mask sets both entries of an undirected (low, high) pair
                pdag = np.zeros((cp.p, cp.p), dtype=bool)
                for a, b in cp.directed:
                    pdag[a, b] = True
                for a, b in cp.undirected:
                    assert a < b
                    pdag[a, b] = pdag[b, a] = True
                assert np.array_equal(cp._adjacency, pdag)
                assert cp == Cpdag(cp.p, frozenset(cp.directed), frozenset(cp.undirected))


KINDS = ("absent", "forward", "backward", "undirected")


def pair_kind(c: Cpdag, pair: tuple[int, int]) -> str:
    """Reference classification of a (low, high) pair, one set lookup at a time."""
    a, b = pair
    if pair in c.undirected:
        return "undirected"
    if (a, b) in c.directed:
        return "forward"
    if (b, a) in c.directed:
        return "backward"
    return "absent"


def hamming_cpdag_by_pairs(c_true: Cpdag, c_est: Cpdag) -> int:
    pairs = c_true.skeleton() | c_est.skeleton()
    return sum(1 for pair in pairs if pair_kind(c_true, pair) != pair_kind(c_est, pair))


def cpdag_from_kinds(p: int, kinds: dict) -> Cpdag:
    directed = {(a, b) if kind == "forward" else (b, a)
                for (a, b), kind in kinds.items() if kind in ("forward", "backward")}
    undirected = {pair for pair, kind in kinds.items() if kind == "undirected"}
    return Cpdag(p, frozenset(directed), frozenset(undirected))


def random_kind(rng, pair: tuple[int, int], rank) -> str:
    """A random kind for ``pair``; a directed one points from the lower to the
    higher ``rank``, so the directed pairs drawn against one rank, with edges
    that already follow it, hold no directed cycle."""
    kind = KINDS[rng.integers(4)]
    if kind in ("forward", "backward"):
        a, b = pair
        kind = "forward" if rank[a] < rank[b] else "backward"
    return kind


def random_cpdag_pair(seed: int) -> tuple[Cpdag, Cpdag]:
    """An equivalence class and, by seed mod 3, a second class, an arbitrary
    Cpdag directed along a random node order, or the first one with some pairs
    re-marked (undirected, directed along its DAG, added or dropped)."""
    rng = np.random.default_rng(seed)
    p = 2 + seed % 11
    dag = random_dag(rng, p, rng.uniform(0.1, 0.7))
    first = dag_to_cpdag(dag)
    pairs = list(itertools.combinations(range(p), 2))
    if seed % 3 == 0:
        return first, dag_to_cpdag(random_dag(rng, p, rng.uniform(0.1, 0.7)))
    if seed % 3 == 1:
        rank = rng.permutation(p)
        return first, cpdag_from_kinds(p, {pair: random_kind(rng, pair, rank) for pair in pairs})
    # re-marked pairs point along the first class's DAG, as its compelled edges do
    rank = np.argsort(topological_order(dag).order)
    kinds = {pair: pair_kind(first, pair) for pair in pairs}
    for pair in pairs:
        if rng.random() < 0.3:
            kinds[pair] = random_kind(rng, pair, rank)
    return first, cpdag_from_kinds(p, kinds)


class TestHammingCpdag:
    def test_matches_per_pair_reference(self):
        kinds_seen = set()
        for seed in range(2400):
            a, b = random_cpdag_pair(seed)
            expected = hamming_cpdag_by_pairs(a, b)
            assert hamming_cpdag(a, b) == hamming_cpdag(b, a) == expected, seed
            kinds_seen |= {(pair_kind(a, pair), pair_kind(b, pair))
                           for pair in a.skeleton() | b.skeleton()}
        # every combination of kinds met on some pair (absent twice is no pair)
        assert kinds_seen == set(itertools.product(KINDS, KINDS)) - {("absent", "absent")}

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

    def test_node_counts_must_agree(self):
        with pytest.raises(ValidationError, match="^node counts differ: 2 vs 3$"):
            hamming_cpdag(Cpdag(2, frozenset(), frozenset()), Cpdag(3, frozenset(), frozenset()))

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

    @pytest.mark.parametrize("text, fault", [
        ("three\n0 1\n", "1: expected node count, got 'three'"),
        ("# count\n3\n0 1\n1 x\n", "4: non-integer node in '1 x'"),
        ("3\n0 1.5 u\n", "2: non-integer node in '0 1.5 u'"),
    ])
    def test_non_integer_count_or_node_is_located(self, text, fault, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        for reader in (read_dag, read_cpdag):
            with pytest.raises(DataFormatError) as err:
                reader(path)
            assert str(err.value) == f"{path}:{fault}"

    @pytest.mark.parametrize("readers, text, fault", [
        ((read_dag,), "3\n0 1\n1 0\n", "edge set contains a directed cycle"),
        ((read_cpdag,), "3\n0 1\n1 0\n", "both orientations of one pair are directed"),
        ((read_cpdag,), "3\n0 1\n1 2\n2 0\n", "edge set contains a directed cycle"),
        ((read_dag, read_cpdag), "2\n1 1\n", "self-loop at node 1"),
        ((read_dag, read_cpdag), "2\n0 5\n", "edge (0,5) out of range for p=2"),
        ((read_dag, read_cpdag), "-1\n", "node count must be a non-negative integer, got -1"),
        ((read_cpdag,), "3\n0 1\n1 0 u\n", "a pair appears both directed and undirected"),
    ])
    def test_graph_fault_names_the_file(self, readers, text, fault, tmp_path):
        # once the bare ValidationError of Dag or Cpdag, without the file name
        path = tmp_path / "bad.graph"
        path.write_text(text)
        for reader in readers:
            with pytest.raises(DataFormatError) as err:
                reader(path)
            assert str(err.value) == f"{path}: {fault}"
