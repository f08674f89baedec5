import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvdag import learner as learner_module
from cvdag.errors import (
    DegenerateDesignError,
    InsufficientSamplesError,
    NumericalDegeneracyError,
    ValidationError,
)
from cvdag.graphs import Dag, Ordering, hamming_dag, is_consistent
from cvdag.learner import (
    LearnConfig,
    LearnResult,
    StepLog,
    _factor,
    estimate_ordering,
    estimate_parents,
    learn,
    learn_from_covariance,
    ordering_is_greedy_minimal,
)
from cvdag.numerics import (
    Dataset,
    conditional_variance,
    fisher_z_test,
    partial_correlation,
    sample_covariance,
)
from cvdag.sem import (
    GaussianSem,
    derive_seed,
    nonfaithful_chain,
    population_covariance,
    random_sem,
    sample,
)


def dataset(arr):
    arr = np.asarray(arr, dtype=float)
    return Dataset(tuple(f"x{i}" for i in range(arr.shape[1])), arr)


def bivariate(beta, s1, s2):
    return GaussianSem(B=np.array([[0.0, 0.0], [beta, 0.0]]),
                       sigma2=np.array([s1, s2]))


COLLIDER_SEM = GaussianSem(
    B=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]),
    sigma2=np.ones(3),
)
PURE_CHAIN_SEM = GaussianSem(
    B=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    sigma2=np.ones(3),
)


class TestLearnConfig:
    def test_defaults(self):
        cfg = LearnConfig()
        assert cfg.alpha == 0.01
        assert cfg.parent_test_mode == "conditional"

    def test_bad_alpha(self):
        with pytest.raises(ValidationError):
            LearnConfig(alpha=0.0)

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            LearnConfig(parent_test_mode="sideways")

    @pytest.mark.parametrize("name, value", [("alpha", "0.1"), ("alpha", None),
                                             ("oracle_tolerance", "x"),
                                             ("oracle_tolerance", [1e-9])])
    def test_non_number_rejected(self, name, value):
        # these reached a comparison and raised a bare TypeError
        with pytest.raises(ValidationError,
                           match=re.escape(f"{name} must be a real number, got {value!r}")):
            LearnConfig(**{name: value})

    def test_numpy_numbers_accepted(self):
        cfg = LearnConfig(alpha=np.float64(0.05), oracle_tolerance=np.float32(1e-6))
        assert (cfg.alpha, cfg.oracle_tolerance) == (0.05, np.float32(1e-6))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_bad_oracle_tolerance(self, tol):
        # a NaN tolerance used to pass and make every pair independent
        with pytest.raises(ValidationError, match="oracle_tolerance"):
            LearnConfig(oracle_tolerance=tol)


class TestOracle:
    def test_bivariate_ordering(self):
        cov = population_covariance(bivariate(0.5, 1.0, 1.0))
        result = learn_from_covariance(cov)
        assert result.ordering.order == (0, 1)
        assert result.dag.edges == {(0, 1)}

    def test_collider_recovered_without_spurious_source_edge(self):
        cov = population_covariance(COLLIDER_SEM)
        result = learn_from_covariance(cov)
        assert result.dag.edges == {(0, 2), (1, 2)}
        log = {(r.earlier, r.later): r.dependent for r in result.test_log}
        assert log[(0, 1)] is False

    def test_nonfaithful_chain_exact(self):
        cov = population_covariance(nonfaithful_chain())
        result = learn_from_covariance(cov)
        assert result.ordering.order == (0, 1, 2)
        assert result.dag.edges == {(0, 1), (0, 2), (1, 2)}

    def test_identity_covariance_empty_graph(self):
        result = learn_from_covariance(np.eye(4))
        assert result.ordering.order == (0, 1, 2, 3)
        assert result.dag.edges == frozenset()

    def test_independent_columns_population_ordering(self):
        result = learn_from_covariance(np.diag([1.0, 2.0, 3.0]))
        assert result.ordering.order == (0, 1, 2)
        assert result.dag.edges == frozenset()

    def test_completeness_on_protocol_draws(self):
        # the small in-suite version; the acceptance suite runs 200 per protocol
        for protocol in ("homogeneous", "heterogeneous"):
            for seed in range(20):
                m = random_sem(5, protocol, seed=derive_seed(800, seed))
                result = learn_from_covariance(population_covariance(m))
                assert hamming_dag(m.dag, result.dag) == 0, (protocol, seed)

    def test_marginal_mode_includes_ancestors(self):
        cov = population_covariance(PURE_CHAIN_SEM)
        conditional = learn_from_covariance(cov)
        marginal = learn_from_covariance(cov, LearnConfig(parent_test_mode="marginal"))
        assert conditional.dag.edges == {(0, 1), (1, 2)}
        assert marginal.dag.edges == {(0, 1), (0, 2), (1, 2)}

    def test_non_spd_rejected(self):
        with pytest.raises(NumericalDegeneracyError):
            learn_from_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_spd_error_names_the_stage(self):
        with pytest.raises(NumericalDegeneracyError,
                           match=r"^learn_from_covariance: SPD gate: .*not positive definite"):
            learn_from_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(NumericalDegeneracyError):
            learn_from_covariance(np.array([[1.0, 0.2], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [(0, 2), (2, 0)])
    def test_asymmetry_error_names_the_largest_pair(self, entry):
        cov = np.eye(3)
        cov[entry] = 0.5
        cov[1, 2] = 0.25
        with pytest.raises(NumericalDegeneracyError) as err:
            learn_from_covariance(cov)
        assert str(err.value) == ("learn_from_covariance: covariance is not symmetric: largest"
                                  " |cov[i, j] - cov[j, i]| is 0.5 at (i=0, j=2)")
        assert err.value.exit_code == 2

    @pytest.mark.parametrize("bad, where", [
        ([[1.0, math.inf], [math.inf, 1.0]], (0, 1)),
        ([[1.0, 0.0], [math.nan, 1.0]], (1, 0)),
        ([[1.0, 0.0, 0.0], [0.0, -math.inf, math.nan], [0.0, math.nan, 1.0]], (1, 1)),
    ])
    def test_non_finite_rejected_naming_the_entry(self, bad, where):
        cov = np.array(bad)
        i, j = where
        with pytest.raises(ValidationError,
                           match=rf"^covariance must be finite: entry \(i={i}, j={j}\) is "):
            learn_from_covariance(cov)

    @pytest.mark.parametrize("shape", [(0, 0), (0,), (2, 3)])
    def test_shape_gate_names_the_shape(self, shape):
        with pytest.raises(ValidationError,
                           match=rf"^covariance must be square with p >= 1, got shape "
                                 rf"{re.escape(str(shape))}$"):
            learn_from_covariance(np.zeros(shape))

    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    def test_symmetry_gate_boundary(self, scale):
        # an asymmetry of exactly 1e-8 max(1, max |cov|) passes, one ulp more fails
        tol = 1e-8 * max(1.0, scale)
        for gap, ok in ((tol, True), (np.nextafter(tol, 1.0), False)):
            cov = np.array([[scale, 0.0], [gap, scale]])
            assert np.allclose(cov, cov.T, rtol=0.0, atol=tol) == ok
            if ok:
                learn_from_covariance(cov)
            else:
                with pytest.raises(NumericalDegeneracyError, match="not symmetric"):
                    learn_from_covariance(cov)


class TestEstimateOrdering:
    def test_chain_sample(self):
        data = sample(nonfaithful_chain(), 10_000, seed=42)
        ordering, steps = estimate_ordering(data)
        assert ordering.order == (0, 1, 2)
        assert len(steps) == 3
        assert [len(s) for s in steps] == [3, 2, 1]

    def test_step_variances_cover_remaining_candidates(self):
        data = sample(random_sem(6, "heterogeneous", seed=3), 500, seed=4)
        ordering, steps = estimate_ordering(data)
        placed = []
        for m, step in enumerate(steps):
            candidates = {node for node, _ in step}
            assert candidates == set(range(6)) - set(placed)
            placed.append(ordering[m])

    def test_selected_node_attains_step_minimum(self):
        data = sample(random_sem(6, "homogeneous", seed=8), 400, seed=9)
        result = learn(data)
        assert ordering_is_greedy_minimal(result)
        for m, step in enumerate(result.step_variances):
            values = dict(step)
            assert values[result.ordering[m]] == min(values.values())

    def test_insufficient_samples_rejected(self):
        data = dataset(np.random.default_rng(0).normal(size=(5, 4)))
        with pytest.raises(InsufficientSamplesError):
            estimate_ordering(data)


class TestEstimateParents:
    def test_chain_sample_edges(self):
        data = sample(nonfaithful_chain(), 10_000, seed=42)
        result = learn(data)
        assert result.dag.edges == {(0, 1), (0, 2), (1, 2)}

    def test_false_positive_rate_near_alpha(self):
        # independent pair: the (0,1) test should reject at about the level
        alpha, reps = 0.05, 300
        m = GaussianSem(B=np.zeros((2, 2)), sigma2=np.array([1.0, 2.0]))
        hits = 0
        for rep in range(reps):
            data = sample(m, 200, seed=derive_seed(4242, rep))
            result = learn(data, LearnConfig(alpha=alpha))
            hits += len(result.dag.edges)
        assert 0.02 <= hits / reps <= 0.10

    def test_log_is_complete_audit(self):
        data = sample(random_sem(6, "heterogeneous", seed=12), 800, seed=13)
        result = learn(data)
        pos = {j: i for i, j in enumerate(result.ordering)}
        logged = {(r.earlier, r.later) for r in result.test_log}
        expected = {
            (a, b) for a in range(6) for b in range(6) if pos[a] < pos[b]
        }
        assert logged == expected
        for rec in result.test_log:
            assert ((rec.earlier, rec.later) in result.dag.edges) == rec.dependent

    def test_conditioning_sets_are_other_predecessors(self):
        data = sample(random_sem(5, "heterogeneous", seed=21), 600, seed=22)
        result = learn(data)
        pos = {j: i for i, j in enumerate(result.ordering)}
        for rec in result.test_log:
            predecessors = {j for j in range(5) if pos[j] < pos[rec.later]}
            assert set(rec.given) == predecessors - {rec.earlier}

    def test_marginal_mode_conditions_on_nothing(self):
        data = sample(random_sem(5, "heterogeneous", seed=21), 600, seed=22)
        result = learn(data, LearnConfig(parent_test_mode="marginal"))
        assert all(rec.given == () for rec in result.test_log)

    def test_ordering_length_must_match(self):
        from cvdag.graphs import Ordering

        data = dataset(np.random.default_rng(0).normal(size=(30, 3)))
        with pytest.raises(ValidationError):
            estimate_parents(data, Ordering((0, 1)))

    def test_plain_permutation_is_an_ordering(self):
        data = sample(random_sem(5, "heterogeneous", seed=21), 600, seed=22)
        pi = (3, 0, 4, 1, 2)
        dag, log = estimate_parents(data, pi)
        assert (dag, log) == estimate_parents(data, Ordering(pi))
        assert log.order == pi

    @pytest.mark.parametrize("pi", [(0, 0, 2), [0, 1, 5]])
    def test_non_permutation_rejected(self, pi):
        data = dataset(np.random.default_rng(0).normal(size=(30, 3)))
        with pytest.raises(ValidationError, match="not a permutation"):
            estimate_parents(data, pi)

    @pytest.mark.parametrize("pi, bad", [(("0", "1", "2"), "'0'"), ((0.0, 1, 2), "0.0"),
                                         ((0, True, 2), "True")])
    def test_non_integer_ordering_rejected(self, pi, bad):
        data = dataset(np.random.default_rng(0).normal(size=(30, 3)))
        with pytest.raises(ValidationError, match=f"node id must be an integer, got {bad}$"):
            estimate_parents(data, pi)


class TestLearn:
    def test_result_is_consistent_by_construction(self):
        from cvdag.graphs import is_consistent

        data = sample(random_sem(7, "homogeneous", seed=30), 900, seed=31)
        result = learn(data)
        assert is_consistent(result.ordering, result.dag)

    @pytest.mark.parametrize("mode", ["conditional", "marginal"])
    def test_learn_factors_once(self, monkeypatch, mode):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _factor(*args, **kwargs)

        monkeypatch.setattr(learner_module, "_factor", counting)
        data = sample(random_sem(8, "heterogeneous", seed=5), 300, seed=6)
        learn(data, LearnConfig(parent_test_mode=mode))
        assert len(calls) == 1
        learn(data)
        assert len(calls) == 2

    def test_single_column_dataset(self):
        data = dataset(np.random.default_rng(1).normal(size=(10, 1)))
        result = learn(data)
        assert result.ordering.order == (0,)
        assert result.dag.edges == frozenset()
        assert result.test_log == ()

    def test_row_permutation_leaves_decisions_unchanged(self):
        data = sample(nonfaithful_chain(), 2_000, seed=50)
        rng = np.random.default_rng(51)
        shuffled = Dataset(data.names, data.data[rng.permutation(data.n)])
        a = learn(data)
        b = learn(shuffled)
        assert a.ordering.order == b.ordering.order
        assert a.dag.edges == b.dag.edges
        for ra, rb in zip(a.test_log, b.test_log):
            assert ra.r == pytest.approx(rb.r, rel=1e-9)

    def test_columns_are_not_standardized(self):
        # scaling one column changes its variance rank and may change the
        # ordering; the learner must expose that, not normalize it away
        m = bivariate(0.5, 1.0, 1.0)
        data = sample(m, 5_000, seed=60)
        scaled = Dataset(data.names, data.data * np.array([10.0, 1.0]))
        assert learn(data).ordering.order == (0, 1)
        assert learn(scaled).ordering.order == (1, 0)

    def test_consistency_trend_on_chain(self):
        truth = nonfaithful_chain().dag
        grid = (20, 50, 100, 200)
        means = []
        for n in grid:
            total = 0
            for rep in range(100):
                data = sample(nonfaithful_chain(), n, seed=derive_seed(7000, rep, n))
                total += hamming_dag(truth, learn(data).dag)
            means.append(total / 100)
        violations = sum(
            1 for a, b in zip(means, means[1:]) if b > a + 1e-12
        )
        worst_increase = max(
            (b - a for a, b in zip(means, means[1:])), default=0.0
        )
        assert violations <= 1
        assert worst_increase <= 0.1

    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_dense_heterogeneous_p80(self, s):
        # column variances span ~1e20 here; a ridge scaled to the Gram trace
        # swamps the small residual variances, a QR of the data does not
        m = random_sem(80, "heterogeneous", derive_seed(909, s))
        result = learn(sample(m, 2000, derive_seed(909, s, 1)))
        assert is_consistent(result.ordering, m.dag)
        assert hamming_dag(m.dag, result.dag) <= 0.02 * len(m.dag.edges)

    def test_p320_log_stores_no_per_pair_conditioning_sets(self):
        # 51040 conditional tests; a tuple per test of its p - 2 predecessors
        # on average would hold about 10.9 M ints, some 110 MB at the peak
        data = sample(random_sem(320, "homogeneous", 320), 2000, 321)
        tracemalloc.start()
        try:
            result = learn(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        log = result.test_log
        assert len(log) == 320 * 319 // 2
        assert [f.name for f in dataclasses.fields(log)] == [
            "order", "mode", "threshold", "r", "n"]
        assert log.n == 2000
        for column in (log.r, log.statistic):
            assert type(column) is np.ndarray and column.dtype == np.float64
            assert column.shape == (320 * 319 // 2,) and not column.flags.writeable

    def test_zero_residual_names_step_and_variable(self):
        # a constant column centers to exactly zero and wins the first step
        data = dataset(np.column_stack([np.arange(12.0), np.full(12, 7.0)]))
        with pytest.raises(DegenerateDesignError, match="step 0: variable 1"):
            learn(data)


# small seeded draws for checking the one-factorization learner against the
# single-query references in numerics
SMALL_DRAWS = dict(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 6),
    protocol=st.sampled_from(["homogeneous", "heterogeneous"]),
)
MODES = ["conditional", "marginal"]


class TestAgainstReferences:
    @given(**SMALL_DRAWS)
    @settings(max_examples=25, deadline=None)
    def test_step_variances_match_conditional_variance(self, seed, p, protocol):
        data = sample(random_sem(p, protocol, seed), 60, seed)
        ordering, steps = estimate_ordering(data)
        for m, step in enumerate(steps):
            prefix = ordering.order[:m]
            for j, value in step:
                assert value == pytest.approx(
                    conditional_variance(data, j, prefix), rel=1e-10
                )

    @given(mode=st.sampled_from(MODES), **SMALL_DRAWS)
    @settings(max_examples=25, deadline=None)
    def test_test_log_matches_partial_correlation(self, mode, seed, p, protocol):
        data = sample(random_sem(p, protocol, seed), 60, seed)
        cov = sample_covariance(data)
        result = learn(data, LearnConfig(parent_test_mode=mode))
        for rec in result.test_log:
            want = partial_correlation(cov, rec.later, rec.earlier, rec.given)
            assert rec.r == pytest.approx(want, abs=1e-9)

    @given(mode=st.sampled_from(MODES), seed=st.integers(0, 2**32 - 1), p=st.integers(2, 8),
           protocol=st.sampled_from(["homogeneous", "heterogeneous"]),
           alpha=st.sampled_from([0.01, 0.05, 0.2]))
    @settings(max_examples=40, deadline=None)
    def test_test_log_matches_scalar_fisher_z(self, mode, seed, p, protocol, alpha):
        data = sample(random_sem(p, protocol, seed), 40, seed)
        result = learn(data, LearnConfig(alpha=alpha, parent_test_mode=mode))
        order = result.ordering.order
        pairs = [(e, m) for m in range(1, p) for e in range(m)]
        assert len(result.test_log) == len(pairs)
        for (e, m), rec in zip(pairs, result.test_log):
            given = () if mode == "marginal" else order[:e] + order[e + 1:m]
            out = fisher_z_test(rec.r, data.n, len(given), alpha)
            want = learner_module.TestRecord(order[e], order[m], given, rec.r, out.statistic,
                                             out.threshold, out.dependent)
            assert rec == want
        assert list(result.test_log) == [result.test_log[i] for i in range(len(pairs))]

    @given(mode=st.sampled_from(MODES), seed=st.integers(0, 2**32 - 1), p=st.integers(2, 8),
           protocol=st.sampled_from(["homogeneous", "heterogeneous"]))
    @settings(max_examples=40, deadline=None)
    def test_oracle_log_matches_scalar_threshold(self, mode, seed, p, protocol):
        cfg = LearnConfig(parent_test_mode=mode)
        result = learn_from_covariance(population_covariance(random_sem(p, protocol, seed)), cfg)
        order = result.ordering.order
        pairs = [(e, m) for m in range(1, p) for e in range(m)]
        assert len(result.test_log) == len(pairs)
        for (e, m), rec in zip(pairs, result.test_log):
            given = () if mode == "marginal" else order[:e] + order[e + 1:m]
            tol = cfg.oracle_tolerance
            want = learner_module.TestRecord(order[e], order[m], given, rec.r, abs(rec.r), tol,
                                             abs(rec.r) > tol)
            assert rec == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_moderate_p_matches_references(self, seed):
        # n >> p, so the factor pivots on the p x p triangle of a LAPACK QR.
        # The marginal variances here grow along the causal order, which a
        # reference must survive without cancellation: both regress the
        # centered data rather than factor a Gram or covariance matrix
        data = sample(random_sem(30, "homogeneous", seed), 1000, seed)
        x = data.data - data.data.mean(axis=0)

        def residuals(targets, given):
            given = list(given)
            coef = np.linalg.lstsq(x[:, given], x[:, targets], rcond=None)[0]
            return x[:, targets] - x[:, given] @ coef

        ordering, steps = estimate_ordering(data)
        for m, step in enumerate(steps):
            prefix = ordering.order[:m]
            for j, value in step:
                assert value == pytest.approx(conditional_variance(data, j, prefix), rel=1e-8)
        result = learn(data)
        assert len(result.test_log) == 30 * 29 // 2
        for rec in result.test_log:
            res = residuals([rec.later, rec.earlier], rec.given)
            want = res[:, 0] @ res[:, 1] / np.sqrt((res * res).sum(axis=0).prod())
            assert rec.r == pytest.approx(want, abs=1e-9)

    @given(mode=st.sampled_from(MODES), **SMALL_DRAWS)
    @settings(max_examples=25, deadline=None)
    def test_oracle_r_matches_partial_correlation(self, mode, seed, p, protocol):
        cov = population_covariance(random_sem(p, protocol, seed))
        result = learn_from_covariance(cov, LearnConfig(parent_test_mode=mode))
        for rec in result.test_log:
            want = partial_correlation(cov, rec.later, rec.earlier, rec.given)
            assert rec.r == pytest.approx(want, abs=1e-9)

    @given(**SMALL_DRAWS)
    @settings(max_examples=25, deadline=None)
    def test_given_order_reproduces_the_greedy_factor(self, seed, p, protocol):
        x = sample(random_sem(p, protocol, seed), 60, seed).data
        order, greedy, steps = _factor(x)
        again = _factor(x, order)
        assert again[0] == order and StepLog(order, again[2]) == StepLog(order, steps)
        assert np.array_equal(again[1], greedy)
        assert np.array_equal(greedy, np.triu(greedy))

    @given(mode=st.sampled_from(MODES), **SMALL_DRAWS)
    @settings(max_examples=25, deadline=None)
    def test_learn_is_the_composition_of_its_stages(self, mode, seed, p, protocol):
        data = sample(random_sem(p, protocol, seed), 60, seed)
        cfg = LearnConfig(parent_test_mode=mode)
        ordering, steps = estimate_ordering(data)
        dag, log = estimate_parents(data, ordering, cfg)
        assert learn(data, cfg) == LearnResult(ordering, dag, steps, log)


def learned_log(source):
    """The test log of a p=6 model: learned in either parent-test mode, or by
    the oracle from its covariance."""
    model = random_sem(6, "heterogeneous", seed=3)
    if source == "oracle":
        return learn_from_covariance(population_covariance(model)).test_log
    return learn(sample(model, 500, seed=4), LearnConfig(parent_test_mode=source)).test_log


class TestTestLog:
    """The columnar decision record reads as the tuple of its records."""

    @pytest.mark.parametrize("source", MODES + ["oracle"])
    def test_indexing_matches_the_tuple(self, source):
        log = learned_log(source)
        whole = tuple(log)
        assert len(log) == len(whole) == 15
        for i in range(-15, 15):
            assert log[i] == whole[i]
        for cut in (slice(None), slice(1, 4), slice(-2, None), slice(None, None, -2),
                    slice(12, 1, -3), slice(None, -20, -1), slice(13, 19), slice(16, 20)):
            assert log[cut] == whole[cut]
        for bad in (15, -16):
            with pytest.raises(IndexError):
                log[bad]

    @pytest.mark.parametrize("source", MODES + ["oracle"])
    def test_equality_in_both_directions(self, source):
        log = learned_log(source)
        whole = tuple(log)
        again = learned_log(source)
        assert log == whole and whole == log
        assert log == again and again == log
        assert not (log != whole or whole != log)
        assert log != whole[:-1] and whole[:-1] != log
        flipped = dataclasses.replace(whole[-1], dependent=not whole[-1].dependent)
        changed = whole[:-1] + (flipped,)
        assert log != changed and changed != log
        assert log != list(whole)

    @pytest.mark.parametrize("mode", MODES)
    def test_oracle_statistic_is_abs_r(self, mode):
        cov = population_covariance(random_sem(6, "heterogeneous", seed=3))
        log = learn_from_covariance(cov, LearnConfig(parent_test_mode=mode)).test_log
        assert log.n is None
        assert log.statistic.tobytes() == np.abs(log.r).tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_learned_statistic_is_the_scalar_fisher_z(self, mode):
        log = learned_log(mode)
        assert log.n == 500
        want = [fisher_z_test(rec.r, log.n, len(rec.given), 0.01).statistic for rec in log]
        assert log.statistic.tolist() == want

    @pytest.mark.parametrize("source", MODES + ["oracle"])
    def test_statistic_is_derived_on_first_read_and_kept(self, source):
        log = learned_log(source)
        assert "statistic" not in vars(log)
        statistic = log.statistic
        assert vars(log)["statistic"] is statistic and log.statistic is statistic
        assert statistic.dtype == np.float64 and statistic.shape == log.r.shape
        assert not statistic.flags.writeable
        assert (statistic > log.threshold).tolist() == [rec.dependent for rec in log]


def reference_factor(x, order=None):
    """The pivot loop as it was before it ran in place: each step gathers the
    unplaced columns by fancy indexing and scatters the update back."""
    x = np.asarray(x, dtype=float)
    w = np.linalg.qr(x, mode="r") if x.shape[0] > x.shape[1] else np.array(x)
    p = w.shape[1]
    remaining = list(range(p))
    placed = []
    steps = []
    for m in range(p):
        block = w[m:, remaining]
        rss = np.einsum("ij,ij->j", block, block)
        steps.append(tuple(zip(remaining, rss.tolist())))
        i = int(np.argmin(rss)) if order is None else remaining.index(order[m])
        j = remaining.pop(i)
        if rss[i] == 0.0:
            raise DegenerateDesignError(
                f"factorization step {m}: variable {j} has zero residual given the"
                f" {m} variables placed before it"
            )
        v = block[:, i]
        alpha = -math.copysign(math.sqrt(rss[i]), v[0])
        v[0] -= alpha
        w[m, j] = alpha
        w[m + 1:, j] = 0.0
        if remaining:
            rest = w[m:, remaining]
            w[m:, remaining] = rest - np.outer(v, (v @ rest) * (2.0 / (v @ v)))
        placed.append(j)
    return tuple(placed), w[:p, placed], tuple(steps)


def factor_inputs(p, protocol, seed):
    """Centered tall data (n = 3p) and its square p x p triangle, whose Gram
    matrix is the data's, as the L^T of learn_from_covariance is the
    covariance's."""
    data = sample(random_sem(p, protocol, seed), 3 * p, seed + 1).data
    x = data - data.mean(axis=0)
    return x, np.linalg.qr(x, mode="r")


class TestFactorAgainstGatherLoop:
    """The in-place pivot loop returns the same order, R and step RSS, bit for
    bit, as the gather/scatter loop it replaced."""

    @staticmethod
    def assert_same(x, order=None):
        want = reference_factor(x, order)
        got = _factor(x, order)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert StepLog(got[0], got[2]) == want[2]
        return got

    @pytest.mark.parametrize("p", [2, 3, 10, 40, 80])
    @pytest.mark.parametrize("protocol", ["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tall_and_square(self, p, protocol, seed):
        for x in factor_inputs(p, protocol, seed):
            self.assert_same(x)

    @pytest.mark.parametrize("p", [3, 10, 40])
    def test_given_order(self, p):
        x, lt = factor_inputs(p, "heterogeneous", 7)
        order = tuple(np.random.default_rng(p).permutation(p).tolist())
        for arg in (x, lt):
            assert self.assert_same(arg, order)[0] == order

    def test_exact_ties_go_to_the_lower_index(self):
        # square input skips the LAPACK pre-reduction, so integer entries make
        # every step-0 RSS an exact sum: column 4 is a row permutation of the
        # smallest column 1, and column 6 an exact copy of it
        rng = np.random.default_rng(11)
        x = rng.integers(-20, 21, size=(7, 7)).astype(float)
        x[:, 1] = rng.integers(-2, 3, size=7)
        x[:, 4] = rng.permutation(x[:, 1])
        x[:, 6] = x[:, 1]
        rss = np.einsum("ij,ij->j", x, x)
        assert rss[1] == rss[4] == rss[6] == rss.min()
        distinct = x.copy()
        distinct[:, 6] = rng.integers(-20, 21, size=7)
        assert self.assert_same(distinct)[0][0] == 1
        # with the copy, column 1 is placed first and leaves the copy nothing
        with pytest.raises(DegenerateDesignError) as want:
            reference_factor(x)
        with pytest.raises(DegenerateDesignError) as got:
            _factor(x)
        assert str(got.value) == str(want.value)
        assert "step 1: variable 6" in str(got.value)

    def test_zero_residual_message_unchanged(self):
        x, _ = factor_inputs(5, "homogeneous", 3)
        x[:, 2] = 0.0
        with pytest.raises(DegenerateDesignError) as want:
            reference_factor(x, (0, 1, 2, 3, 4))
        with pytest.raises(DegenerateDesignError) as got:
            _factor(x, (0, 1, 2, 3, 4))
        assert str(got.value) == str(want.value)
        assert "step 2: variable 2" in str(got.value)


def reference_pair_correlations(r, mode):
    """``_pair_correlations`` as it was before it read U = R^-1 by flat index:
    T = (R^T)^-1, 2-d fancy indexing and np.clip."""
    rows, cols = learner_module._lower_pairs(r.shape[0])
    if mode == "marginal":
        gram = r.T @ r
        scale = np.sqrt(np.diag(gram))
        corr = gram[rows, cols] / (scale[rows] * scale[cols])
    else:
        # LU of an upper-triangular matrix swaps no rows, so T is exactly lower
        t = np.linalg.inv(r).T
        norms = np.sqrt(np.cumsum(t * t, axis=0))
        corr = -np.sign(t[rows, rows]) * t[rows, cols] / norms[rows, cols]
    return rows, cols, np.clip(corr, -1.0, 1.0)


class TestPairCorrelationsAgainstReference:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("p", [2, 3, 10, 40, 80])
    @pytest.mark.parametrize("protocol", ["homogeneous", "heterogeneous"])
    def test_tall_and_square_factors(self, mode, p, protocol):
        for seed in range(2):
            for x in factor_inputs(p, protocol, seed):
                _, r, _ = _factor(x)
                want = reference_pair_correlations(r, mode)
                got = learner_module._pair_correlations(r, mode)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def scaled(steps, n):
    """``reference_factor``'s step tuples as residual variances RSS / (n - m - 1)."""
    return tuple(tuple((j, value / (n - m - 1)) for j, value in step)
                 for m, step in enumerate(steps))


class TestStepLog:
    """The columnar step record reads as the tuples the gather loop built."""

    @pytest.mark.parametrize("p", [2, 10, 40])
    @pytest.mark.parametrize("protocol", ["homogeneous", "heterogeneous"])
    def test_tall_input_equals_the_gather_loop(self, p, protocol):
        data = sample(random_sem(p, protocol, p), 3 * p, p + 1)
        want = reference_factor(data.data - data.data.mean(axis=0))
        ordering, steps = estimate_ordering(data)
        assert ordering.order == want[0] and steps.n == data.n
        assert steps == scaled(want[2], data.n) and steps != want[2]
        assert tuple(steps) == scaled(want[2], data.n)
        assert learn(data).step_variances == steps

    @pytest.mark.parametrize("p", [2, 10, 40])
    @pytest.mark.parametrize("protocol", ["homogeneous", "heterogeneous"])
    def test_population_covariance_equals_the_gather_loop(self, p, protocol):
        cov = population_covariance(random_sem(p, protocol, p))
        want = reference_factor(np.linalg.cholesky(cov).T)
        steps = learn_from_covariance(cov).step_variances
        assert steps.order == want[0] and steps.n is None
        assert steps == want[2] and tuple(steps) == want[2]

    def test_indexing_matches_the_tuple(self):
        data = sample(random_sem(6, "heterogeneous", seed=3), 500, seed=4)
        _, steps = estimate_ordering(data)
        whole = tuple(steps)
        assert len(steps) == len(whole) == 6
        for i in range(-6, 6):
            assert steps[i] == whole[i]
            assert steps.values(i).tolist() == [value for _, value in whole[i]]
        for cut in (slice(None), slice(1, 4), slice(-2, None), slice(None, None, -2),
                    slice(4, 1, -1), slice(7, 9)):
            assert steps[cut] == whole[cut]
        for bad in (6, -7):
            with pytest.raises(IndexError):
                steps[bad]
            with pytest.raises(IndexError):
                steps.values(bad)

    def test_equality_in_both_directions(self):
        data = sample(random_sem(5, "homogeneous", seed=8), 400, seed=9)
        ordering, steps = estimate_ordering(data)
        whole = tuple(steps)
        again = estimate_ordering(data)[1]
        assert steps == whole and whole == steps
        assert steps == again and again == steps
        assert not (steps != whole or whole != steps)
        assert steps != whole[:-1] and whole[:-1] != steps
        changed = whole[:-1] + (((whole[-1][0][0], whole[-1][0][1] + 1.0),),)
        assert steps != changed and changed != steps
        unscaled = StepLog(ordering.order, steps.rss)
        assert steps != unscaled and unscaled != steps
        assert steps != list(whole)

    def test_audit_rejects_a_non_greedy_order(self):
        data = sample(random_sem(6, "heterogeneous", seed=3), 500, seed=4)
        greedy = learn(data)
        assert ordering_is_greedy_minimal(greedy)
        order = greedy.ordering.order[::-1]
        dag, log = estimate_parents(data, Ordering(order))
        again, _, rss = _factor(data.data - data.data.mean(axis=0), order)
        assert again == order
        result = LearnResult(Ordering(order), dag, StepLog(order, rss, data.n), log)
        assert not ordering_is_greedy_minimal(result)
        # with the greedy first pick kept, step 0 passes and a later step fails
        first = greedy.ordering.order[0]
        order = (first,) + tuple(j for j in order if j != first)
        _, _, rss = _factor(data.data - data.data.mean(axis=0), order)
        result = LearnResult(Ordering(order), dag, StepLog(order, rss, data.n), log)
        assert not ordering_is_greedy_minimal(result)

    def test_p320_steps_are_one_float_array(self):
        # 51360 (node, value) tuples, the form before, held about 4.5 MB
        data = sample(random_sem(320, "homogeneous", 320), 2000, 321)
        tracemalloc.start()
        try:
            _, steps = estimate_ordering(data)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1e6
        result = learn(data)
        for log in (steps, result.step_variances):
            assert [f.name for f in dataclasses.fields(log)] == ["order", "rss", "n"]
            assert type(log.rss) is np.ndarray and log.rss.dtype == np.float64
            assert log.rss.shape == (320 * 321 // 2,) and not log.rss.flags.writeable
        assert np.array_equal(result.step_variances.rss, steps.rss)
