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
from cvdag.graphs import Dag, hamming_dag, is_consistent
from cvdag.learner import (
    LearnConfig,
    LearnResult,
    _factor,
    estimate_ordering,
    estimate_parents,
    learn,
    learn_from_covariance,
    ordering_is_greedy_minimal,
)
from cvdag.numerics import Dataset, conditional_variance, partial_correlation, sample_covariance
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

    def test_asymmetric_rejected(self):
        with pytest.raises(NumericalDegeneracyError):
            learn_from_covariance(np.array([[1.0, 0.2], [0.0, 1.0]]))


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
        assert again[0] == order and again[2] == steps
        assert np.array_equal(again[1], greedy)
        assert np.array_equal(greedy, np.triu(greedy))

    @given(mode=st.sampled_from(MODES), **SMALL_DRAWS)
    @settings(max_examples=25, deadline=None)
    def test_learn_is_the_composition_of_its_stages(self, mode, seed, p, protocol):
        data = sample(random_sem(p, protocol, seed), 60, seed)
        cfg = LearnConfig(parent_test_mode=mode)
        ordering, steps = estimate_ordering(data, cfg)
        dag, log = estimate_parents(data, ordering, cfg)
        assert learn(data, cfg) == LearnResult(ordering, dag, steps, log)
