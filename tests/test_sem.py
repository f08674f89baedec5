import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvdag.sem as sem
from cvdag.errors import DataFormatError, NumericalDegeneracyError, ValidationError
from cvdag.graphs import Ordering, descendants, topological_order
from cvdag.sem import (
    GaussianSem,
    _propagate,
    _total_effects,
    bivariate_weight_threshold,
    bivariate_weight_threshold_conservative,
    check_identifiability,
    derive_seed,
    format_sem,
    nonfaithful_chain,
    population_conditional_variance,
    population_covariance,
    population_precision,
    random_sem,
    read_sem,
    sample,
    seeded_rng,
    write_sem,
)

CHAIN_COV = np.array([[2.25, 2.25, 4.5], [2.25, 3.75, 6.0], [4.5, 6.0, 12.0]])


def bivariate(beta, s1, s2):
    return GaussianSem(B=np.array([[0.0, 0.0], [beta, 0.0]]),
                       sigma2=np.array([s1, s2]))


def pure_chain(b1, b2, s1, s2, s3):
    b = np.zeros((3, 3))
    b[1, 0] = b1
    b[2, 1] = b2
    return GaussianSem(B=b, sigma2=np.array([s1, s2, s3]))


class TestModelValidation:
    def test_cyclic_support_rejected(self):
        b = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValidationError):
            GaussianSem(B=b, sigma2=np.ones(2))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValidationError):
            GaussianSem(B=np.zeros((2, 2)), sigma2=np.array([1.0, 0.0]))

    def test_dag_edges_follow_support(self):
        m = nonfaithful_chain()
        assert m.dag.edges == {(0, 1), (0, 2), (1, 2)}


def exact_total_effects(m):
    """(I - B)^-1 by forward substitution in exact rational arithmetic."""
    b = [[Fraction(w) for w in row] for row in m.B.tolist()]
    a = [[Fraction(0)] * m.p for _ in range(m.p)]
    for k in topological_order(m.dag):
        row = [Fraction(int(i == k)) for i in range(m.p)]
        for i, w in enumerate(b[k]):
            if w:
                row = [x + w * y for x, y in zip(row, a[i])]
        a[k] = row
    return a


class TestTotalEffects:
    @pytest.mark.parametrize("protocol", ["homogeneous", "heterogeneous"])
    def test_matches_exact_rational_reference_at_p60(self, protocol):
        m = random_sem(60, protocol, derive_seed(1901, 60, 0))
        got = _total_effects(m)
        exact = exact_total_effects(m)
        assert np.array_equal(got == 0.0, np.array([[x == 0 for x in r] for r in exact]))
        want = np.array([[float(x) for x in r] for r in exact])
        # Forward substitution is accurate componentwise relative to the
        # summed magnitudes of the path products, (I - |B|)^-1, up to about
        # p^2 eps (8e-13 at p=60). That sum equals |A| wherever no paths of
        # opposite sign cancel; where they do, |A| itself can be far smaller.
        paths = exact_total_effects(GaussianSem(B=np.abs(m.B), sigma2=m.sigma2))
        assert np.all(np.abs(got - want) <= 1e-12 * np.array(paths, dtype=float))

    def test_overflow_is_a_typed_error_naming_the_entry(self):
        # weights of 1e200 along a chain: A[1, 0]^2 and A[2, 0] overflow float64
        m = pure_chain(1e200, 1e200, 1.0, 1.0, 1.0)
        for call in (population_covariance, check_identifiability):
            with pytest.raises(NumericalDegeneracyError,
                               match=r"^total effects: .* at \(k=1, i=0\)$"):
                call(m)


class TestPopulationCovariance:
    def test_empty_graph_identity(self):
        m = GaussianSem(B=np.zeros((2, 2)), sigma2=np.ones(2))
        assert np.allclose(population_covariance(m), np.eye(2))

    def test_chain_model_matches_structural_expansion(self):
        got = population_covariance(nonfaithful_chain())
        assert np.allclose(got, CHAIN_COV, atol=1e-12)
        # cross-check against the matrix identity route with explicit inverse
        m = nonfaithful_chain()
        inv = np.linalg.inv(np.eye(3) - m.B)
        assert np.allclose(got, inv @ np.diag(m.sigma2) @ inv.T, atol=1e-12)

    def test_bivariate_child_variance(self):
        beta, s1, s2 = 0.8, 1.3, 0.4
        cov = population_covariance(bivariate(beta, s1, s2))
        assert cov[1, 1] == pytest.approx(s2 + beta**2 * s1, rel=1e-12)

    def test_spd(self):
        m = random_sem(8, "heterogeneous", seed=4)
        np.linalg.cholesky(population_covariance(m))


class TestPopulationPrecision:
    def test_single_node(self):
        m = GaussianSem(B=np.zeros((1, 1)), sigma2=np.array([4.0]))
        assert np.allclose(population_precision(m), [[0.25]])

    def test_two_node_chain(self):
        got = population_precision(bivariate(1.0, 1.0, 1.0))
        assert np.allclose(got, [[2.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_nonfaithful_zero_is_exact(self):
        prec = population_precision(nonfaithful_chain())
        assert prec[0, 1] == 0.0
        assert prec[1, 0] == 0.0
        # while both structural edges into X2 and X3 exist
        m = nonfaithful_chain()
        assert m.B[1, 0] != 0.0 and m.B[2, 1] != 0.0

    def test_inverse_product_small_models_tight(self):
        for protocol, seed in (("homogeneous", 0), ("heterogeneous", 1)):
            for p in (5, 10):
                m = random_sem(p, protocol, seed=seed)
                prod = population_covariance(m) @ population_precision(m)
                assert np.max(np.abs(prod - np.eye(p))) < 1e-9

    def test_inverse_product_large_model_condition_scaled(self):
        # dense weighted graphs at p=80 reach covariance entries ~1e15; the
        # product check must scale with what float64 can represent
        m = random_sem(80, "homogeneous", seed=7)
        cov = population_covariance(m)
        prec = population_precision(m)
        scale = np.abs(cov).max() * np.abs(prec).max()
        residual = np.max(np.abs(cov @ prec - np.eye(80)))
        assert residual < 1e-9 * scale


class TestPopulationConditionalVariance:
    def test_identity(self):
        assert population_conditional_variance(np.eye(4), 2, [0, 3]) == pytest.approx(1.0)

    def test_chain_third_given_first(self):
        got = population_conditional_variance(CHAIN_COV, 2, [0])
        assert got == pytest.approx(12.0 - 4.5**2 / 2.25, rel=1e-12)
        assert got == pytest.approx(3.0)

    def test_chain_second_given_first_recovers_noise(self):
        got = population_conditional_variance(CHAIN_COV, 1, [0])
        assert got == pytest.approx(1.5, rel=1e-12)

    def test_empty_set_is_marginal(self):
        assert population_conditional_variance(CHAIN_COV, 2, []) == pytest.approx(12.0)


class TestCheckIdentifiability:
    def test_equal_variances_nonzero_weight(self):
        assert check_identifiability(bivariate(0.3, 1.0, 1.0)).satisfied

    def test_large_weight_any_variances(self):
        assert check_identifiability(bivariate(1.2, 5.0, 0.01)).satisfied

    def test_chain_margins(self):
        report = check_identifiability(nonfaithful_chain(), Ordering((0, 1, 2)))
        assert report.satisfied
        margins = {(g.j, g.k): (g.lhs, g.rhs) for g in report.margins}
        assert margins[(0, 1)] == pytest.approx((2.25, 3.75))
        assert margins[(0, 2)] == pytest.approx((2.25, 12.0))
        assert margins[(1, 2)] == pytest.approx((1.5, 3.0))
        assert report.worst_margin == pytest.approx(1.5)

    def test_unidentifiable_bivariate(self):
        # rhs = 0.1 + 0.04 = 0.14 < 1: the inequality fails
        report = check_identifiability(bivariate(0.2, 1.0, 0.1))
        assert not report.satisfied
        assert report.worst_margin == pytest.approx(0.14 - 1.0)

    def test_boundary_equality_not_satisfied(self):
        # sigma2/sigma1 ratio r with beta^2 = 1 - r^2 exactly: margin is zero
        r2 = 0.5
        report = check_identifiability(bivariate(math.sqrt(1 - r2), 1.0, r2))
        assert not report.satisfied
        assert report.worst_margin == pytest.approx(0.0, abs=1e-15)

    def test_inconsistent_ordering_rejected(self):
        with pytest.raises(ValidationError):
            check_identifiability(nonfaithful_chain(), Ordering((2, 1, 0)))

    def test_node_itself_never_compared(self):
        report = check_identifiability(nonfaithful_chain())
        assert all(g.j != g.k for g in report.margins)

    def test_later_scope_covers_non_descendants(self):
        # 0 -> 2 <- 1: under (0,1,2), node 1 is later than 0 but not a descendant
        m = GaussianSem(
            B=np.array([[0, 0, 0], [0, 0, 0], [1.0, 1.0, 0]]), sigma2=np.ones(3)
        )
        default = check_identifiability(m, Ordering((0, 1, 2)))
        strict = check_identifiability(m, Ordering((0, 1, 2)), scope="later")
        assert {(g.j, g.k) for g in default.margins} == {(0, 2), (1, 2)}
        assert {(g.j, g.k) for g in strict.margins} == {(0, 1), (0, 2), (1, 2)}
        # equal marginal variances make the (0,1) later-scope margin an equality
        assert not strict.satisfied
        assert default.satisfied

    def test_chain_conditions_match_closed_forms(self):
        # grid over (beta1, beta2, sigma1^2) with unit later noise, then over
        # the three variances at fixed weights; compare with the closed forms
        def closed_form(b1, b2, s1, s2, s3):
            return (
                s1 < s2 + b1**2 * s1
                and s1 < s3 + b2**2 * s2 + b2**2 * b1**2 * s1
                and s2 < s3 + b2**2 * s2
            )

        grids = []
        values = [0.2, 0.5, 0.9, 1.3, 2.0]
        for b1, b2, s1 in itertools.product(values, repeat=3):
            grids.append((b1, b2, s1, 1.0, 1.0))
        for s1, s2, s3 in itertools.product(values, repeat=3):
            grids.append((0.6, 0.8, s1, s2, s3))
        for b1, b2, s1, s2, s3 in grids:
            report = check_identifiability(pure_chain(b1, b2, s1, s2, s3))
            assert report.satisfied == closed_form(b1, b2, s1, s2, s3), (
                b1, b2, s1, s2, s3,
            )

    def test_law_of_total_variance_self_check_runs_clean(self):
        for seed in range(25):
            protocol = "homogeneous" if seed % 2 == 0 else "heterogeneous"
            check_identifiability(random_sem(10, protocol, seed=seed))

    def test_failed_self_check_is_a_typed_error(self, monkeypatch):
        # corrupt a total effect that the structural form B A never reads: the
        # path 0 -> 1 -> 2 enters (B A)[2, 0] through A[1, 0], not A[2, 0]
        exact = sem._total_effects

        def corrupted(m):
            a = exact(m)
            a[2, 0] *= 1.0 + 1e-6
            return a

        monkeypatch.setattr(sem, "_total_effects", corrupted)
        with pytest.raises(NumericalDegeneracyError) as err:
            check_identifiability(pure_chain(0.5, 0.5, 1.0, 1.0, 1.0))
        assert str(err.value).endswith(
            "self-check failed at (j=0, k=2): total-effect sum 1.3125001250000625"
            " vs structural form 1.3125"
        )

    @pytest.mark.parametrize("scope", ["descendants", "later"])
    def test_nan_total_effect_fails_self_check_without_warning(self, scope, monkeypatch):
        # 0 * NaN is NaN, so B A carries the NaN into every row at noise 0, and
        # the first row (0, 1) already compares a finite sum against a NaN
        exact = sem._total_effects

        def with_nan(m):
            a = exact(m)
            a[2, 0] = np.nan
            return a

        monkeypatch.setattr(sem, "_total_effects", with_nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDegeneracyError) as err:
                check_identifiability(pure_chain(0.5, 0.5, 1.0, 1.0, 1.0), scope=scope)
        assert str(err.value).endswith(
            "self-check failed at (j=0, k=1): total-effect sum 1.25 vs structural form nan"
        )

    def test_edgeless_model_has_an_empty_report(self):
        report = check_identifiability(GaussianSem(B=np.zeros((4, 4)), sigma2=np.ones(4)))
        assert len(report.margins) == 0
        assert report.satisfied
        assert report.worst_margin == math.inf

    @staticmethod
    def _assert_rows_follow_loop_order(m, scope):
        pi = topological_order(m.dag)
        report = check_identifiability(m, pi, scope=scope)
        expected = [
            (j, k)
            for pos, j in enumerate(pi)
            for k in (pi[pos + 1:] if scope == "later" else sorted(descendants(m.dag, j)))
        ]
        margins = report.margins
        assert list(zip(margins.j.tolist(), margins.k.tolist())) == expected
        assert np.array_equal(margins.lhs, m.sigma2[margins.j])
        assert not margins.flags.writeable

    @pytest.mark.parametrize("scope", ["descendants", "later"])
    @given(st.integers(0, 10_000), st.integers(2, 15), st.floats(0.0, 0.6))
    @settings(max_examples=40, deadline=None)
    def test_rows_follow_loop_order(self, scope, seed, p, prob):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(p)
        b = np.zeros((p, p))
        for later in range(1, p):
            for earlier in range(later):
                if rng.random() < prob:
                    b[perm[later], perm[earlier]] = rng.choice([-1, 1]) * rng.uniform(0.5, 1.5)
        m = GaussianSem(B=b, sigma2=rng.uniform(1.0, 3.0, size=p))
        self._assert_rows_follow_loop_order(m, scope)

    @pytest.mark.parametrize("scope", ["descendants", "later"])
    @pytest.mark.parametrize("protocol", ["homogeneous", "heterogeneous"])
    def test_rows_follow_loop_order_generated_p80(self, protocol, scope):
        for rep in range(2):
            m = random_sem(80, protocol, derive_seed(1901, 80, rep))
            self._assert_rows_follow_loop_order(m, scope)

    @pytest.mark.parametrize("protocol", ["homogeneous", "heterogeneous"])
    def test_report_at_p80(self, protocol):
        m = random_sem(80, protocol, derive_seed(1901, 80, 0))
        report = check_identifiability(m, scope="later")
        assert len(report.margins) == 80 * 79 // 2

    def test_exact_tie_is_exact(self):
        # 0 -> 2 and unit noise: Var(X2 | X0) is sigma_2^2 = 1 with no rounding,
        # so the later-scope margin (1, 2) is an exact tie, not satisfied
        b = np.zeros((3, 3))
        b[2, 0] = 1.3
        report = check_identifiability(GaussianSem(B=b, sigma2=np.ones(3)), scope="later")
        rhs = {(g.j, g.k): g.rhs for g in report.margins}
        assert rhs[(1, 2)] == 1.0
        assert not report.satisfied

    def test_homogeneous_later_scope_tie_is_not_satisfied(self):
        m = random_sem(10, "homogeneous", derive_seed(1901, 10, 6))
        report = check_identifiability(m, scope="later")
        assert not report.satisfied
        assert report.worst_margin == 0.0


class TestBivariateThresholds:
    def test_equal_variances(self):
        assert bivariate_weight_threshold(1.0) == 0.0
        assert bivariate_weight_threshold_conservative(1.0) == pytest.approx(0.0)

    def test_large_ratio_always_identifiable(self):
        assert bivariate_weight_threshold(2.0) == 0.0

    def test_small_ratio(self):
        assert bivariate_weight_threshold(0.5) == pytest.approx(0.75)
        assert bivariate_weight_threshold_conservative(0.5) == pytest.approx(
            0.75 + math.sqrt(0.9375)
        )
        assert bivariate_weight_threshold_conservative(0.5) == pytest.approx(
            1.7182, abs=5e-5
        )

    def test_conservative_above_one(self):
        got = bivariate_weight_threshold_conservative(math.sqrt(2.0))
        assert got == pytest.approx(2.0 * (1.0 + math.sqrt(3.0)), rel=1e-12)
        assert got == pytest.approx(5.4641, abs=5e-5)

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValidationError):
            bivariate_weight_threshold(0.0)
        with pytest.raises(ValidationError):
            bivariate_weight_threshold_conservative(-1.0)

    @given(st.floats(1e-6, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_dominance(self, r):
        mild = bivariate_weight_threshold(r)
        strict = bivariate_weight_threshold_conservative(r)
        assert strict >= mild - 1e-15
        if r < 1.0:
            assert strict > mild


class TestSampling:
    def test_deterministic_bit_for_bit(self):
        m = nonfaithful_chain()
        a = sample(m, 97, seed=123)
        b = sample(m, 97, seed=123)
        assert np.array_equal(a.data, b.data)
        assert a.names == b.names

    def test_near_degenerate_noise_returns_intercepts(self):
        m = GaussianSem(B=np.zeros((3, 3)), sigma2=np.full(3, 1e-12),
                        intercepts=np.array([5.0, -2.0, 0.5]))
        data = sample(m, 1, seed=0)
        assert np.max(np.abs(data.data[0] - m.intercepts)) < 1e-5

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            sample(nonfaithful_chain(), 0, seed=0)

    def test_column_order_is_node_order_not_topological(self):
        # node 1 is the source here; columns must still appear as X0, X1
        m = GaussianSem(B=np.array([[0.0, 2.0], [0.0, 0.0]]),
                        sigma2=np.array([1.0, 1.0]))
        data = sample(m, 2000, seed=5)
        assert data.names == ("X0", "X1")
        assert np.var(data.data[:, 0]) > np.var(data.data[:, 1])

    def test_permutation_equivariance(self):
        m = random_sem(5, "heterogeneous", seed=9)
        perm = np.array([3, 0, 4, 1, 2])
        b2 = np.zeros_like(m.B)
        for j in range(5):
            for k in range(5):
                b2[perm[j], perm[k]] = m.B[j, k]
        m2 = GaussianSem(B=b2, sigma2=m.sigma2[np.argsort(perm)],
                         intercepts=m.intercepts[np.argsort(perm)])
        noise = seeded_rng(77).standard_normal((40, 5)) * np.sqrt(m.sigma2)
        noise2 = np.empty_like(noise)
        noise2[:, perm] = noise
        x = _propagate(m, noise)
        x2 = _propagate(m2, noise2)
        assert np.allclose(x2[:, perm], x, atol=1e-12)


class TestRandomSem:
    def test_homogeneous_weight_window_and_variances(self):
        m = random_sem(12, "homogeneous", seed=31)
        weights = m.B[m.B != 0.0]
        assert np.all((np.abs(weights) >= 0.25) & (np.abs(weights) <= 2.0))
        assert np.all(m.sigma2 == 1.0)

    def test_heterogeneous_weight_window_and_variances(self):
        m = random_sem(12, "heterogeneous", seed=32)
        weights = m.B[m.B != 0.0]
        assert np.all((np.abs(weights) >= 1.0) & (np.abs(weights) <= 2.0))
        assert np.all((m.sigma2 >= 1.0) & (m.sigma2 <= 3.0))
        assert len(set(m.sigma2)) > 1

    def test_heterogeneous_always_identifiable(self):
        for seed in range(40):
            m = random_sem(6, "heterogeneous", seed=seed)
            assert check_identifiability(m).satisfied

    def test_homogeneous_always_identifiable(self):
        for seed in range(40):
            m = random_sem(6, "homogeneous", seed=seed)
            assert check_identifiability(m).satisfied

    def test_homogeneous_identifiable_at_p20(self):
        # covariance magnitudes reach ~1e7 here; the check must still hold
        for seed in range(5):
            m = random_sem(20, "homogeneous", seed=seed)
            assert check_identifiability(m).satisfied

    def test_edge_density_matches_window_survival(self):
        # survival of the zeroing window: 3.5/4 and 2/4 of all pairs
        for protocol, want in (("homogeneous", 0.875), ("heterogeneous", 0.5)):
            pairs = kept = 0
            p = 15
            for seed in range(100):  # 100 models x 105 pairs > 10^4 draws
                m = random_sem(p, protocol, seed=seed)
                pairs += p * (p - 1) // 2
                kept += int(np.count_nonzero(m.B))
            assert kept / pairs == pytest.approx(want, abs=0.02)

    def test_determinism(self):
        a = random_sem(9, "heterogeneous", seed=100)
        b = random_sem(9, "heterogeneous", seed=100)
        assert np.array_equal(a.B, b.B) and np.array_equal(a.sigma2, b.sigma2)

    def test_too_few_nodes(self):
        with pytest.raises(ValidationError):
            random_sem(1, "homogeneous", seed=0)


class TestNonfaithfulChain:
    def test_exact_parameters(self):
        m = nonfaithful_chain()
        assert np.array_equal(m.B, [[0, 0, 0], [1, 0, 0], [1, 1, 0]])
        assert np.array_equal(m.sigma2, [2.25, 1.5, 1.5])

    def test_first_node_does_not_have_smallest_noise(self):
        m = nonfaithful_chain()
        assert m.sigma2[0] > m.sigma2[1] and m.sigma2[0] > m.sigma2[2]

    def test_identifiable_despite_that(self):
        assert check_identifiability(nonfaithful_chain(), Ordering((0, 1, 2))).satisfied


class TestSemFiles:
    def test_round_trip_exact(self, tmp_path):
        m = random_sem(7, "heterogeneous", seed=2)
        path = tmp_path / "model.sem"
        write_sem(m, path)
        back = read_sem(path)
        assert np.array_equal(back.B, m.B)
        assert np.array_equal(back.sigma2, m.sigma2)
        assert np.array_equal(back.intercepts, m.intercepts)
        write_sem(back, path)
        assert format_sem(back) == path.read_text()

    def test_ugly_floats_survive(self, tmp_path):
        b = np.zeros((2, 2))
        b[1, 0] = 1.0 / 3.0
        m = GaussianSem(B=b, sigma2=np.array([math.pi, 2.0 / 7.0]))
        path = tmp_path / "m.sem"
        write_sem(m, path)
        back = read_sem(path)
        assert back.B[1, 0] == m.B[1, 0]
        assert np.array_equal(back.sigma2, m.sigma2)

    def test_parse_error_located(self, tmp_path):
        path = tmp_path / "bad.sem"
        path.write_text("p 2\nsigma2 1 1\nedge 0 1 huh\n")
        with pytest.raises(DataFormatError, match="bad.sem:3"):
            read_sem(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.sem"
        path.write_text("edge 0 1 0.5\n")
        with pytest.raises(DataFormatError):
            read_sem(path)

    def test_cyclic_file_rejected(self, tmp_path):
        path = tmp_path / "cyc.sem"
        path.write_text("p 2\nsigma2 1 1\nedge 0 1 1\nedge 1 0 1\n")
        with pytest.raises(DataFormatError):
            read_sem(path)


class TestSeedStreams:
    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
        assert derive_seed(5) != derive_seed(6)

    def test_topological_order_of_generated_models(self):
        m = random_sem(10, "homogeneous", seed=77)
        pi = topological_order(m.dag)
        positions = {j: i for i, j in enumerate(pi)}
        assert all(positions[a] < positions[b] for a, b in m.dag.edges)
