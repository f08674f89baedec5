import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvdag.errors import (
    DegenerateDesignError,
    InsufficientSamplesError,
    NumericalDegeneracyError,
    ValidationError,
)
from cvdag.numerics import (
    Dataset,
    _fisher_z,
    _triangle,
    conditional_variance,
    fisher_z_test,
    partial_correlation,
    sample_covariance,
)
from cvdag.sem import (
    nonfaithful_chain,
    population_conditional_variance,
    population_covariance,
    sample,
)

# Oracle for the fixed 3-node chain model: X1=e1, X2=X1+e2, X3=X1+X2+e3 means
# X = C @ eps with the coefficient rows below, so Cov(X) = C diag(s2) C^T.
CHAIN_COEFS = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 1.0, 1.0]])
CHAIN_SIGMA2 = np.array([2.25, 1.5, 1.5])
CHAIN_COV = CHAIN_COEFS @ np.diag(CHAIN_SIGMA2) @ CHAIN_COEFS.T
# frozen from the oracle above
CHAIN_COV_EXPECTED = np.array(
    [[2.25, 2.25, 4.5], [2.25, 3.75, 6.0], [4.5, 6.0, 12.0]]
)


def dataset(arr):
    arr = np.asarray(arr, dtype=float)
    return Dataset(tuple(f"x{i}" for i in range(arr.shape[1])), arr)


class TestSampleCovariance:
    def test_identical_columns_rank_one(self):
        col = np.array([1.0, 2.0, 4.0, 8.0])
        cov = sample_covariance(dataset(np.column_stack([col, col])))
        v = np.var(col, ddof=1)
        assert np.allclose(cov, [[v, v], [v, v]])
        assert np.linalg.matrix_rank(cov) == 1

    def test_constant_column_zero_row_and_col(self):
        data = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        cov = sample_covariance(dataset(data))
        assert np.all(cov[0, :] == 0.0)
        assert np.all(cov[:, 0] == 0.0)

    def test_chain_oracle_matches_frozen_matrix(self):
        assert np.allclose(CHAIN_COV, CHAIN_COV_EXPECTED, atol=1e-12)

    def test_monte_carlo_convergence_to_population(self):
        data = sample(nonfaithful_chain(), 100_000, seed=20260809)
        cov = sample_covariance(data)
        assert np.max(np.abs(cov - CHAIN_COV_EXPECTED)) < 0.15

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        cov = sample_covariance(dataset(rng.normal(size=(40, 6))))
        assert np.array_equal(cov, cov.T)

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientSamplesError):
            sample_covariance(dataset([[1.0, 2.0]]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(25, 4))
        perm = rng.permutation(25)
        a = sample_covariance(dataset(data))
        b = sample_covariance(dataset(data[perm]))
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


def simple_regression_residual_variance(x, y):
    """Independent closed-form oracle for one centered regressor."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    xc = x - x.mean()
    yc = y - y.mean()
    slope = (xc * yc).sum() / (xc * xc).sum()
    resid = yc - slope * xc
    return (resid * resid).sum() / (len(x) - 2)


class TestDataArguments:
    @pytest.mark.parametrize("call, stage", [
        (sample_covariance, "covariance needs"),
        (lambda data: conditional_variance(data, 0, (1,)), "conditional variance needs"),
    ])
    def test_data_must_be_a_dataset(self, call, stage):
        # an array once raised a bare AttributeError on .n or .p
        with pytest.raises(ValidationError) as err:
            call(np.zeros((5, 3)))
        assert str(err.value) == f"{stage} a Dataset, got ndarray"


class TestConditionalVariance:
    def test_exact_linear_dependence_gives_zero(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        data = dataset(np.column_stack([xs, 2.0 * xs]))
        assert conditional_variance(data, 1, [0]) == pytest.approx(0.0, abs=1e-20)

    def test_empty_set_is_sample_variance(self):
        data = dataset(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
        assert conditional_variance(data, 0, []) == pytest.approx(2.5)

    def test_hand_worked_simple_regression(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 1.0, 2.0, 2.0])
        data = dataset(np.column_stack([x, y]))
        got = conditional_variance(data, 1, [0])
        assert got == pytest.approx(0.1)
        assert got == pytest.approx(simple_regression_residual_variance(x, y))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_simple_regression_oracle(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(30, 2))
        got = conditional_variance(dataset(data), 0, [1])
        want = simple_regression_residual_variance(data[:, 1], data[:, 0])
        assert got == pytest.approx(want, rel=1e-10)

    def test_monotone_under_nested_conditioning(self):
        rng = np.random.default_rng(11)
        data = dataset(rng.normal(size=(60, 6)))
        j = 5
        prev = math.inf
        for size in range(5):
            value = conditional_variance(data, j, list(range(size)))
            # df shrinks as the set grows; compare the scale-free RSS instead
            rss = value * (data.n - size - 1)
            assert rss <= prev + 1e-9
            prev = rss

    def test_empty_set_matches_covariance_diagonal_exactly(self):
        rng = np.random.default_rng(7)
        data = dataset(rng.normal(size=(20, 4)))
        cov = sample_covariance(data)
        for j in range(4):
            assert conditional_variance(data, j, []) == pytest.approx(
                cov[j, j], rel=1e-12
            )

    def test_j_in_conditioning_set_rejected(self):
        data = dataset(np.random.default_rng(0).normal(size=(10, 3)))
        with pytest.raises(ValidationError):
            conditional_variance(data, 1, [1, 2])

    def test_too_few_rows_rejected(self):
        data = dataset(np.random.default_rng(0).normal(size=(3, 3)))
        with pytest.raises(InsufficientSamplesError):
            conditional_variance(data, 0, [1, 2])

    def test_duplicated_design_column_gives_the_projection_residual(self):
        # least squares projects onto the span of the columns, so an exact
        # duplicate changes only the degrees of freedom
        xs = np.random.default_rng(0).normal(size=8)
        ys = np.random.default_rng(1).normal(size=8)
        data = dataset(np.column_stack([xs, xs, ys]))
        got = conditional_variance(data, 2, [0, 1])
        want = conditional_variance(dataset(np.column_stack([xs, ys])), 1, [0])
        assert got == pytest.approx(want * 6 / 5, rel=1e-6)  # df 5 vs 6

    def test_zero_design_column_degenerate(self):
        # a constant column centers to zero and has nothing to regress on
        data = dataset(np.column_stack([np.full(8, 2.0),
                                        np.random.default_rng(1).normal(size=8)]))
        with pytest.raises(DegenerateDesignError):
            conditional_variance(data, 1, [0])


class TestConditionIndices:
    """The index checks that conditional_variance, partial_correlation and
    population_conditional_variance share."""

    CALLS = {
        "conditional_variance": lambda j, given: conditional_variance(
            dataset(np.random.default_rng(0).normal(size=(10, 3))), j, given),
        "partial_correlation": lambda j, given: partial_correlation(CHAIN_COV, j, 2, given),
        "population_conditional_variance": lambda j, given: population_conditional_variance(
            CHAIN_COV, j, given),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("j, given, message", [
        (1.0, (), "variable index must be an integer, got 1.0"),
        ("1", (), "variable index must be an integer, got '1'"),
        (True, (), "variable index must be an integer, got True"),
        (1, (0.0,), "conditioning index must be an integer, got 0.0"),
        (1, (np.int64(0), None), "conditioning index must be an integer, got None"),
    ])
    def test_non_integer_index_rejected(self, call, j, given, message):
        # a float index used to reach numpy and raise a bare IndexError
        with pytest.raises(ValidationError, match=re.escape(message)):
            self.CALLS[call](j, given)

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("given", [(3,), (0, -1)])
    def test_conditioning_index_out_of_range_rejected(self, call, given):
        message = f"conditioning index {given[-1]} out of range for p=3"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            self.CALLS[call](1, given)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_numpy_integer_indices_accepted(self, call):
        assert self.CALLS[call](np.int64(1), (np.int32(0),)) == self.CALLS[call](1, (0,))


class TestPartialCorrelation:
    def test_identity_covariance_any_set(self):
        eye = np.eye(4)
        assert partial_correlation(eye, 0, 1, []) == 0.0
        assert partial_correlation(eye, 0, 1, [2, 3]) == 0.0

    def test_chain_pair_given_third_is_zero(self):
        # the non-faithfulness zero: equal later noise variances cancel exactly
        assert partial_correlation(CHAIN_COV, 0, 1, [2]) == pytest.approx(0.0, abs=1e-12)

    def test_chain_pair_marginal(self):
        want = 2.25 / math.sqrt(2.25 * 3.75)
        assert partial_correlation(CHAIN_COV, 0, 1, []) == pytest.approx(want)
        assert want == pytest.approx(0.7746, abs=5e-5)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_full_conditioning_matches_precision_formula(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(8, 5))
        cov = a.T @ a + 0.5 * np.eye(5)
        theta = np.linalg.inv(cov)
        for j, k in [(0, 1), (2, 4)]:
            rest = tuple(i for i in range(5) if i not in (j, k))
            want = -theta[j, k] / math.sqrt(theta[j, j] * theta[k, k])
            got = partial_correlation(cov, j, k, rest)
            assert got == pytest.approx(want, abs=1e-9)

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(10, 4))
        cov = a.T @ a
        r1 = partial_correlation(cov, 0, 3, [1])
        r2 = partial_correlation(cov, 3, 0, [1])
        assert -1.0 <= r1 <= 1.0
        assert r1 == pytest.approx(r2)

    def test_degenerate_submatrix_rejected(self):
        cov = np.ones((3, 3))  # singular
        with pytest.raises(NumericalDegeneracyError):
            partial_correlation(cov, 0, 1, [2])

    def test_non_spd_block_error_names_the_call(self):
        cov = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NumericalDegeneracyError) as err:
            partial_correlation(cov, 1, 0, [2])
        assert str(err.value) == ("partial_correlation: the covariance block of j=1, k=0"
                                  " and given=[2] is not positive definite")
        assert err.value.exit_code == 2

    def test_same_variable_rejected(self):
        with pytest.raises(ValidationError):
            partial_correlation(np.eye(3), 1, 1, [])


def fisher_p_value(r, n, s):
    """erfc-based two-sided p-value; independent of the quantile route."""
    z = math.sqrt(n - s - 3) * abs(math.atanh(r))
    return math.erfc(z / math.sqrt(2.0))


class TestFisherZ:
    def test_zero_correlation_independent(self):
        out = fisher_z_test(0.0, 50, 2, 0.05)
        assert out.independent
        assert out.statistic == 0.0

    def test_textbook_dependent_case(self):
        out = fisher_z_test(0.5, 88, 3, 0.05)
        assert out.dependent
        assert out.statistic == pytest.approx(math.sqrt(82) * math.atanh(0.5), rel=1e-12)
        assert out.statistic == pytest.approx(4.974, abs=2e-3)
        assert out.threshold == pytest.approx(1.960, abs=5e-4)

    def test_textbook_independent_case(self):
        out = fisher_z_test(0.1, 30, 0, 0.01)
        assert out.independent
        assert out.statistic == pytest.approx(0.521, abs=2e-3)
        assert out.threshold == pytest.approx(2.576, abs=5e-4)

    @given(
        st.floats(-0.999, 0.999),
        st.integers(10, 500),
        st.integers(0, 5),
        st.sampled_from([0.01, 0.05, 0.1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_decision_matches_p_value_oracle(self, r, n, s, alpha):
        out = fisher_z_test(r, n, s, alpha)
        p = fisher_p_value(r, n, s)
        if abs(p - alpha) > 1e-9:  # skip knife-edge rounding disagreements
            assert out.dependent == (p < alpha)

    @given(
        st.floats(0.0, 0.99),
        st.floats(0.0, 0.99),
        st.integers(10, 200),
        st.integers(0, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_abs_r(self, r1, r2, n, s):
        lo, hi = sorted([r1, r2])
        if fisher_z_test(lo, n, s, 0.05).dependent:
            assert fisher_z_test(hi, n, s, 0.05).dependent

    def test_array_rule_is_the_scalar_rule(self):
        # the learner's statistics and fisher_z_test share _fisher_z: +inf at
        # |r| >= 1, atanh clipped within 1e-12 of +-1, and s per entry
        edge = 1.0 - 1e-13
        r = np.array([-1.0, -edge, -0.5, 0.0, 0.3, edge, 1.0])
        s = np.array([0, 1, 2, 3, 4, 5, 6])
        want = [math.inf if abs(x) >= 1.0 else
                math.sqrt(50 - k - 3) * abs(math.atanh(min(1.0 - 1e-12, max(-(1.0 - 1e-12), x))))
                for x, k in zip(r.tolist(), s.tolist())]
        assert _fisher_z(r, 50, s).tolist() == want
        assert [fisher_z_test(x, 50, k, 0.05).statistic
                for x, k in zip(r.tolist(), s.tolist())] == want

    def test_perfect_correlation_flagged_infinite(self):
        out = fisher_z_test(1.0, 50, 0, 0.05)
        assert out.dependent
        assert math.isinf(out.statistic)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            fisher_z_test(0.3, 6, 3, 0.05)

    def test_bad_alpha(self):
        with pytest.raises(ValidationError):
            fisher_z_test(0.3, 50, 0, 1.5)

    @pytest.mark.parametrize("r, alpha, error", [
        ("x", 0.05, "r must be a real number, got 'x'"),
        (0.3, "0.05", "alpha must be a real number, got '0.05'"),
    ])
    def test_non_real_arguments_rejected(self, r, alpha, error):
        # once a bare TypeError
        with pytest.raises(ValidationError, match=f"^{error}$"):
            fisher_z_test(r, 50, 0, alpha)

    def test_nan_correlation_rejected(self):
        # the clamp would turn NaN into -(1 - 1e-12), a confident "dependent"
        with pytest.raises(ValidationError, match="NaN"):
            fisher_z_test(float("nan"), 100, 0, 0.05)

    @pytest.mark.parametrize("n, s, error", [
        ("50", 0, "n must be an integer, got '50'"),
        (50.5, 0, "n must be an integer, got 50.5"),
        (math.nan, 0, "n must be an integer, got nan"),
        (True, -5, "n must be an integer, got True"),
        (50, -1, "s must be a non-negative integer, got -1"),
        (50, 1.5, "s must be a non-negative integer, got 1.5"),
    ])
    def test_sizes_that_are_not_integers_rejected(self, n, s, error):
        # "50" once raised a bare TypeError and the others were used as given:
        # n = nan passed the n > s + 3 guard and gave "independent" at
        # statistic nan
        with pytest.raises(ValidationError) as err:
            fisher_z_test(0.3, n, s, 0.05)
        assert str(err.value) == error
        assert type(err.value) is ValidationError

    def test_numpy_integer_sizes_accepted(self):
        # numpy integers are integers here, as everywhere in the package
        want = fisher_z_test(0.3, 50, 2, 0.05)
        assert fisher_z_test(0.3, np.int64(50), np.int32(2), 0.05) == want


# each covariance reference, named as its refusals name it
COVARIANCE_READERS = {
    "partial_correlation": lambda cov: partial_correlation(cov, 0, 1, [2]),
    "population_conditional_variance": lambda cov: population_conditional_variance(cov, 1, [2, 0]),
}


@pytest.mark.parametrize("caller", COVARIANCE_READERS)
class TestCovarianceGate:
    def test_nan_entry_rejected(self, caller):
        # once returned nan
        cov = CHAIN_COV.copy()
        cov[0, 2] = cov[2, 0] = math.nan
        with pytest.raises(ValidationError) as err:
            COVARIANCE_READERS[caller](cov)
        assert str(err.value) == "covariance must be finite: entry (i=0, j=2) is nan"

    def test_nested_list_read_as_an_array(self, caller):
        # once a bare AttributeError on cov.shape
        read = COVARIANCE_READERS[caller]
        assert read(CHAIN_COV.tolist()) == read(CHAIN_COV)

    def test_complex_rejected(self, caller):
        with pytest.raises(ValidationError, match="^covariance must hold real numbers$"):
            COVARIANCE_READERS[caller](CHAIN_COV + 1j)

    def test_asymmetric_rejected(self, caller):
        cov = CHAIN_COV.copy()
        cov[2, 0] += 0.5
        with pytest.raises(NumericalDegeneracyError) as err:
            COVARIANCE_READERS[caller](cov)
        assert str(err.value) == (f"{caller}: covariance is not symmetric: largest"
                                  " |cov[i, j] - cov[j, i]| is 0.5 at (i=0, j=2)")

    def test_not_square_rejected(self, caller):
        message = "covariance must be square with p >= 1, got shape (3, 4)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            COVARIANCE_READERS[caller](np.zeros((3, 4)))


class TestTriangle:
    @pytest.mark.parametrize("p", [*range(13), 80])
    def test_equals_numpy_tables(self, p):
        for upper, want in ((False, np.tril_indices(p, -1)), (True, np.triu_indices(p, 1))):
            rows, cols = _triangle(p, upper=upper)
            assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])
            assert rows.dtype == want[0].dtype and cols.dtype == want[1].dtype

    @pytest.mark.parametrize("upper", [False, True])
    def test_read_only_and_cached(self, upper):
        rows, cols = _triangle(6, upper=upper)
        again = _triangle(6, upper=upper)
        assert again[0] is rows and again[1] is cols
        for table in (rows, cols):
            with pytest.raises(ValueError):
                table[0] = 1


class TestDataset:
    def test_bad_name_count(self):
        with pytest.raises(ValidationError):
            Dataset(("a",), np.zeros((3, 2)))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(("a", "b"), np.array([[1.0, float("nan")]]))

    @pytest.mark.parametrize("data, message", [
        (np.zeros(3), "dataset must be 2-D, got shape (3,)"),
        (np.zeros((0, 1)), "dataset needs at least one row"),
        (np.empty((3, 0)), "dataset needs at least one column"),
    ])
    def test_shape_rejected(self, data, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Dataset(("a",), data)

    @pytest.mark.parametrize("data", [
        np.array([[1 + 2j, 2]]),
        [[1 + 2j, 2.0]],
        np.array([[1j, 2]], dtype=object),
        [["x", 2.0]],
    ])
    def test_complex_or_non_numeric_rejected(self, data):
        # a complex array lost its imaginary part with a ComplexWarning; the
        # others raised a bare TypeError or ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^dataset must hold real numbers$"):
                Dataset(("a", "b"), data)

    def test_integer_too_large_for_float64_rejected(self):
        # raised a bare OverflowError: int too large to convert to float
        with pytest.raises(ValidationError,
                           match="^dataset holds an integer too large for float64$"):
            Dataset(("a",), [[10**400]])

    def test_data_is_frozen(self):
        ds = dataset(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ds.data[0, 0] = 1.0

    def test_consistency_with_population_covariance(self):
        assert np.allclose(population_covariance(nonfaithful_chain()), CHAIN_COV)
