import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvdag.sem as sem
from cvdag.errors import DataFormatError, NumericalDegeneracyError, ValidationError
from cvdag.graphs import Dag, Ordering, descendants, topological_order
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
        with pytest.raises(ValidationError, match="^edge set contains a directed cycle$"):
            GaussianSem(B=b, sigma2=np.ones(2))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValidationError):
            GaussianSem(B=np.zeros((2, 2)), sigma2=np.array([1.0, 0.0]))

    def test_dag_edges_follow_support(self):
        m = nonfaithful_chain()
        assert m.dag.edges == {(0, 1), (0, 2), (1, 2)}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["B", "sigma2", "intercepts"])
    def test_non_finite_parameters_rejected(self, name, bad):
        args = {"B": np.zeros((2, 2)), "sigma2": np.ones(2), "intercepts": np.zeros(2)}
        args[name].flat[1] = bad
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            GaussianSem(**args)

    @pytest.mark.parametrize("args, message", [
        ({"sigma2": np.ones(3)}, "sigma2 must have length 2"),
        ({"intercepts": np.zeros(3)}, "intercepts must have length 2"),
        ({"B": np.eye(2)}, "diagonal of B must be zero"),
    ])
    def test_lengths_and_diagonal_checked(self, args, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            GaussianSem(**{"B": np.zeros((2, 2)), "sigma2": np.ones(2), **args})

    @pytest.mark.parametrize("bad", [1j, np.complex128(1 + 1j)])
    @pytest.mark.parametrize("name", ["B", "sigma2", "intercepts"])
    def test_complex_parameters_rejected(self, name, bad):
        # B and intercepts lost the imaginary part with a ComplexWarning and
        # sigma2 raised a bare TypeError
        args = {"B": np.zeros((2, 2)), "sigma2": np.ones(2), "intercepts": np.zeros(2)}
        args[name] = args[name].astype(complex)
        args[name].flat[1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{name} must hold real numbers$"):
                GaussianSem(**args)
        args[name] = args[name].tolist()
        with pytest.raises(ValidationError, match=f"^{name} must hold real numbers$"):
            GaussianSem(**args)

    @pytest.mark.parametrize("name", ["B", "sigma2", "intercepts"])
    def test_integer_too_large_for_float64_rejected(self, name):
        # raised a bare OverflowError: int too large to convert to float
        args = {"B": [[0, 0], [1, 0]], "sigma2": [1, 1], "intercepts": [0, 0]}
        args[name][-1] = [10**400, 0] if name == "B" else 10**400
        with pytest.raises(ValidationError,
                           match=f"^{name} holds an integer too large for float64$"):
            GaussianSem(**args)

    def test_empty_model_rejected(self):
        with pytest.raises(ValidationError, match="p >= 1"):
            GaussianSem(B=np.zeros((0, 0)), sigma2=np.zeros(0))

    @pytest.mark.parametrize("text, where", [
        ("p 2\nsigma2 1 1\nedge 0 1 nan\n", "B must be finite"),
        ("p 2\nsigma2 1 inf\n", "sigma2 must be finite"),
        ("p 2\nsigma2 1 1\nintercept 0 -inf\n", "intercepts must be finite"),
        ("p 0\nsigma2\n", "bad.sem:1: p must be >= 1"),
        ("sigma2 1\np -1\n", "bad.sem:2: p must be >= 1"),
        # the integer rule reads p only after int() parses it
        ("sigma2 1\np 0\n", "bad.sem:2: p must be >= 1, got 0$"),
        ("p True\nsigma2 1\n", "bad.sem:1: cannot parse 'p True'$"),
        ("p 1.5\nsigma2 1\n", r"bad.sem:1: cannot parse 'p 1\.5'$"),
        ("p 1000000000\nsigma2 1\n", "bad.sem:2: sigma2 has 1 values for p=1000000000"),
        ("p 2\nsigma2 1 1\ncolor red\n", "bad.sem:3: unknown field 'color'"),
        ("p 2\nsigma2 1 1\nedge 0 1 1\nedge 2 0 1\n", r"bad.sem:4: edge \(2,0\) out of range$"),
        # once read back as a model without the edge
        ("p 2\nsigma2 1 1\nedge 1 1 0\n", r"bad.sem:3: edge \(1,1\) has weight 0$"),
        ("p 2\nsigma2 1 1\nedge 0 1 -0.0\n", r"bad.sem:3: edge \(0,1\) has weight 0$"),
    ])
    def test_read_sem_rejects_invalid_values(self, tmp_path, text, where):
        path = tmp_path / "bad.sem"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=where):
            read_sem(path)


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


class TestModelArguments:
    @pytest.mark.parametrize("call, stage", [
        (lambda m: sample(m, 10, seed=0), "sample needs"),
        (population_covariance, "population covariance needs"),
        (population_precision, "population precision needs"),
        (check_identifiability, "identifiability check needs"),
    ])
    def test_model_must_be_a_gaussian_sem(self, call, stage):
        # an array once raised a bare AttributeError on .p, .dag or ._effects
        with pytest.raises(ValidationError) as err:
            call(np.eye(3))
        assert str(err.value) == f"{stage} a GaussianSem, got ndarray"


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



def _reordered(m):
    """A consistent ordering other than the default: the reverse of a
    topological order of the reversed graph."""
    flipped = Dag(m.p, frozenset((b, a) for a, b in m.dag.edges))
    return Ordering(topological_order(flipped).order[::-1])


def _derived_bytes(m, consumer, pi):
    if consumer == "covariance":
        return population_covariance(m).tobytes()
    if consumer == "sample":
        return sample(m, 30, 7).data.tobytes()
    scope, given_pi = consumer
    report = check_identifiability(m, pi if given_pi else None, scope=scope)
    return report.margins.tobytes(), report.satisfied, report.worst_margin


_CONSUMERS = ["covariance", ("descendants", False), ("later", False),
              ("descendants", True), ("later", True), "sample"]


class TestDerivedAlgebraPerModel:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("protocol", ["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize("p", [2, 10, 40, 80])
    def test_reused_model_gives_the_bytes_of_fresh_ones(self, p, protocol, reverse):
        m = random_sem(p, protocol, derive_seed(1901, p, 3))
        pi = _reordered(m)
        consumers = _CONSUMERS[::-1] if reverse else _CONSUMERS
        reused = [_derived_bytes(m, c, pi) for c in consumers]
        fresh = [_derived_bytes(GaussianSem(B=m.B, sigma2=m.sigma2), c, pi)
                 for c in consumers]
        assert reused == fresh

    def test_total_effects_built_once_per_model(self, monkeypatch):
        built = []
        exact = sem._total_effects

        def counting(m):
            built.append(m)
            return exact(m)

        monkeypatch.setattr(sem, "_total_effects", counting)
        models = [random_sem(10, "heterogeneous", seed) for seed in range(2)]
        for m in models:
            for consumer in _CONSUMERS:
                _derived_bytes(m, consumer, _reordered(m))
        assert built == models

    def test_overflow_raises_on_every_call(self, monkeypatch):
        calls = []
        exact = sem._total_effects

        def counting(m):
            calls.append(m)
            return exact(m)

        monkeypatch.setattr(sem, "_total_effects", counting)
        m = pure_chain(1e200, 1e200, 1.0, 1.0, 1.0)
        for call in (population_covariance, check_identifiability) * 2:
            with pytest.raises(NumericalDegeneracyError,
                               match=r"^total effects: .* at \(k=1, i=0\)$"):
                call(m)
        assert len(calls) == 4

    def test_shared_arrays_are_read_only(self):
        m = random_sem(10, "homogeneous", 4)
        check_identifiability(m)
        mask = sem.descendant_mask(m.dag)
        for shared in (m._effects, mask):
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0, 0] = shared[0, 0]
        assert topological_order(m.dag) is topological_order(m.dag)
        assert sem.descendant_mask(m.dag) is mask
        # the covariance is still the caller's own array
        assert population_covariance(m).flags.writeable

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

    def test_negative_index_rejected(self):
        # used to wrap around and return Var(X_2)
        with pytest.raises(ValidationError, match="out of range"):
            population_conditional_variance(CHAIN_COV, -1, [])

    def test_index_past_end_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            population_conditional_variance(CHAIN_COV, 3, [0])

    def test_repeated_conditioning_index_rejected(self):
        with pytest.raises(ValidationError, match="duplicates"):
            population_conditional_variance(CHAIN_COV, 2, [0, 0])

    def test_non_spd_block_error_names_the_call(self):
        cov = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NumericalDegeneracyError) as err:
            population_conditional_variance(cov, 1, [2, 0])
        assert str(err.value) == ("population_conditional_variance: the covariance block of"
                                  " k=1 and given=[2, 0] is not positive definite")
        assert err.value.exit_code == 2


def _suffix_sums(w):
    """out[:, q] = w[:, q:].sum(axis=1), summed from the last column back."""
    return np.cumsum(w[:, ::-1], axis=1)[:, ::-1]


def reference_check(m, pi=None, scope="descendants"):
    """``check_identifiability`` as it was before its single stacked cumulative
    sum: two suffix sums over pi-ordered columns and np.rec.fromarrays."""
    if scope not in sem.SCOPES:
        raise ValidationError(f"unknown scope {scope!r}: use {' or '.join(map(repr, sem.SCOPES))}")
    if pi is None:
        pi = topological_order(m.dag)
    elif not sem.is_consistent(pi, m.dag):
        raise ValidationError("ordering is not consistent with the model's graph")
    a = m._effects
    cols = np.asarray(list(pi))
    s2 = m.sigma2[cols]
    cond = _suffix_sums(a[:, cols] ** 2 * s2)
    ltv = m.sigma2[:, None] + _suffix_sums((m.B @ a)[:, cols] ** 2 * s2)
    if scope == "later":
        pos, q = np.triu_indices(m.p, 1)
        k = cols[q]
    else:
        pos, k = np.nonzero(sem.descendant_mask(m.dag)[cols])
    j = cols[pos]
    rhs, rhs_alt = cond[k, pos], ltv[k, pos]
    bad = ~(np.abs(rhs - rhs_alt) <= sem._LTV_RTOL * np.maximum(1.0, rhs))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalDegeneracyError(
            f"identifiability check: law-of-total-variance self-check failed at (j={j[i]},"
            f" k={k[i]}): total-effect sum {float(rhs[i])!r} vs structural form"
            f" {float(rhs_alt[i])!r}"
        )
    lhs = m.sigma2[j]
    margins = np.rec.fromarrays([j, k, lhs, rhs], dtype=sem._MARGIN_FIELDS)
    margins.flags.writeable = False
    worst = float((rhs - lhs).min()) if rhs.size else math.inf
    return sem.IdentifiabilityReport(bool(np.all(lhs < rhs)), margins, worst)


class TestCheckAgainstReference:
    """The stacked cumulative sum gives the rows, margins and verdict of the
    two suffix sums it replaced, byte for byte."""

    @staticmethod
    def assert_same(m, pi, scope):
        want = reference_check(m, pi, scope)
        got = check_identifiability(m, pi, scope)
        assert got.margins.dtype == want.margins.dtype
        assert type(got.margins) is type(want.margins) is np.recarray
        assert got.margins.tobytes() == want.margins.tobytes()
        assert not got.margins.flags.writeable
        assert got.satisfied is want.satisfied
        assert repr(got.worst_margin) == repr(want.worst_margin)

    @pytest.mark.parametrize("scope", ["descendants", "later"])
    @pytest.mark.parametrize("protocol", ["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize("p", [2, 3, 5, 10, 20, 40, 60, 80])
    def test_generated_models(self, p, protocol, scope):
        for rep in range(2):
            m = random_sem(p, protocol, derive_seed(1901, p, rep))
            for pi in (None, _reordered(m)):
                self.assert_same(m, pi, scope)

    @pytest.mark.parametrize("scope", ["descendants", "later"])
    @given(st.integers(0, 10_000), st.integers(2, 12), st.floats(0.0, 0.7))
    @settings(max_examples=30, deadline=None)
    def test_sparse_models(self, scope, seed, p, prob):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(p)
        b = np.zeros((p, p))
        for later in range(1, p):
            for earlier in range(later):
                if rng.random() < prob:
                    b[perm[later], perm[earlier]] = rng.uniform(-2.0, 2.0)
        m = GaussianSem(B=b, sigma2=rng.uniform(0.5, 3.0, size=p))
        self.assert_same(m, None, scope)
        self.assert_same(m, tuple(_reordered(m)), scope)

    @pytest.mark.parametrize("scope", ["descendants", "later"])
    def test_failed_self_check_same_message(self, scope, monkeypatch):
        exact = sem._total_effects

        def corrupted(m):
            a = exact(m)
            a[2, 0] *= 1.0 + 1e-6
            return a

        monkeypatch.setattr(sem, "_total_effects", corrupted)
        errors = []
        for check in (reference_check, check_identifiability):
            with pytest.raises(NumericalDegeneracyError) as err:
                check(pure_chain(0.5, 0.5, 1.0, 1.0, 1.0), None, scope)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert errors[1].endswith("total-effect sum 1.3125001250000625 vs structural form 1.3125")


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

    def test_plain_permutation_is_an_ordering(self):
        m = random_sem(6, "heterogeneous", seed=4)
        pi = topological_order(m.dag)
        for scope in sem.SCOPES:
            given = check_identifiability(m, tuple(pi), scope=scope)
            assert given.margins.tobytes() == check_identifiability(
                m, pi, scope=scope).margins.tobytes()

    @pytest.mark.parametrize("pi", [(0, 0, 2), [0, 1, 5]])
    def test_non_permutation_rejected(self, pi):
        with pytest.raises(ValidationError, match="not a permutation"):
            check_identifiability(nonfaithful_chain(), pi)

    @pytest.mark.parametrize("pi, bad", [((0.0, 1.0, 2.0), "0.0"), ((0, 1, 2.5), "2.5"),
                                         ((False, True, 2), "False")])
    def test_non_integer_ordering_rejected(self, pi, bad):
        with pytest.raises(ValidationError, match=f"node id must be an integer, got {bad}$"):
            check_identifiability(nonfaithful_chain(), pi)

    def test_numpy_integer_ordering_accepted(self):
        m = nonfaithful_chain()
        got = check_identifiability(m, np.arange(3, dtype=np.int32))
        assert got.margins.tobytes() == check_identifiability(m).margins.tobytes()

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

    @pytest.mark.parametrize("scope", ["Later", "descendant", "", None])
    def test_unknown_scope_rejected(self, scope):
        message = "unknown scope" if isinstance(scope, str) else "scope must be a string, got None"
        with pytest.raises(ValidationError, match=message):
            check_identifiability(nonfaithful_chain(), scope=scope)

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

    @pytest.mark.parametrize("threshold", [bivariate_weight_threshold,
                                           bivariate_weight_threshold_conservative])
    def test_nan_ratio_rejected(self, threshold):
        # r <= 0 let NaN through, to 0.0 and to nan
        with pytest.raises(ValidationError, match="variance ratio must be positive, got nan"):
            threshold(math.nan)

    @pytest.mark.parametrize("threshold", [bivariate_weight_threshold,
                                           bivariate_weight_threshold_conservative])
    @pytest.mark.parametrize("ratio", ["1", None, 1j, [1.0]])
    def test_non_number_ratio_rejected(self, threshold, ratio):
        # a bare TypeError from the comparison with 0.0
        with pytest.raises(ValidationError,
                           match=re.escape(f"variance ratio must be a real number, got {ratio!r}")):
            threshold(ratio)

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

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_non_integer_n_rejected(self, n):
        # these reached numpy and raised a bare TypeError
        with pytest.raises(ValidationError,
                           match=re.escape(f"sample size must be an integer, got {n!r}")):
            sample(nonfaithful_chain(), n, seed=0)

    def test_numpy_integer_n_accepted(self):
        got = sample(nonfaithful_chain(), np.int64(5), seed=0)
        assert np.array_equal(got.data, sample(nonfaithful_chain(), 5, seed=0).data)

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
    @pytest.mark.parametrize("p", [5.0, "5", True, None])
    def test_non_integer_node_count_rejected(self, p):
        # these reached numpy and raised a bare AxisError or TypeError
        with pytest.raises(ValidationError,
                           match=re.escape(f"node count must be an integer, got {p!r}")):
            random_sem(p, "homogeneous", seed=0)

    def test_numpy_integer_node_count_accepted(self):
        got, want = random_sem(np.int64(5), "homogeneous", 0), random_sem(5, "homogeneous", 0)
        assert np.array_equal(got.B, want.B) and np.array_equal(got.sigma2, want.sigma2)

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

    @pytest.mark.parametrize("protocol", ["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize("p, seeds", [(p, range(10)) for p in range(2, 31)]
                             + [(p, range(3)) for p in (40, 60, 80)])
    def test_matches_per_pair_reference(self, p, seeds, protocol):
        for seed in seeds:
            m = random_sem(p, protocol, seed)
            b, sigma2 = reference_random_sem(p, protocol, seed)
            assert m.B.tobytes() == b.tobytes()
            assert m.sigma2.tobytes() == sigma2.tobytes()
            ref = Dag(p, frozenset(
                (k, j) for j in range(p) for k in range(p) if b[j, k] != 0.0))
            assert m.dag == ref
            assert topological_order(m.dag) == topological_order(ref)

    @pytest.mark.parametrize("protocol", ["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize("p", [2, 10, 80])
    def test_matches_tril_indices_reference(self, p, protocol):
        # the same seeded_rng calls in the same order: permutation, weights, sigma2
        rng = seeded_rng(p)
        perm = rng.permutation(p)
        later, earlier = np.tril_indices(p, -1)
        betas = rng.uniform(-2.0, 2.0, size=later.size)
        betas[np.abs(betas) < sem.WEIGHT_WINDOWS[protocol]] = 0.0
        b = np.zeros((p, p))
        b[perm[later], perm[earlier]] = betas
        sigma2 = np.ones(p) if protocol == "homogeneous" else rng.uniform(1.0, 3.0, size=p)
        m = random_sem(p, protocol, p)
        assert m.B.tobytes() == b.tobytes()
        assert m.sigma2.tobytes() == sigma2.tobytes()


def reference_random_sem(p, protocol, seed):
    """random_sem's draws placed one pair at a time: (B, sigma2)."""
    rng = seeded_rng(seed)
    perm = rng.permutation(p)
    betas = rng.uniform(-2.0, 2.0, size=p * (p - 1) // 2)
    window = sem.WEIGHT_WINDOWS[protocol]
    b = np.zeros((p, p))
    idx = 0
    for later in range(1, p):
        for earlier in range(later):
            beta = betas[idx]
            idx += 1
            if abs(beta) >= window:
                b[perm[later], perm[earlier]] = beta
    if protocol == "homogeneous":
        sigma2 = np.ones(p)
    else:
        sigma2 = rng.uniform(1.0, 3.0, size=p)
    return b, sigma2


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


class TestProtocolSem:
    @pytest.mark.parametrize("protocol", sem.PROTOCOLS)
    def test_builds_the_protocol_model(self, protocol):
        m = sem.protocol_sem(protocol, 7, 31)
        ref = (nonfaithful_chain() if protocol == "nonfaithful"
               else random_sem(7, protocol, 31))
        assert format_sem(m) == format_sem(ref)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValidationError, match="unknown protocol 'nope'"):
            sem.protocol_sem("nope", 7, 31)


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

    @pytest.mark.parametrize("text, fault", [
        ("p 2\np 3\nsigma2 1 1\n", "2: p repeats line 1"),
        ("p 2\nsigma2 1 1\n\nsigma2 1 1\n", "4: sigma2 repeats line 2"),
        ("p 2\nsigma2 1 1\nintercept 0 0\n# again\nintercept 1 1\n",
         "5: intercept repeats line 3"),
    ])
    def test_repeated_field_rejected(self, tmp_path, text, fault):
        # the last value used to win without a word
        path = tmp_path / "twice.sem"
        path.write_text(text)
        with pytest.raises(DataFormatError) as err:
            read_sem(path)
        assert str(err.value) == f"{path}:{fault}"

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

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_bad_seed_is_validation_error(self, seed):
        # a negative seed was a bare ValueError from numpy's SeedSequence
        for draw in (lambda: derive_seed(seed, 0), lambda: seeded_rng(seed),
                     lambda: random_sem(3, "homogeneous", seed),
                     lambda: sample(nonfaithful_chain(), 5, seed)):
            with pytest.raises(ValidationError) as err:
                draw()
            assert f"seed must be a non-negative integer, got {seed!r}" in str(err.value)

    def test_numpy_integer_seed_accepted(self):
        assert derive_seed(np.int64(5), 1) == derive_seed(5, 1)
        assert derive_seed(np.uint64(5), 1) == derive_seed(5, 1)

    def test_topological_order_of_generated_models(self):
        m = random_sem(10, "homogeneous", seed=77)
        pi = topological_order(m.dag)
        positions = {j: i for i, j in enumerate(pi)}
        assert all(positions[a] < positions[b] for a, b in m.dag.edges)
