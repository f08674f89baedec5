"""Each shared input rule has one home, so every caller of it refuses the same
bad value with the same message."""

import argparse
import inspect
import math
from types import ModuleType

import numpy as np
import pytest

import cvdag
from cvdag import cli, datasets, graphs, learner
from cvdag.bench import ExperimentConfig, emit_report, run_experiment
from cvdag.errors import NumericalDegeneracyError, ToolkitError, ValidationError
from cvdag.learner import LearnConfig, learn_from_covariance
from cvdag.numerics import conditional_variance, fisher_z_test, partial_correlation
from cvdag.sem import (check_identifiability, derive_seed, nonfaithful_chain,
                       population_conditional_variance, random_sem, sample, seeded_rng, write_sem)

# rule -> caller -> a call that hands the bad value to that rule
CALLERS = {
    "alpha": {
        "LearnConfig": lambda v: LearnConfig(alpha=v),
        "fisher_z_test": lambda v: fisher_z_test(0.3, 50, 0, v),
        "ExperimentConfig": lambda v: ExperimentConfig(alpha=v),
    },
    "seed": {
        "derive_seed": lambda v: derive_seed(v, 0),
        "ExperimentConfig": lambda v: ExperimentConfig(seed=v),
    },
    "seed key": {
        "derive_seed": lambda v: derive_seed(1, v),
        "seeded_rng": lambda v: seeded_rng(1, 0, v),
    },
    # the choice rule, errors._choice_problem
    "protocol": {
        "random_sem": lambda v: random_sem(3, v, 0),
        "ExperimentConfig": lambda v: ExperimentConfig(protocol=v),
    },
    "scope": {
        "check_identifiability": lambda v: check_identifiability(nonfaithful_chain(), scope=v),
    },
    # the integer rule, errors._count_problem, at each of its least values
    "node count": {
        "Dag": lambda v: cvdag.Dag(v, ()),
        "Cpdag": lambda v: cvdag.Cpdag(v, (), ()),
    },
    "s": {
        "fisher_z_test": lambda v: fisher_z_test(0.3, 50, v, 0.05),
    },
    "sample size": {
        "sample": lambda v: sample(nonfaithful_chain(), v, 0),
        # the early check of the subcommand, before any model is built
        "cvdag simulate --n": lambda v: cli.cmd_simulate(argparse.Namespace(n=v)),
    },
    "SEM node count": {
        "random_sem": lambda v: random_sem(v, "homogeneous", 0),
    },
    "p": {
        "ExperimentConfig": lambda v: ExperimentConfig(p=v),
    },
    "replications": {
        "ExperimentConfig": lambda v: ExperimentConfig(replications=v),
    },
}
# ExperimentConfig reports every problem at once, after this opening
OPENING = {"ExperimentConfig": "invalid experiment config: "}


@pytest.mark.parametrize("rule, value, message", [
    ("alpha", "0.1", "alpha must be a real number, got '0.1'"),
    ("alpha", None, "alpha must be a real number, got None"),
    ("alpha", 0.0, "alpha must lie in (0, 1), got 0.0"),
    ("alpha", 1.0, "alpha must lie in (0, 1), got 1.0"),
    ("alpha", math.nan, "alpha must lie in (0, 1), got nan"),
    ("alpha", True, "alpha must be a real number, got True"),
    # 1 - alpha/2 rounds to 1.0, which has no normal quantile
    ("alpha", 1e-17, "alpha must be at least 1.1102230246251568e-16, below which"
     " 1 - alpha/2 rounds to 1 in float64, got 1e-17"),
    ("alpha", 2.0 ** -53, "alpha must be at least 1.1102230246251568e-16, below which"
     " 1 - alpha/2 rounds to 1 in float64, got 1.1102230246251565e-16"),
    ("seed", -1, "seed must be a non-negative integer, got -1"),
    ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
    ("seed", True, "seed must be a non-negative integer, got True"),
    ("seed key", -1, "seed key must be a non-negative integer, got -1"),
    ("seed key", 1.5, "seed key must be a non-negative integer, got 1.5"),
    ("seed key", "a", "seed key must be a non-negative integer, got 'a'"),
    ("seed key", None, "seed key must be a non-negative integer, got None"),
    ("protocol", "nope", "unknown protocol 'nope'"),
    ("protocol", None, "protocol must be a string, got None"),
    ("scope", "Later", "unknown scope 'Later'"),
    ("scope", 1, "scope must be a string, got 1"),
    ("node count", True, "node count must be a non-negative integer, got True"),
    ("node count", 1.5, "node count must be a non-negative integer, got 1.5"),
    ("node count", -1, "node count must be a non-negative integer, got -1"),
    ("s", True, "s must be a non-negative integer, got True"),
    ("s", 1.5, "s must be a non-negative integer, got 1.5"),
    ("s", -1, "s must be a non-negative integer, got -1"),
    ("sample size", True, "sample size must be an integer, got True"),
    ("sample size", 1.5, "sample size must be an integer, got 1.5"),
    ("sample size", 0, "sample size must be >= 1, got 0"),
    ("SEM node count", True, "node count must be an integer, got True"),
    ("SEM node count", 1.5, "node count must be an integer, got 1.5"),
    ("SEM node count", 1, "node count must be >= 2, got 1"),
    ("p", True, "p must be an integer, got True"),
    ("p", 1.5, "p must be an integer, got 1.5"),
    ("p", 1, "p must be >= 2, got 1"),
    ("replications", True, "replications must be an integer, got True"),
    ("replications", 1.5, "replications must be an integer, got 1.5"),
    ("replications", 0, "replications must be >= 1, got 0"),
])
def test_every_caller_gives_the_rule_message(rule, value, message):
    got = {}
    for caller, call in CALLERS[rule].items():
        with pytest.raises(ValidationError) as err:
            call(value)
        got[caller] = str(err.value).removeprefix(OPENING.get(caller, ""))
    assert got == dict.fromkeys(CALLERS[rule], message)


def test_least_alpha_is_accepted_by_every_caller():
    least = math.nextafter(2.0 ** -53, 1.0)
    for call in CALLERS["alpha"].values():
        call(least)
    assert math.isfinite(fisher_z_test(0.3, 50, 0, least).threshold)


COVARIANCE_READERS = {
    "learn_from_covariance": learn_from_covariance,
    "partial_correlation": lambda cov: partial_correlation(cov, 0, 1, []),
    "population_conditional_variance": lambda cov: population_conditional_variance(cov, 0, []),
}


@pytest.mark.parametrize("cov, error, message", [
    ([[1.0, math.nan], [math.nan, 1.0]], ValidationError,
     "covariance must be finite: entry (i=0, j=1) is nan"),
    ([[2.0 + 1j, 1.0], [1.0, 2.0]], ValidationError, "covariance must hold real numbers"),
    ("ab", ValidationError, "covariance must hold real numbers"),
    (np.zeros((2, 3)), ValidationError, "covariance must be square with p >= 1, got shape (2, 3)"),
    ([[1.0, 0.5], [0.0, 1.0]], NumericalDegeneracyError,
     "{caller}: covariance is not symmetric: largest |cov[i, j] - cov[j, i]| is 0.5"
     " at (i=0, j=1)"),
])
def test_every_covariance_reader_shares_the_gate(cov, error, message):
    for caller, read in COVARIANCE_READERS.items():
        with pytest.raises(error) as err:
            read(cov)
        assert str(err.value) == message.format(caller=caller)


# reader -> a call that hands the variable indices and ``given`` to the
# index rule, numerics._check_condition_args
INDEX_READERS = {
    "conditional_variance": lambda variables, given: conditional_variance(
        cvdag.Dataset(("a", "b", "c"), np.random.default_rng(0).normal(size=(10, 3))),
        variables[0], given),
    "partial_correlation": lambda variables, given: partial_correlation(
        np.eye(3), *variables, given),
    "population_conditional_variance": lambda variables, given: population_conditional_variance(
        np.eye(3), variables[0], given),
}


@pytest.mark.parametrize("variables, given, message", [
    ((np.array([1, 2]), 0), (), "variable index must be an integer, got array([1, 2])"),
    ((1, 0), (np.array([2]),), "conditioning index must be an integer, got array([2])"),
    ((3, 0), (), "variable index 3 out of range for p=3"),
    ((1, 0), (-1,), "conditioning index -1 out of range for p=3"),
    ((1, 0), (2, 1), "variable 1 cannot appear in its conditioning set"),
    ((1, 0), (2, 2), "conditioning set contains duplicates"),
])
def test_every_index_reader_shares_the_rule(variables, given, message):
    # the conditional variances read variables[0], partial_correlation both
    for reader, read in INDEX_READERS.items():
        with pytest.raises(ValidationError) as err:
            read(variables, given)
        assert str(err.value) == message, reader


@pytest.mark.parametrize("j", [1, np.int64(1)])
def test_two_equal_variables_refused(j):
    # the index rule refuses them after their types, so an array j is named as one
    with pytest.raises(ValidationError) as err:
        partial_correlation(np.eye(3), j, 1, [])
    assert str(err.value) == "partial correlation needs two distinct variables"
    with pytest.raises(ValidationError) as err:
        partial_correlation(np.eye(3), np.array([1, 1]), 1, [])
    assert str(err.value) == "variable index must be an integer, got array([1, 1])"


# entry points outside cvdag.__all__ that read outside input or serve the
# benchmark's output checks
INNER = {
    "datasets.parse_dataset": datasets.parse_dataset,
    "graphs.descendant_mask": graphs.descendant_mask,
    "learner.ordering_is_greedy_minimal": learner.ordering_is_greedy_minimal,
}
ENTRY_POINTS = [*cvdag.__all__, *INNER]

# (name, position) -> why None there is valid input, so the call must succeed
NONE_IS_VALID = {
    ("GaussianSem", 2): "intercepts None means zero intercepts",
    ("check_identifiability", 1): "pi None checks along the graph's topological order",
    ("estimate_parents", 2): "cfg None means LearnConfig()",
    ("learn", 1): "cfg None means LearnConfig()",
}
# names that keep any argument as it is given, so every value is valid input
ANY_VALUE_IS_VALID = {
    "ExperimentReport": "a plain record of a finished run",
    "IdentifiabilityReport": "a plain record of a finished check",
    "IndependenceDecision": "a plain record of a finished test",
    "LearnResult": "a plain record of a finished learn",
    **{name: "an exception takes any message" for name in cvdag.__all__
       if isinstance(getattr(cvdag, name), type) and issubclass(getattr(cvdag, name), Exception)},
}
# (name, position or keyword, value): further wrong values, each once a bare
# exception or accepted
MORE_WRONG_VALUES = [
    ("random_sem", 1, ["homogeneous"]),  # unhashable
    ("Dataset", 0, "ab"),  # read as the names ("a", "b")
    ("ExperimentConfig", 0, np.array(["a", "b"])),  # compared to "nonfaithful" by truth
    # numbers.Real counts a bool, so these once read True as 1.0
    ("fisher_z_test", 0, True),  # r
    ("bivariate_weight_threshold", 0, True),
    ("bivariate_weight_threshold_conservative", 0, True),
    # arrays once compared by truth, a bare ValueError
    ("partial_correlation", 1, np.array([1, 2])),  # j
    ("partial_correlation", 2, np.array([1, 2])),  # k
    ("check_identifiability", 2, np.array(["a", "b"])),  # scope
    # an int that float64 cannot hold once escaped as a bare OverflowError
    ("fisher_z_test", 0, 10**400),  # r
    ("fisher_z_test", 1, 10**400),  # n
    ("bivariate_weight_threshold", 0, 10**400),
    ("bivariate_weight_threshold_conservative", 0, 10**400),
]


def test_all_lists_no_submodule():
    # "from cvdag import *" once bound bench, sem and the other submodules
    assert [name for name in cvdag.__all__ if isinstance(getattr(cvdag, name), ModuleType)] == []


def _keyword_only(call) -> list[str]:
    """The keyword-only parameters of ``call``; none where it has no
    signature, as an exception class may not."""
    try:
        params = inspect.signature(call).parameters.values()
    except ValueError:
        return []
    return [q.name for q in params if q.kind is q.KEYWORD_ONLY]


@pytest.fixture(scope="module")
def valid_calls(tmp_path_factory):
    """name -> (callable, valid positional arguments)."""
    tmp = tmp_path_factory.mktemp("surface")
    model = random_sem(4, "homogeneous", 1)
    dag, data = model.dag, cvdag.sample(model, 30, 2)
    cpdag, cov = cvdag.dag_to_cpdag(dag), cvdag.population_covariance(model)
    order = cvdag.topological_order(dag)
    config = cvdag.ExperimentConfig("homogeneous", 3, (10,), 1, 0, 0.05)
    report = run_experiment(config)
    result = cvdag.learn(data)
    files = {"dag": tmp / "g.graph", "cpdag": tmp / "g.cpdag", "sem": tmp / "m.sem",
             "csv": tmp / "d.csv"}
    cvdag.write_graph(dag, files["dag"])
    cvdag.write_graph(cpdag, files["cpdag"])
    write_sem(model, files["sem"])
    cvdag.write_dataset(data, files["csv"])
    calls = {
        "Cpdag": (3, {(0, 1)}, {(1, 2)}),
        "Dag": (3, {(0, 1), (1, 2)}),
        "Dataset": (("a", "b"), np.eye(2)),
        "ExperimentConfig": tuple(vars(config).values()),
        "ExperimentReport": (config, report.cells, report.aggregates),
        "GaussianSem": (model.B, model.sigma2, model.intercepts),
        "IdentifiabilityReport": (True, None, 1.0),
        "IndependenceDecision": (True, 3.0, 2.0),
        "LearnConfig": (0.05,),
        "LearnResult": (result.ordering, result.dag, result.step_variances, result.test_log),
        "Ordering": ((1, 0, 2),),
        "bivariate_weight_threshold": (0.5,),
        "bivariate_weight_threshold_conservative": (0.5,),
        "check_identifiability": (model, order, "later"),
        "conditional_variance": (data, 0, [1, 2]),
        "dag_to_cpdag": (dag,),
        "descendants": (dag, 0),
        "emit_report": (report, tmp / "report"),
        "estimate_ordering": (data,),
        "estimate_parents": (data, order, cvdag.LearnConfig()),
        "fisher_z_test": (0.3, 50, 2, 0.05),
        "hamming_cpdag": (cpdag, cpdag),
        "hamming_dag": (dag, dag),
        "is_consistent": (order, dag),
        "learn": (data, cvdag.LearnConfig()),
        "learn_from_covariance": (cov,),
        "load_marks": (),
        "nonfaithful_chain": (),
        "partial_correlation": (cov, 0, 1, [2]),
        "population_conditional_variance": (cov, 0, [1]),
        "population_covariance": (model,),
        "population_precision": (model,),
        "random_sem": (3, "heterogeneous", 1),
        "read_cpdag": (files["cpdag"],),
        "read_dag": (files["dag"],),
        "read_dataset": (files["csv"],),
        "read_sem": (files["sem"],),
        "run_experiment": (config,),
        "sample": (model, 10, 1),
        "sample_covariance": (data,),
        "topological_order": (dag,),
        "write_dataset": (data, tmp / "out.csv"),
        "write_graph": (dag, tmp / "out.graph"),
        "write_sem": (model, tmp / "out.sem"),
        "datasets.parse_dataset": ("a,b\n1,2\n3,5\n",),
        "graphs.descendant_mask": (dag,),
        "learner.ordering_is_greedy_minimal": (result,),
    }
    calls.update((name, ("message",)) for name in ANY_VALUE_IS_VALID if name not in calls)
    return {name: (INNER.get(name) or getattr(cvdag, name), args) for name, args in calls.items()}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_public_surface_refuses_wrong_arguments(name, valid_calls):
    # each wrong value below once escaped as a bare AttributeError or TypeError
    assert name in valid_calls, f"{name} has no valid call in this test"
    call, args = valid_calls[name]
    call(*args)
    at = [*range(len(args)), *_keyword_only(call)]
    wrong = [(i, value) for i in at for value in (None, object())]
    wrong += [(i, value) for n, i, value in MORE_WRONG_VALUES if n == name]
    faults = []
    for i, value in wrong:
        bad, keywords = ((*args[:i], value, *args[i + 1:]), {}) if isinstance(i, int) else (
            args, {i: value})
        valid = name in ANY_VALUE_IS_VALID or (value is None and (name, i) in NONE_IS_VALID)
        try:
            call(*bad, **keywords)
        except ToolkitError:
            if valid:
                faults.append(f"argument {i} = {value!r}: refused valid input")
        except Exception as exc:  # noqa: BLE001 - the point is what escapes
            faults.append(f"argument {i} = {value!r}: {type(exc).__name__}: {exc}")
        else:
            if not valid:
                faults.append(f"argument {i} = {value!r}: accepted")
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize("call, message", [
    (lambda: run_experiment(None), "run_experiment needs an ExperimentConfig, got NoneType"),
    (lambda: emit_report(None, "unused"), "emit_report needs an ExperimentReport, got NoneType"),
    (lambda: write_sem(None, "unused.sem"), "SEM text needs a GaussianSem, got NoneType"),
    (lambda: cvdag.Ordering(None), "ordering must be a sequence, got NoneType"),
    (lambda: cvdag.Dataset(3, np.eye(2)), "names must be a sequence, got int"),
    (lambda: cvdag.Dataset("ab", np.eye(2)), "names must be a sequence, got str"),
    (lambda: cvdag.population_conditional_variance(np.eye(2), 0, 1),
     "given must be a sequence, got int"),
    (lambda: random_sem(3, ["homogeneous"], 1), "protocol must be a string, got ['homogeneous']"),
    (lambda: fisher_z_test(10**400, 50, 0, 0.05), "r is too large for float64"),
    (lambda: fisher_z_test(0.3, -10**400, 0, 0.05), "n is too large for float64"),
    (lambda: datasets.parse_dataset(None), "dataset text needs a str, got NoneType"),
    (lambda: graphs.descendant_mask(None), "descendant_mask needs a Dag, got NoneType"),
    (lambda: learner.ordering_is_greedy_minimal(None),
     "ordering_is_greedy_minimal needs a LearnResult, got NoneType"),
])
def test_wrong_argument_messages(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message
