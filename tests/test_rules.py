"""Each shared input rule has one home, so every caller of it refuses the same
bad value with the same message."""

import math

import numpy as np
import pytest

from cvdag.bench import ExperimentConfig
from cvdag.errors import NumericalDegeneracyError, ValidationError
from cvdag.learner import LearnConfig, learn_from_covariance
from cvdag.numerics import fisher_z_test, partial_correlation
from cvdag.sem import derive_seed, population_conditional_variance

# rule -> caller -> a call that hands the bad value to that rule
CALLERS = {
    "alpha": {
        "LearnConfig": lambda v: LearnConfig(alpha=v),
        "fisher_z_test": lambda v: fisher_z_test(0.3, 50, 0, v),
        "ExperimentConfig": lambda v: ExperimentConfig(alpha=v),
    },
    "mode": {
        "LearnConfig": lambda v: LearnConfig(parent_test_mode=v),
        "ExperimentConfig": lambda v: ExperimentConfig(parent_test_mode=v),
    },
    "seed": {
        "derive_seed": lambda v: derive_seed(v, 0),
        "ExperimentConfig": lambda v: ExperimentConfig(seed=v),
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
    ("mode", "partial", "unknown parent_test_mode 'partial'"),
    ("mode", None, "parent_test_mode must be a string, got None"),
    ("seed", -1, "seed must be a non-negative integer, got -1"),
    ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
])
def test_every_caller_gives_the_rule_message(rule, value, message):
    got = {}
    for caller, call in CALLERS[rule].items():
        with pytest.raises(ValidationError) as err:
            call(value)
        got[caller] = str(err.value).removeprefix(OPENING.get(caller, ""))
    assert got == dict.fromkeys(CALLERS[rule], message)


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
