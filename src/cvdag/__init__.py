"""Structure learning for Gaussian linear SEMs by conditional-variance
ordering, with identifiability checkers, random model generators, and a
benchmark harness."""

from .bench import ExperimentConfig, ExperimentReport, emit_report, run_experiment
from .datasets import load_marks, read_dataset, write_dataset
from .errors import (
    DataFormatError,
    DegenerateDesignError,
    InsufficientSamplesError,
    NumericalDegeneracyError,
    ReportIOError,
    ToolkitError,
    ValidationError,
)
from .graphs import (
    Cpdag,
    Dag,
    Ordering,
    dag_to_cpdag,
    descendants,
    hamming_cpdag,
    hamming_dag,
    is_consistent,
    read_cpdag,
    read_dag,
    topological_order,
    write_graph,
)
from .learner import LearnConfig, LearnResult, estimate_ordering, estimate_parents, learn, learn_from_covariance
from .numerics import (
    Dataset,
    IndependenceDecision,
    conditional_variance,
    fisher_z_test,
    partial_correlation,
    sample_covariance,
)
from .sem import (
    GaussianSem,
    IdentifiabilityReport,
    bivariate_weight_threshold,
    bivariate_weight_threshold_conservative,
    check_identifiability,
    nonfaithful_chain,
    population_covariance,
    population_precision,
    population_conditional_variance,
    random_sem,
    read_sem,
    sample,
    write_sem,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
