"""Uncertainty-sum entanglement witnesses for two-qubit polarization states.

The package provides exact density-matrix evaluation of the two- and
three-basis uncertainty witnesses and their covariance-magnitude variants,
a partial-transpose ground-truth oracle, simulated coincidence counting
with witness estimators, and a CLI for sweeps and Monte Carlo studies.
"""

from .linalg import NumericsError, partial_transpose_second, tensor_product
from .measurement import (
    CountTable,
    EstimatedReport,
    OutcomeDistribution,
    estimate_witnesses,
    estimate_witnesses_many,
    outcome_distribution,
    outcome_probabilities,
    sample_counts,
)
from .rng import stream
from .states import (
    Basis,
    DensityMatrix,
    LocalUnitaryPair,
    NoiseKind,
    apply_local_unitary,
    bell_state,
    density_from_pure,
    haar_random_local_unitary,
    noise_mixture,
    parse_state_spec,
    random_pure_state,
    random_separable_state,
    special_unitary,
)
from .witness import (
    ObservableSet,
    Verdict,
    WitnessReport,
    covariance,
    evaluate,
    evaluate_many,
    expectation,
    local_bound,
    lur_value,
    mlur_value,
    ppt_min_eigenvalue,
    ppt_min_eigenvalues,
    standard_sets,
    variance,
    variance_of_sum,
)

__version__ = "0.1.0"
