"""Uncertainty-sum entanglement witnesses for two-qubit polarization states.

The package provides exact density-matrix evaluation of the two- and
three-basis uncertainty witnesses and their covariance-magnitude variants,
a partial-transpose ground-truth oracle, simulated coincidence counting
with witness estimators, and a CLI for sweeps and Monte Carlo studies.
"""

from .linalg import NumericsError
from .measurement import (
    CountTable,
    EstimatedReport,
    estimate_standard,
    estimate_witnesses,
    estimate_witnesses_many,
    outcome_probabilities,
)
from .rng import stream
from .states import (
    Basis,
    DensityMatrix,
    NoiseKind,
    bell_state,
    density_from_pure,
    noise_mixture,
    parse_state_spec,
)
from .witness import (
    ObservableSet,
    Verdict,
    WitnessReport,
    evaluate,
    evaluate_many,
    evaluate_standard,
    local_bound,
    ppt_min_eigenvalue,
    ppt_min_eigenvalues,
    standard_sets,
)

__version__ = "0.1.0"
