"""Exact and Monte-Carlo tools for recurrent chains, their killed Green
functions, harmonic profiles, path measures, and conditioned transforms."""

from .chains import (
    ChainSpec,
    PathWeight,
    StateId,
    distribution_after,
    enumerate_paths,
    row_sum,
    step_distribution,
    verify_stationary,
)
from .errors import (
    MissingPredecessorsError,
    NotInConeError,
    PathBudgetExceededError,
    PreconditionViolationError,
    RecurMartinError,
    RowSumViolationError,
    RunawayRunError,
    SingularSystemError,
    UnsupportedBasePointError,
    ZeroDenominatorError,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "PathWeight",
    "StateId",
    "distribution_after",
    "enumerate_paths",
    "row_sum",
    "step_distribution",
    "verify_stationary",
    "RecurMartinError",
    "PathBudgetExceededError",
    "PreconditionViolationError",
    "MissingPredecessorsError",
    "RowSumViolationError",
    "RunawayRunError",
    "UnsupportedBasePointError",
    "ZeroDenominatorError",
    "SingularSystemError",
    "NotInConeError",
    "__version__",
]
