"""Multilevel adaptive sequential design of computer experiments with
Gaussian process emulators: Matern kernels, single-level GP regression,
MICE sequential designs, the greedy multilevel budget loop, an a-priori
budget planner and the toy benchmark suite.
"""

from .artifact import load_artifact, save_artifact
from .design import (
    CandidateSet,
    generate_grid,
    mice_criterion,
    mice_run,
    mice_step,
)
from .emulator import (
    FidelityLadder,
    Level,
    MultilevelEmulator,
    SurrogateNormWarning,
    error_bound,
    mlasce_run,
    predict_batch,
    score,
)
from .errors import (
    BudgetError,
    CandidatesExhausted,
    ConfigError,
    FactorizationError,
    InfeasibleError,
    MlasceError,
    SimulatorError,
)
from .gp import (
    GPModel,
    fit,
    posterior_batch,
    rkhs_norm_sq,
)
from .kernels import (
    SUPPORTED_NU,
    KernelSpec,
    chol_factor,
)
from .planner import (
    AllocationPlan,
    PlanParams,
    bound_term,
    closed_form_allocation,
    solve_allocation,
)

__all__ = [
    "AllocationPlan",
    "BudgetError",
    "CandidateSet",
    "CandidatesExhausted",
    "ConfigError",
    "FactorizationError",
    "FidelityLadder",
    "GPModel",
    "InfeasibleError",
    "KernelSpec",
    "Level",
    "MlasceError",
    "MultilevelEmulator",
    "PlanParams",
    "SimulatorError",
    "SUPPORTED_NU",
    "SurrogateNormWarning",
    "bound_term",
    "chol_factor",
    "closed_form_allocation",
    "error_bound",
    "fit",
    "generate_grid",
    "load_artifact",
    "mice_criterion",
    "mice_run",
    "mice_step",
    "mlasce_run",
    "posterior_batch",
    "predict_batch",
    "rkhs_norm_sq",
    "save_artifact",
    "score",
    "solve_allocation",
]

__version__ = "0.1.0"
