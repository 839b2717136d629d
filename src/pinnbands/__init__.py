"""Physics-informed neural network solvers for linear dynamical systems with
residual-bound-backed Bayesian uncertainty bands.

The package trains small networks to satisfy a differential equation at
collocation points (with initial conditions enforced exactly), converts
rigorous residual-based error bounds into a pseudo-aleatoric variance, and
combines that with epistemic variance from either an exact Bayesian linear
head or mean-field variational inference over all weights.
"""

__version__ = "0.1.0"

# the names the README quick start, the demos and the CLI use; everything
# else is imported from its module
from .bounds import estimate_envelope, pseudo_profile, pseudo_sigma
from .errors import (
    ConditioningError,
    ConfigurationError,
    DomainError,
    PinnbandsError,
    ShapeError,
    TapeMismatchError,
    TrainingDivergedError,
    UnsupportedOrderError,
)
from .harness import (
    ExperimentConfig,
    coverage_metrics,
    emit_outputs,
    preset_configs,
    run_experiment,
    save_artifacts,
)
from .nlm import (
    build_simulated_dataset,
    default_candidate_sigmas,
    feature_matrix,
    nlm_band,
    optimize_prior,
)
from .problems import analytic_solution, surrogate_values
from .training import TrainConfig, load_trained, mse_residual_loss, train_deterministic
from .vi import VIConfig, predictive_moments, sample_posterior, vi_train
