"""Physics-informed neural network solvers for linear dynamical systems with
residual-bound-backed Bayesian uncertainty bands.

The package trains small networks to satisfy a differential equation at
collocation points (with initial conditions enforced exactly), converts
rigorous residual-based error bounds into a pseudo-aleatoric variance, and
combines that with epistemic variance from either an exact Bayesian linear
head or mean-field variational inference over all weights.
"""

__version__ = "0.1.0"

from .bands import PredictiveBand, band_to_csv
from .bounds import (
    PseudoAleatoricProfile,
    ResidualEnvelope,
    bound_first_order,
    bound_second_order_distinct,
    bound_second_order_equal_limit,
    bound_second_order_zero,
    burgers_pseudo_sigma,
    envelope_from_function,
    estimate_envelope,
    pseudo_profile,
    pseudo_sigma,
    uniform_knots,
)
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
    ExperimentReport,
    coverage_metrics,
    emit_outputs,
    run_experiment,
    run_preset,
)
from .jets import Jet2
from .network import (
    Gradients,
    JetBatch,
    NetworkParameters,
    backward,
    forward,
    forward_jet,
    forward_jets_batch,
    forward_values,
    hidden_features,
    init_network,
)
from .nlm import (
    FeatureMatrix,
    NLMPosterior,
    SimulatedDataset,
    build_simulated_dataset,
    default_candidate_sigmas,
    extract_features,
    feature_matrix,
    nlm_band,
    nlm_fit,
    nlm_predict,
    optimize_prior,
)
from .optim import AdamState, adam_step, adam_step_arrays, init_adam
from .problems import (
    BurgersProblem,
    ODEProblem,
    SurrogateEvaluation,
    analytic_solution,
    burgers_surrogate,
    evaluate_surrogate,
    get_problem,
    problem_ids,
    reparameterize,
    residual,
    residual_values,
    surrogate_values,
)
from .training import (
    GridSpec,
    TrainConfig,
    TrainedPINN,
    default_train_config,
    load_trained,
    mse_residual_loss,
    save_trained,
    train_deterministic,
)
from .vi import (
    MeanFieldGaussian,
    VIConfig,
    VIRun,
    gaussian_kl,
    predictive_moments,
    sample_posterior,
    vi_init,
    vi_train,
)
from .weights_io import load_weights, save_weights
