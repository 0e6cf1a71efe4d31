"""Off-policy evaluation and learning with an estimated logging policy.

The package centers on an uncertainty-aware inverse propensity score
estimator: every logged sample gets a closed-form shrink weight computed
from the target/logging probability ratio and the estimation uncertainty
of the logging model, chosen to minimize a worst-case mean squared error
over a confidence interval of the true logging probability.
"""

from uips.core import (
    LoggedDataset,
    SoftmaxLinearPolicy,
    make_rng,
)
from uips.logging_fit import (
    LoggingFitConfig,
    LoggingModel,
    UncertaintyRecord,
    accumulate_grams,
    confidence_interval,
    fit_logging_policy,
    uncertainty,
)
from uips.synthetic import (
    BanditEnv,
    EnvConfig,
    MultilabelInstance,
    TabularPolicy,
    build_env,
    epsilon_greedy_policy,
    generate_log,
    true_policy_value,
)
from uips.weights import (
    UipsHyperParams,
    WeightInput,
    minmax_objective,
    oracle_phi,
    phi_star,
    worst_case_beta,
)

__all__ = [
    "BanditEnv",
    "EnvConfig",
    "LoggedDataset",
    "LoggingFitConfig",
    "LoggingModel",
    "MultilabelInstance",
    "SoftmaxLinearPolicy",
    "TabularPolicy",
    "UipsHyperParams",
    "UncertaintyRecord",
    "WeightInput",
    "accumulate_grams",
    "build_env",
    "confidence_interval",
    "epsilon_greedy_policy",
    "fit_logging_policy",
    "generate_log",
    "make_rng",
    "minmax_objective",
    "oracle_phi",
    "phi_star",
    "true_policy_value",
    "uncertainty",
    "worst_case_beta",
]

__version__ = "0.1.0"
