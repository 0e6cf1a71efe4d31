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
    accumulate_grams,
    fit_logging_policy,
    uncertainties,
)
from uips.synthetic import (
    BanditEnv,
    EnvConfig,
    Split,
    TabularPolicy,
    build_env,
    epsilon_greedy_policy,
    generate_log,
    true_policy_value,
)
from uips.weights import (
    UipsHyperParams,
    phi_star_vector,
)

__all__ = [
    "BanditEnv",
    "EnvConfig",
    "LoggedDataset",
    "LoggingFitConfig",
    "LoggingModel",
    "SoftmaxLinearPolicy",
    "Split",
    "TabularPolicy",
    "UipsHyperParams",
    "accumulate_grams",
    "build_env",
    "epsilon_greedy_policy",
    "fit_logging_policy",
    "generate_log",
    "make_rng",
    "phi_star_vector",
    "true_policy_value",
    "uncertainties",
]

__version__ = "0.1.0"
