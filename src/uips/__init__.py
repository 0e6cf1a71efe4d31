"""Off-policy evaluation and learning with an estimated logging policy.

The package centers on an uncertainty-aware inverse propensity score
estimator: every logged sample gets a closed-form shrink weight computed
from the target/logging probability ratio and the estimation uncertainty
of the logging model, chosen to minimize a worst-case mean squared error
over a confidence interval of the true logging probability.
"""

__version__ = "0.1.0"
