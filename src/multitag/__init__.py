"""Multi-label autotagging with bilinear label/hidden energy models:
four approximate training estimators, belief-propagation and mean-field
test inference, a conditional tag smoother, baseline classifiers, an
exact enumeration oracle, and AUC-based evaluation."""

from .core import (DrbmParams, Gradient, LabeledExample, cond_free_energy,
                   energy, sigm)
from .estimators import (DivergenceError, GaussianRbmParams, TrainConfig,
                         cd_gradient, generative_cd_gradient, lbp_gradient,
                         mfcd_gradient, pl_gradient, sgd_train)
from .inference import lbp_marginals, lbp_scores, mf_predict
from .oracle import (CapacityError, Marginals, exact_cond_prob, exact_grad,
                     exact_log_partition, exact_marginals)

__all__ = [
    "DrbmParams", "Gradient", "LabeledExample", "Marginals",
    "GaussianRbmParams", "TrainConfig", "CapacityError", "DivergenceError",
    "sigm", "energy", "cond_free_energy", "exact_log_partition",
    "exact_cond_prob", "exact_marginals", "exact_grad", "cd_gradient",
    "mfcd_gradient", "lbp_gradient", "pl_gradient", "generative_cd_gradient",
    "sgd_train", "lbp_marginals", "lbp_scores", "mf_predict",
]
