"""From-scratch classical learners: Fisher LDA, decision trees, random
forests, extremely randomized trees, gradient boosting, and the per-label
binary multi-output wrapper that turns any of them into a multi-label
probability model.
"""

from .forest import ForestModel, forest_fit
from .gbm import GbmModel, gbm_fit
from .lda import LdaModel, lda_fit
from .multioutput import (
    LEARNER_KINDS,
    ConstantModel,
    LearnerSpec,
    MultiOutputModel,
    fit_multioutput,
    predict_multioutput,
)
from .serialize import load_model, save_model
from .tree import DecisionTree, tree_fit

__all__ = [
    "LEARNER_KINDS",
    "ConstantModel",
    "DecisionTree",
    "ForestModel",
    "GbmModel",
    "LdaModel",
    "LearnerSpec",
    "MultiOutputModel",
    "fit_multioutput",
    "forest_fit",
    "gbm_fit",
    "lda_fit",
    "load_model",
    "predict_multioutput",
    "save_model",
    "tree_fit",
]
