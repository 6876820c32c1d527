"""Machine-learning substrate: GBDTs, Bayesian ensembles, MLP/GCN.

These are from-scratch numpy implementations standing in for XGBoost /
CatBoost / PyTorch in the paper's stack.
"""

from .losses import AbsoluteError, GaussianNLL, Objective, SquaredError, get_objective
from .tree import Binner
from .gbm import GradientBoostingModel
from .ensemble import BayesianGBMEnsemble, EnsemblePrediction
from .nn import MLP, Adam, Linear, ReLU, huber_loss, mse_loss
from .gcn import DirectedGCN, GraphBatch, PlanGraph
from .preprocessing import LogTargetTransform, StandardScaler, clip_features

__all__ = [
    "Objective",
    "SquaredError",
    "AbsoluteError",
    "GaussianNLL",
    "get_objective",
    "Binner",
    "GradientBoostingModel",
    "BayesianGBMEnsemble",
    "EnsemblePrediction",
    "MLP",
    "Adam",
    "Linear",
    "ReLU",
    "huber_loss",
    "mse_loss",
    "DirectedGCN",
    "GraphBatch",
    "PlanGraph",
    "LogTargetTransform",
    "StandardScaler",
    "clip_features",
]
