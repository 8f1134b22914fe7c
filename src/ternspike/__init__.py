"""Desk-scale training framework for ternary spiking neural networks."""

from .loss import TMPRConfig, tmpr_grad, tmpr_loss
from .network import Network, build_network, forward, predict
from .neuron import CTSNParams, NeuronConfig, effective_params, surrogate, ternary_fire
from .trainer import TrainConfig, cosine_lr, evaluate, fit, sgd_step, train_epoch

__version__ = "0.1.0"

__all__ = [
    "CTSNParams",
    "Network",
    "NeuronConfig",
    "TMPRConfig",
    "TrainConfig",
    "build_network",
    "cosine_lr",
    "effective_params",
    "evaluate",
    "fit",
    "forward",
    "predict",
    "sgd_step",
    "surrogate",
    "ternary_fire",
    "tmpr_grad",
    "tmpr_loss",
    "train_epoch",
]
