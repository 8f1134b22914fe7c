"""Desk-scale training framework for ternary spiking neural networks."""

from .loss import TMPRConfig, avg_ce_loss, tmpr_grad, tmpr_loss
from .network import Network, build_network, forward, predict
from .neuron import (
    CTSNParams,
    NeuronConfig,
    NeuronState,
    closed_form_potential,
    ctsn_step,
    effective_params,
    surrogate,
    ternary_fire,
    ternary_step,
)
from .trainer import TrainConfig, cosine_lr, evaluate, fit, sgd_step, train_epoch

__version__ = "0.1.0"

__all__ = [
    "CTSNParams",
    "Network",
    "NeuronConfig",
    "NeuronState",
    "TMPRConfig",
    "TrainConfig",
    "avg_ce_loss",
    "build_network",
    "closed_form_potential",
    "cosine_lr",
    "ctsn_step",
    "effective_params",
    "evaluate",
    "fit",
    "forward",
    "predict",
    "sgd_step",
    "surrogate",
    "ternary_fire",
    "ternary_step",
    "tmpr_grad",
    "tmpr_loss",
    "train_epoch",
]
