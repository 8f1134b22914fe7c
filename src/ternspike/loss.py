"""Classification loss over time-averaged outputs and the potential regularizer.

The classifier loss is cross-entropy of the softmax of the per-timestep
logits averaged over the sequence.  The regularizer penalizes the mean
squared post-integration potential of every spiking layer at every timestep,
with a weight that decays as 1/t: strong early pressure toward zero, relaxed
later.  It is a smooth quadratic, so its analytic gradient is exact and
cheap to verify by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StateError
from .numerics import Array


@dataclass
class TMPRConfig:
    """Temporal membrane-potential regularization settings.

    ``lam`` is the strength coefficient (the config key ``tmpr.lambda``).
    Defaults: 0.05 for static tasks, 0.01 for neuromorphic tasks.
    """

    lam: float = 0.05
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.lam < 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")

    @classmethod
    def default_for(cls, data_kind: str) -> "TMPRConfig":
        return cls(lam=0.01 if data_kind == "neuromorphic" else 0.05)

    @property
    def active(self) -> bool:
        return self.enabled and self.lam > 0.0


def softmax(logits: Array) -> Array:
    """Row-wise softmax with max subtraction for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _averaged_logits(outputs) -> Array:
    if len(outputs) == 0:
        raise ValueError("need at least one timestep of logits")
    stack = np.stack([np.asarray(o, dtype=np.float64) for o in outputs])
    return stack.mean(axis=0)


def avg_ce_loss(outputs, labels) -> float:
    """Cross-entropy of the time-averaged logits, mean over the batch.

    ``outputs`` is a sequence of (B, C) logit arrays, one per timestep.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty batch")
    avg = _averaged_logits(outputs)
    if np.any(labels < 0) or np.any(labels >= avg.shape[1]):
        raise ValueError("label index out of range")
    shifted = avg - avg.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1))  # log-sum-exp, stays finite for any margin
    return float(np.mean(log_norm - shifted[np.arange(labels.shape[0]), labels]))


def avg_ce_grad(outputs, labels) -> list[Array]:
    """Gradient of avg_ce_loss w.r.t. each timestep's logits.

    Every timestep receives (softmax(avg) - onehot) / (B * T).
    """
    labels = np.asarray(labels, dtype=np.int64)
    avg = _averaged_logits(outputs)
    batch, n_classes = avg.shape
    p = softmax(avg)
    p[np.arange(batch), labels] -= 1.0
    per_t = p / (batch * len(outputs))
    return [per_t.copy() for _ in range(len(outputs))]


def tmpr_loss(potentials, cfg: TMPRConfig) -> float:
    """Time-weighted mean-square penalty on captured potentials.

    ``potentials[l][t]`` is the (B, D_l) post-integration potential of
    spiking layer l at timestep index t (0-based; the 1/t weight uses t+1).

        (1 / (T*L)) * sum_t (lam / t) * sum_l  mean-square(u~_l(t))
    """
    if not cfg.active:
        return 0.0
    n_layers = len(potentials)
    if n_layers == 0:
        raise StateError("no captured potentials")
    n_steps = len(potentials[0])
    total = 0.0
    for t in range(n_steps):
        layer_sum = 0.0
        for l in range(n_layers):
            if len(potentials[l]) != n_steps or potentials[l][t] is None:
                raise StateError(f"missing potential record for layer {l}, timestep {t + 1}")
            u = np.asarray(potentials[l][t], dtype=np.float64)
            layer_sum += float(np.sum(u * u)) / u.size
        total += (cfg.lam / (t + 1)) * layer_sum
    return total / (n_steps * n_layers)


def tmpr_grad(u_tilde: Array, t: int, n_steps: int, n_layers: int, lam: float) -> Array:
    """Direct derivative of the regularizer w.r.t. one captured potential.

    ``t`` is 1-based.  Elementwise 2*lam / (t*T*L*B*D) * u~; the B*D factor
    is the element count of the (batch, features) array.
    """
    if t < 1:
        raise ValueError(f"timestep must be >= 1, got {t}")
    u_tilde = np.asarray(u_tilde, dtype=np.float64)
    return (2.0 * lam / (t * n_steps * n_layers * u_tilde.size)) * u_tilde


def tmpr_injection(potentials, lam: float) -> list[Array]:
    """``tmpr_grad`` at every timestep of every layer, one (T, B, D) stack per layer."""
    n_layers, n_steps = len(potentials), len(potentials[0])
    t = np.arange(1, n_steps + 1)
    return [(2.0 * lam / (t * n_steps * n_layers * u[0].size))[:, None, None] * u for u in potentials]
