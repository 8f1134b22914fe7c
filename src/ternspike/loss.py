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


def avg_ce_loss_and_grad(logits, labels) -> tuple[float, Array]:
    """Cross-entropy of the time-averaged logits and its gradient, from one softmax.

    ``logits`` is (T, B, C), or a sequence of T (B, C) arrays.  The loss is
    the batch mean of log-sum-exp minus the picked logit, which stays finite
    for any margin.  Every timestep's gradient is (softmax(avg) - onehot) /
    (B * T), repeated into a (T, B, C) array.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 3 or len(logits) == 0:
        raise ValueError("need at least one timestep of (batch, classes) logits")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty batch")
    n_steps, batch, n_classes = logits.shape
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("label index out of range")
    avg = logits.mean(axis=0)
    shifted = avg - avg.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    norm = e.sum(axis=-1, keepdims=True)
    rows = np.arange(batch)
    ce = float(np.mean(np.log(norm[:, 0]) - shifted[rows, labels]))
    p = e / norm
    p[rows, labels] -= 1.0
    return ce, np.repeat(p[None] / (batch * n_steps), n_steps, axis=0)


def avg_ce_loss(outputs, labels) -> float:
    """Cross-entropy of the time-averaged logits, mean over the batch.

    ``outputs`` is a sequence of (B, C) logit arrays, one per timestep.
    The package calls ``avg_ce_loss_and_grad``; this remains only because
    the benchmark in ``tsbench/`` wraps it.
    """
    return avg_ce_loss_and_grad(outputs, labels)[0]


def avg_ce_grad(outputs, labels) -> list[Array]:
    """Gradient of avg_ce_loss w.r.t. each timestep's logits.

    Every timestep receives (softmax(avg) - onehot) / (B * T).  The package
    calls ``avg_ce_loss_and_grad``; this remains only because the benchmark
    in ``tsbench/`` wraps and calls it.
    """
    return list(avg_ce_loss_and_grad(outputs, labels)[1])


def tmpr_loss(potentials, cfg: TMPRConfig) -> float:
    """Time-weighted mean-square penalty on captured potentials.

    ``potentials[l]`` holds the post-integration potentials of spiking layer
    l, one (B, D_l) array per timestep: a (T, B, D_l) stack or a sequence of
    T arrays (the 1/t weight of timestep index t uses t+1).

        (1 / (T*L)) * sum_t (lam / t) * sum_l  mean-square(u~_l(t))
    """
    if not cfg.active:
        return 0.0
    n_layers = len(potentials)
    if n_layers == 0:
        raise StateError("no captured potentials")
    n_steps = len(potentials[0])
    layer_sum = 0.0  # per timestep, summed over layers in layer order
    for l, u in enumerate(potentials):
        try:
            u = np.asarray(u, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise StateError(f"missing or ragged potential record for layer {l}") from exc
        if u.ndim != 3 or len(u) != n_steps:
            raise StateError(f"layer {l} has {len(u)} potential records, expected {n_steps}")
        layer_sum = layer_sum + np.square(u).reshape(n_steps, -1).sum(axis=1) / u[0].size
    total = 0.0
    for t in range(n_steps):
        total += (cfg.lam / (t + 1)) * float(layer_sum[t])
    return total / (n_steps * n_layers)


def tmpr_grad(potentials, lam: float) -> list[Array]:
    """Direct derivative of the regularizer w.r.t. every captured potential.

    ``potentials`` is laid out as for ``tmpr_loss``; returns one (T, B, D_l)
    stack per layer whose step t (1-based) is 2*lam / (t*T*L*B*D_l) * u~_l(t).
    """
    n_layers, n_steps = len(potentials), len(potentials[0])
    t = np.arange(1, n_steps + 1)
    return [(2.0 * lam / (t * n_steps * n_layers * u[0].size))[:, None, None] * u for u in potentials]
