"""Classification loss over time-averaged outputs and the potential regularizer.

The classifier loss is cross-entropy of the softmax of the per-timestep
logits averaged over the sequence.  The regularizer penalizes the mean
squared post-integration potential of every spiking layer at every timestep,
with a weight that decays as 1/t: strong early pressure toward zero, relaxed
later.  It is a smooth quadratic, so its analytic gradient is exact and
cheap to verify by finite differences; ``tmpr_grad`` forms it for one
layer, which the backward adds into that layer's adjoint as it reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StateError
from .numerics import Array


@dataclass
class TMPRConfig:
    """Temporal membrane-potential regularization settings.

    ``lam`` is the strength coefficient (the config key ``tmpr.lambda``):
    0.05 by default, 0.01 for event data (``cli.EVENT_DEFAULTS``).
    """

    lam: float = 0.05
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.lam < 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")

    @property
    def active(self) -> bool:
        return self.enabled and self.lam > 0.0


def avg_ce_loss_and_grad(logits, labels) -> tuple[float, Array, Array]:
    """Cross-entropy of the time-averaged logits, its gradient and that average, from one softmax.

    ``logits`` is (T, B, C), or a sequence of T (B, C) arrays.  The loss is
    the batch mean of log-sum-exp minus the picked logit, which stays finite
    for any margin.  Every timestep's gradient is (softmax(avg) - onehot) /
    (B * T), repeated into a (T, B, C) array.  The (B, C) average is returned
    as well: its row argmax is ``network.predict(logits)``.  The reductions
    are ``np.add.reduce`` and ``np.maximum.reduce`` called directly, with
    ``mean``'s and ``sum``'s bits and without their Python wrappers.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 3 or len(logits) == 0:
        raise ValueError("need at least one timestep of (batch, classes) logits")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty batch")
    n_steps, batch, n_classes = logits.shape
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= n_classes:
        raise ValueError("label index out of range")
    avg = np.add.reduce(logits, axis=0)
    avg /= n_steps
    shifted = avg - np.maximum.reduce(avg, axis=1, keepdims=True)
    p = np.exp(shifted)
    norm = np.add.reduce(p, axis=1, keepdims=True)
    rows = np.arange(batch)
    ce = float(np.add.reduce(np.log(norm[:, 0]) - shifted[rows, labels])) / batch
    p /= norm
    p[rows, labels] -= 1.0
    p /= batch * n_steps
    grad = np.empty(logits.shape)
    grad[...] = p
    return ce, grad, avg


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
    for l, u in enumerate(potentials):
        try:
            u = np.asarray(u, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise StateError(f"missing or ragged potential record for layer {l}") from exc
        if u.ndim != 3 or len(u) != n_steps:
            raise StateError(f"layer {l} has {len(u)} potential records, expected {n_steps}")
        mean_sq = np.add.reduce(np.square(u).reshape(n_steps, -1), axis=1)
        mean_sq /= u[0].size
        if l == 0:
            layer_sum = mean_sq  # per timestep, summed over layers in layer order
        else:
            layer_sum += mean_sq
    total = 0.0
    for t, value in enumerate(layer_sum.tolist()):
        total += (cfg.lam / (t + 1)) * value
    return total / (n_steps * n_layers)


def tmpr_grad(u, lam: float, n_layers: int) -> Array:
    """Direct derivative of the regularizer w.r.t. one layer's captured potentials.

    ``u`` is the layer's (T, B, D) stack and ``n_layers`` the L of ``tmpr_loss``;
    step t (1-based) of the result is 2*lam / (t*T*L*B*D) * u~(t).  The backward
    calls it for one layer at a time, as it reaches the layer.
    """
    n_steps = len(u)
    denom = n_steps * n_layers * u[0].size
    weights = np.array([2.0 * lam / (t * denom) for t in range(1, n_steps + 1)])  # Python floats
    return weights[:, None, None] * u
