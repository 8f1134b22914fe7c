"""Literal references and fixture helpers shared by the test modules.

``literal_recursion_ctsn`` is the O(T^3) factor-product sum of the complemented
recursion, each product rebuilt from one; it counts every pair (additive blend
term) as it multiplies it, so the count the tests read is observed, not derived.

``closed_form_potential`` is A1's oracle: the memoryless expansion of the
hard-reset ternary potential, which the forward's recursion must match.

``write_idx_images`` and ``write_idx_labels`` are A11's fixture writers: they
build IDX files for the reader, and writing a parsed file back must give its
bytes exactly.

``copy_network`` is an independent network over a copy of a parameter vector.

``ce_head_reference``, ``predict_reference``, ``tmpr_loss_reference`` and
``tmpr_grad_reference`` are the loss head, prediction and regularizer as they
were written before the per-batch path was made lean (``mean``, ``.sum()``,
``np.repeat`` and an ``arange`` of weights); the lean forms must give their bits.
"""

import struct
from dataclasses import replace

import numpy as np

from ternspike import bptt
from ternspike.bptt import epsilon, xi
from ternspike.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from ternspike.network import Network


def literal_recursion_ctsn(cache, l, direct, H, omega, paper_xi=False):
    """(dx, domega, pairs) of one complemented layer.

    The sum of first(t) = g_u(t) * epsilon(t) (the paper's xi if ``paper_xi``) times the
    pairs first(s) + g_h(s) for t < s < t', each product rebuilt from one and walked back
    from t' - 1; then the omega gradient.  ``pairs`` counts the pairs multiplied.
    """
    tr, cfg = cache.layers[l], cache.cfg
    n_steps = len(direct)
    u = cache.decayed(l)
    gh, gu = bptt._step_rates(tr.rule, tr.h[:-1], u[1:])
    if paper_xi:
        first = xi(u[1:], tr.o[:-1], tr.u_tilde[:-1], H[:-1], omega, cfg.kind, cfg.tau)
    else:
        eps = epsilon(tr.u_tilde[:-1], tr.o[:-1], H[:-1], cfg.tau)
        first = [gu[s] * eps[s] for s in range(n_steps - 1)]
    dx, pairs = direct.copy(), 0
    for t in range(n_steps):
        for t_next in range(t + 1, n_steps):
            prod = np.ones_like(dx[t])
            for s in range(t_next - 1, t, -1):
                prod = prod * (first[s] + gh[s])
                pairs += 1
            dx[t] += direct[t_next] * (prod * first[t])
    dh = dx.copy()
    for t in reversed(range(n_steps - 1)):
        dh[t] = dx[t] + dh[t + 1] * gh[t]
    return dx, bptt._chain_omega(tr.factors, bptt._blend_partials(dh, tr.h, u[1:], cfg.kind)), pairs


def literal_pair_count(cache, dL_dO, net) -> int:
    """Pairs the literal recursion multiplies over every layer of one complemented backward pass."""
    pairs = []

    def sweep(cache, l, direct, H, omega):
        dx, domega, n = literal_recursion_ctsn(cache, l, direct, H, omega)
        pairs.append(n)
        return dx, domega

    bptt._backward(cache, dL_dO, net, "ctsn", None, sweep)
    return sum(pairs)


def closed_form_potential(x_hist, o_hist, tau: float, t: int) -> np.ndarray:
    """Memoryless expansion of the hard-reset ternary potential at step t.

    u(t) = x(t) + sum_{i=1}^{t-1} tau^(t-i) x(i) prod_{j=i}^{t-1} (1 - |o(j)|)

    ``x_hist`` and ``o_hist`` are 1-indexed-by-position sequences (element 0
    is timestep 1).  Any spike between i and t-1 zeroes the whole product, so
    only the input run since the last spike contributes.
    """
    if t < 1:
        raise ValueError(f"timestep must be >= 1, got {t}")
    if len(x_hist) < t:
        raise ValueError(f"input history has {len(x_hist)} steps, need {t}")
    if len(o_hist) < t - 1:
        raise ValueError(f"spike history has {len(o_hist)} steps, need {t - 1}")
    u = np.asarray(x_hist[t - 1], dtype=np.float64).copy()
    for i in range(1, t):
        prod = np.ones_like(u)
        for j in range(i, t):
            prod = prod * (1.0 - np.abs(np.asarray(o_hist[j - 1], dtype=np.float64)))
        u += tau ** (t - i) * np.asarray(x_hist[i - 1], dtype=np.float64) * prod
    return u


def write_idx_images(images: np.ndarray) -> bytes:
    images = np.ascontiguousarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    return struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols) + images.tobytes()


def write_idx_labels(labels: np.ndarray) -> bytes:
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    return struct.pack(">II", IDX_LABELS_MAGIC, len(labels)) + labels.tobytes()


def copy_network(net: Network) -> Network:
    """An independent network over a copy of ``net``'s parameter vector."""
    return Network(net.dims, net.n_classes, replace(net.cfg), net.n_steps, net.params.copy())


def ce_head_reference(logits, labels):
    """(ce, (T, B, C) gradient) of the time-averaged cross-entropy, through ``mean`` and ``np.repeat``."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_steps, batch, n_classes = logits.shape
    avg = logits.mean(axis=0)
    shifted = avg - avg.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    norm = e.sum(axis=-1, keepdims=True)
    rows = np.arange(batch)
    ce = float(np.mean(np.log(norm[:, 0]) - shifted[rows, labels]))
    p = e / norm
    p[rows, labels] -= 1.0
    return ce, np.repeat(p[None] / (batch * n_steps), n_steps, axis=0)


def predict_reference(logits) -> np.ndarray:
    return np.argmax(np.asarray(logits, dtype=np.float64).mean(axis=0), axis=1)


def tmpr_loss_reference(potentials, lam: float) -> float:
    n_layers, n_steps = len(potentials), len(potentials[0])
    layer_sum = 0.0
    for u in potentials:
        u = np.asarray(u, dtype=np.float64)
        layer_sum = layer_sum + np.square(u).reshape(n_steps, -1).sum(axis=1) / u[0].size
    total = 0.0
    for t in range(n_steps):
        total += (lam / (t + 1)) * float(layer_sum[t])
    return total / (n_steps * n_layers)


def tmpr_grad_reference(u, lam: float, n_layers: int) -> np.ndarray:
    n_steps = len(u)
    return (2.0 * lam / (np.arange(1, n_steps + 1) * n_steps * n_layers * u[0].size))[:, None, None] * u
