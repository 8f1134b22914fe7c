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
    gh, gu = bptt._step_rates(cfg.kind, tr.factors, tr.h[:-1], u[1:])
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
