"""Literal references shared by the test modules.

``literal_recursion_ctsn`` is the O(T^3) factor-product sum of the complemented
recursion, each product rebuilt from one; it counts every pair (additive blend
term) as it multiplies it, so the count the tests read is observed, not derived.
"""

import numpy as np

from ternspike import bptt
from ternspike.bptt import epsilon, xi


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
