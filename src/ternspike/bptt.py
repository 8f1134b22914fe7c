"""Reverse-mode gradients over the unrolled spike graph, two independent ways.

``backward_exact`` walks the unrolled computation graph node by node,
propagating adjoints through every dependency path (decay, reset, memory
blend, spatial fan-out) with the rectangular surrogate substituted at every
spike node.  It is the engine used for training; ``loss_and_grads`` wraps it
with the forward pass and both losses, and is the one entry point for
training and the gradient checks.  Given the regularizer's settings, either
engine adds ``loss.tmpr_grad`` of a layer's potentials to its adjoint when
the backward reaches that layer, so one layer's injection is live at a time.
One sweep serves every kind: the potential adjoint steps back through the
blend's u-rate and the leak/reset carry, the memory adjoint through its
h-rate, and the plain ternary neuron is the case of rates 1 and 0, where the
memory adjoint is the potential adjoint and neither rate is applied.

``backward_recursion`` evaluates the closed-form per-timestep factor
products instead: a potential adjoint is a sum over later timesteps of
products of per-step factors.  One sweep serves every kind: the first step's
factor is the blend's u-rate times the ternary leak/reset factor
(``epsilon``), each later step's factor adds the blend's h-rate, and the
plain ternary neuron is the case of rates 1 and 0.  Both implementations are
algebraically identical for every kind, so agreement within float roundoff is
a strong cross-check; the exact sweep writes its step factor (the carry) out
itself and only the recursion calls ``epsilon``, so the two engines share no
statement of it.  The paper's complemented factor (``xi``) drops the
leak-and-reset factor tau * (1 - |o|); it is kept only for the gradcheck
command's report of the gap that omission opens beyond T=1.

Both engines read the stacked trace of ``network.forward`` and work one
layer at a time over all timesteps: the factors are formed over the whole
(T, B, D) stack, only the adjoint recurrence itself steps through time, and
each linear map's gradients are one matrix product over its T*B rows, written
into its view of one ``GradSet`` vector in the network's parameter layout.

The factor functions (``epsilon``, ``kappa``, ``xi``) are also exported
standalone so each can be pinned by direct value tests.  The complemented
blend's derivatives are its rates, read from ``neuron.BLEND_RULES`` through
``neuron.blend_rule`` and ``neuron.rate``; only the finite-difference
stand-in writes the two rules out again, as its own check of the table.

``finite_difference`` is the third oracle: central differences of the
smooth stand-in loss.  It does not share the engine's forward; it has its
own compact stand-in forward and loss (``_standin_*``), written in the
engine's operation order so its values equal differencing
``network.forward(smooth=True)`` bit for bit, and it evaluates the +-step
perturbations of every parameter entry in one pass over a (2P, P) member array.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Sequence

import numpy as np

from . import loss as loss_mod, network as net_mod
from .errors import NumericError
from .network import Network, Trace
from .neuron import BLEND_RULES, CTSNParams, blend_rule, effective_params, rate, reset_keep
from .numerics import Array, sigmoid


class GradSet:
    """One float64 vector in a network's ``layout``: gradients, momentum buffers, or
    (``GradSet.of``) the parameters themselves.  ``vector`` is (P,), or (members, P)
    for finite-difference members; ``gs[name]`` is one array's view, member axis first."""

    def __init__(self, net: Network, vector: Array) -> None:
        self.layout, self.vector = net.layout, vector

    @classmethod
    def of(cls, net: Network) -> "GradSet":
        """The network's own parameter vector (not a copy)."""
        return cls(net, net.params)

    @classmethod
    def zeros_like(cls, net: Network) -> "GradSet":
        return cls(net, np.zeros_like(net.params))

    def __getitem__(self, name: str) -> Array:
        span, shape = self.layout[name]
        return self.vector[..., span].reshape(self.vector.shape[:-1] + shape)

    def named(self):
        for name in self.layout:
            yield name, self[name]

    def check_finite(self, what: str = "gradient") -> None:
        """Raise NumericError naming the first array with a NaN or an infinity.  A finite
        sum means every entry is finite, so the arrays are scanned only when it is not."""
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isfinite(np.add.reduce(self.vector, axis=None)):
                return
        for name, arr in self.named():
            if not np.isfinite(arr).all():
                raise NumericError(f"non-finite {what} in {name}")


def _relative_error_vector(a: GradSet, b: GradSet, min_abs: float):
    """(keep, rel) over the whole vectors: the mask of compared entries and the relative
    error of every entry (see ``relative_errors``)."""
    fa, fb = a.vector, b.vector
    denom = np.maximum(np.abs(fa), np.abs(fb))
    keep = ~(denom <= min_abs)  # not denom > min_abs: NaN entries stay in
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(denom > 0.0, np.abs(fa - fb) / denom, 0.0)
    rel[~(np.isfinite(fa) & np.isfinite(fb))] = np.inf
    return keep, rel


def relative_errors(a: GradSet, b: GradSet, min_abs: float = 0.0):
    """Per-entry relative errors between two gradient sets, taken over the whole
    vectors and yielded one parameter array at a time.

    Yields (name, index, va, vb, rel): the flat indices of the compared
    entries, both sets' values there and |va - vb| / max(|va|, |vb|).
    Entries where both magnitudes are at most ``min_abs`` are skipped; a pair
    of exact zeros counts as zero error, and a non-finite entry as infinite
    error.
    """
    keep, rel = _relative_error_vector(a, b, min_abs)
    for name, (span, _) in a.layout.items():
        idx = np.flatnonzero(keep[span])
        yield name, idx, a.vector[span][idx], b.vector[span][idx], rel[span][idx]


def max_relative_error(
    a: GradSet, b: GradSet, min_abs: float = 0.0
) -> tuple[float, str]:
    """Worst per-parameter relative error between two gradient sets.

    Skips entries as ``relative_errors`` does.  Returns the error and a
    descriptor of the first worst entry in layout order (parameter name and
    flat index), or (0.0, "none") when no compared entry has an error above 0.
    One pass over the whole vectors: skipped entries read as -1.
    """
    keep, rel = _relative_error_vector(a, b, min_abs)
    rel[~keep] = -1.0
    k = int(np.argmax(rel))  # first maximum, so ties go to the earliest entry
    if not rel[k] > 0.0:
        return 0.0, "none"
    name, (span, _) = next((name, entry) for name, entry in a.layout.items() if k < entry[0].stop)
    return float(rel[k]), f"{name}[{k - span.start}]"


# ---------------------------------------------------------------------------
# analytic per-step factors
# ---------------------------------------------------------------------------


def epsilon(u, o, H, tau: float):
    """Step-to-step potential adjoint factor of the hard-reset ternary unit.

    tau * (1 - |o| - sign(o) * u * H): the surviving leak minus the
    surrogate-mediated reset path.  Silent neurons (o = 0) give exactly tau.
    """
    u = np.asarray(u, dtype=np.float64)
    o = np.asarray(o, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    return tau * (reset_keep(o) - np.sign(o) * u * H)


def kappa(u, tau: float, v_th: float):
    """The paper's piecewise closed form of the temporal factor, kept as a diagnostic.  This engine's
    factor, ``epsilon`` of the fired spikes and the surrogate window, differs: tau for |u| < v_th,
    -tau * |u| for v_th <= |u| < v_th + a, and zero only from |u| >= v_th + a.

    Five-branch table on the potential, identically zero for
    |u| >= 1.5 * v_th.  The outer boundaries belong to the zero region (the
    dead-zone property is stated as an inclusive inequality); the catch-all
    also owns u = 0 exactly, where the two inner branches would meet at tau.
    """
    u = np.asarray(u, dtype=np.float64)
    conds = [
        (-1.5 * v_th < u) & (u < -v_th),
        (-v_th <= u) & (u < 0.0),
        (0.0 < u) & (u <= v_th),
        (v_th < u) & (u < 1.5 * v_th),
    ]
    vals = [tau * u, tau * (1.0 + u), tau * (1.0 - u), tau * (-1.0 + u)]
    return np.select(conds, vals, default=0.0)


def xi(u_next, o, u_tilde, H, params: CTSNParams, kind: str, tau: float):
    """The paper's closed-form potential-to-potential factor of the complemented unit.

    ``u_next`` is u(t+1), the potential the next blend rates.  The first
    term is the blend's potential derivative g_u taken directly; the second
    is the reset path: g_u * (-tau * u~(t)) * sign(o) * H.  The exact graph's
    factor is g_u * epsilon: the first term lacks the leak-and-reset factor
    tau * (1 - |o|) of the u(t+1) chain.  Only ``backward_recursion(...,
    paper_xi=True)`` uses it, for ``gradcheck.ctsn_recursion_report``.
    """
    o = np.asarray(o, dtype=np.float64)
    u_tilde = np.asarray(u_tilde, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    g_u = rate(blend_rule(kind, effective_params(params))[1], np.asarray(u_next, dtype=np.float64))
    return g_u + g_u * (-tau * u_tilde) * np.sign(o) * H


# ---------------------------------------------------------------------------
# shared spatial plumbing
# ---------------------------------------------------------------------------


def _mode_for(net: Network, mode: str) -> None:
    if mode == "ternary" and net.cfg.kind != "ternary":
        raise ValueError(f"mode 'ternary' but network kind is {net.cfg.kind!r}")
    if mode == "ctsn" and net.cfg.kind == "ternary":
        raise ValueError(f"mode 'ctsn' but network kind is {net.cfg.kind!r}")
    if mode not in ("ternary", "ctsn"):
        raise ValueError(f"unknown backward mode {mode!r}")


def _layer_param_grads(x: Array, dx: Array, w: Array, dw: Array, db: Array, below: bool = True):
    """Write the dW and db of one linear map into the views ``dw`` and ``db``; return its
    input adjoint.  ``dx`` is (T, B, D_out).  ``x`` is the map's input: (T, B, D_in), or
    (1, B, D_in) when every timestep shares it, where dW = x^T sum_t dx(t).  The input
    adjoint is None unless ``below`` (the network input needs none)."""
    flat = dx.reshape(-1, dx.shape[-1])
    if len(x) < len(dx):
        np.matmul(x[0].T, np.add.reduce(dx, axis=0), out=dw)
    else:
        np.matmul(x.reshape(-1, x.shape[-1]).T, flat, out=dw)
    np.add.reduce(flat, axis=0, out=db)
    return (flat @ w.T).reshape(dx.shape[:-1] + w.shape[:1]) if below else None


def _backward(cache: Trace, dL_dO, net: Network, mode: str, tmpr, sweep) -> GradSet:
    """Readout, then each layer top-down, into one gradient vector.  When ``tmpr`` is
    active, layer l's adjoint gains the regularizer's direct term ``loss.tmpr_grad`` of
    its potentials as the backward reaches it.  ``sweep(cache, l, direct, H, omega)``
    turns the adjoints entering layer l's potentials directly (A * H plus that term) into
    dL/dx, and returns the omega gradient (None if ternary); it may overwrite H.
    The gradient vector's views are taken once, by ``Network.views``."""
    _mode_for(net, mode)
    n_layers = len(cache.layers)
    if len(dL_dO) != len(cache.layers[0].u_tilde):
        raise ValueError(f"got {len(dL_dO)} upstream gradients for {cache.n_steps} timesteps")
    g = np.asarray(dL_dO, dtype=np.float64)  # a (T, B, C) array passes through uncopied
    vector = np.empty(net.params.shape)  # every entry is written below
    hidden, (dw, db) = net.views(vector)
    A = _layer_param_grads(cache.layers[-1].o, g, net.readout.w, dw, db)
    lam = tmpr.lam if tmpr is not None and tmpr.active else None
    for l in reversed(range(n_layers)):
        tr, layer, (dw, db, domega_view) = cache.layers[l], net.layers[l], hidden[l]
        H = cache.surrogate(l)
        A *= H  # A is the GEMM's own output, so it becomes the direct adjoint in place
        if lam is not None:
            A += loss_mod.tmpr_grad(tr.u_tilde, lam, n_layers)
        dx, domega = sweep(cache, l, A, H, layer.omega)
        del A, H  # dx may be A itself; no array of this layer outlives it
        if domega is not None:
            domega_view[...] = domega
        x = cache.x if l == 0 else cache.layers[l - 1].o
        A = _layer_param_grads(x, dx, layer.w, dw, db, below=l > 0)
        del dx
    return GradSet(net, vector)


def _chain_omega(factors, partials) -> Array:
    """Raw-omega gradient from the partials, via the sigmoid at the effective ``factors``."""
    return np.array([d * p * (1.0 - p) for d, p in zip(partials, factors)])


def _step_rates(rule, h_prev: Array, u: Array, out: Array | None = None):
    """Blend derivatives (d h(t+1)/d h(t), d h(t+1)/d u(t+1)) at every step of the (T-1, B, D)
    operand stacks, under the ``blend_rule`` table ``rule`` the forward kept on the trace: a
    sign-keyed rate as an array, a sign-free one as it is once per step.  Every kind
    has one sign-keyed rate; ``out``, when given, receives it."""
    r_h, r_u = rule
    gh = rate(r_h, h_prev, out) if r_h.ndim else [r_h] * len(h_prev)
    gu = rate(r_u, u, out) if r_u.ndim else [r_u] * len(u)
    return gh, gu


def _blend_partials(dh: Array, h: Array, u: Array, kind: str, scratch=None):
    """(d_alpha, d_beta, d_gamma) of one layer before the sigmoid chain: each factor's
    partial is dh times the part of the operand it rates under ``BLEND_RULES[kind]``.

    ``dh`` is the memory adjoint and ``h`` the memory, both (T, B, D); ``u``
    is the decayed potential from the second step on, (T - 1, B, D).  The
    first step contributes nothing: both blend inputs are zero there.
    ``scratch``, two float64 arrays shaped like ``u``, is allocated when left out.
    """
    dh, partials = dh[1:], [0.0] * 3
    part, prod = (np.empty_like(u), np.empty_like(u)) if scratch is None else scratch  # reused by every product
    for r, x in zip(BLEND_RULES[kind], (h[:-1], u)):
        if isinstance(r, int):
            partials[r] = float(np.add.reduce(np.multiply(dh, x, out=prod), axis=None))
        else:
            below, above = r
            partials[above] = float(np.add.reduce(np.multiply(dh, np.maximum(x, 0.0, out=part), out=prod), axis=None))
            partials[below] = float(np.add.reduce(np.multiply(dh, np.minimum(x, 0.0, out=part), out=prod), axis=None))
    return tuple(partials)


# ---------------------------------------------------------------------------
# exact graph traversal
# ---------------------------------------------------------------------------


def loss_and_grads(net: Network, input_seq, labels, tmpr=None, smooth=False):
    """Forward one batch and return (ce, tmpr_loss, avg_logits, grads).

    ``avg_logits`` is the (B, C) time average of the logits that the loss head
    formed; its row argmax is ``network.predict`` of the logits.

    ``grads`` are the exact gradients of ce + tmpr_loss: the classifier
    gradient enters at the readout and, when ``tmpr`` is active, ``backward_exact``
    adds the regularizer's direct term at every captured potential.
    ``smooth=True`` runs the continuous stand-in network instead of the
    spiking one.  Training and the gradient checks both go through here.
    """
    logits, cache = net_mod.forward(net, input_seq, smooth=smooth)
    ce, dL_dO, avg = loss_mod.avg_ce_loss_and_grad(logits, labels)
    tmpr_val = 0.0
    if tmpr is not None and tmpr.active:
        with np.errstate(over="ignore"):  # an overflow is an infinite loss, which training raises on
            tmpr_val = loss_mod.tmpr_loss(cache.potentials(), tmpr)
    mode = "ternary" if net.cfg.kind == "ternary" else "ctsn"
    grads = backward_exact(cache, dL_dO, net, mode, tmpr)
    return ce, tmpr_val, avg, grads


def backward_exact(
    cache: Trace,
    dL_dO: Sequence[Array],
    net: Network,
    mode: str,
    tmpr: loss_mod.TMPRConfig | None = None,
) -> GradSet:
    """Reverse traversal of the exact unrolled graph.

    ``dL_dO[t]`` are the upstream gradients on the per-timestep logits, a
    sequence of (B, C) arrays or one (T, B, C) array.
    When ``tmpr`` is active, the regularizer's direct term ``loss.tmpr_grad`` is
    injected at each layer's post-integration potentials, formed as the backward
    reaches the layer and freed once added; it then propagates through every
    temporal and spatial path like any other contribution, so the result is the
    gradient of ce + tmpr_loss.  Every kind goes through one sweep, ``_exact_sweep``;
    ``mode`` ("ternary" or "ctsn") is checked against the network's kind.
    """
    return _backward(cache, dL_dO, net, mode, tmpr, _exact_sweep)


def _exact_sweep(cache: Trace, l: int, du_tilde: Array, H: Array, omega):
    """Adjoint sweep over one layer of any kind, newest timestep first, in place.

    The potential adjoint flows through u(t+1) = tau * u~(t) * (1 - |o(t)|)
    into the blend: du~(t) gains dh(t+1) * g_u(t) * carry(t), where the carry
    keep * tau - tau * u~ * sign(o) * H is the leak through 1 - |o| minus the
    surrogate reset path.  A complemented layer also carries the memory adjoint
    dh(t) = du~(t) + dh(t+1) * g_h(t) along h(t+1) -> h(t); both reach the
    blend's parameters.  A ternary layer (no memory in its trace) is the case
    g_u = 1, g_h = 0: its memory adjoint is the potential adjoint itself, so
    neither the g_u product nor the memory update runs.

    The factors live in the window H's first T - 1 rows and in two (T - 1, B, D)
    buffers, each reused once its value is spent: the reset product is formed over
    H, which later holds the sign-keyed rate; sign(o)'s buffer becomes keep and then
    the carry, in place; tau * u~ becomes a complemented layer's u(t+1) and is freed
    on a ternary layer.  After the loop the carry's and the rate's buffers are the
    omega partials' scratch.  The loop runs through one (B, D) scratch.
    """
    tr, tau = cache.layers[l], cache.cfg.tau
    o, ut = tr.o[:-1], tr.u_tilde[:-1]
    memory = tr.h is not None
    tu = tau * ut
    keep = np.sign(o)
    reset = np.multiply(H[:-1], keep, out=H[:-1])  # H is not read again
    reset *= tu
    keep = reset_keep(o, out=keep)
    u = np.multiply(tu, keep, out=tu) if memory else None  # u(t + 1)
    del tu  # a ternary layer is done with tau * u~
    carry = np.multiply(keep, tau, out=keep)  # du(t+1)/du~(t)
    carry -= reset
    if memory:
        gh, gu = _step_rates(tr.rule, tr.h[:-1], u, out=reset)
        dh = np.empty(du_tilde.shape)  # memory adjoint
        dh[-1] = du_tilde[-1]
    else:
        dh = du_tilde
    step = np.empty(du_tilde.shape[1:])
    for t in reversed(range(len(du_tilde) - 1)):
        carried = np.multiply(dh[t + 1], gu[t], out=step) if memory else dh[t + 1]
        du_tilde[t] += np.multiply(carried, carry[t], out=step)
        if memory:
            np.add(du_tilde[t], np.multiply(dh[t + 1], gh[t], out=step), out=dh[t])
    if not memory:
        return du_tilde, None
    return du_tilde, _chain_omega(tr.factors, _blend_partials(dh, tr.h, u, cache.cfg.kind, scratch=(carry, reset)))


# ---------------------------------------------------------------------------
# closed-form factor-product recursion
# ---------------------------------------------------------------------------


def backward_recursion(
    cache: Trace,
    dL_dO: Sequence[Array],
    net: Network,
    mode: str,
    tmpr: loss_mod.TMPRConfig | None = None,
    paper_xi: bool = False,
) -> GradSet:
    """Gradients via the explicit per-timestep factor products, one sweep for every kind.

    du~(t) = direct(t) + the sum over t' > t of direct(t') times
    first(t) * pair(t+1) * ... * pair(t'-1).  first(s) = g_u(s) * epsilon(s) is the
    one-step factor d u~(s+1) / d u~(s): the ternary leak/reset factor rated by the
    blend's u-rate; pair(s) = first(s) + g_h(s) adds the memory path.  Ternary layers
    are the case g_u = 1, g_h = 0, where both factors are epsilon.

    ``tmpr`` injects the regularizer's direct term as in ``backward_exact``.
    ``paper_xi`` takes first(s) as the paper's ``xi`` instead, which lacks the
    leak-and-reset factor; only ``gradcheck.ctsn_recursion_report`` passes it.
    """
    return _backward(cache, dL_dO, net, mode, tmpr, partial(_recursion, paper_xi=paper_xi))


def _recursion(cache: Trace, l: int, direct: Array, H: Array, omega: CTSNParams | None, paper_xi: bool = False):
    """Factor-product sum for one layer, then its omega gradient (None if ternary).

    The product for (t, t') walks back from one: pair(t'-1), ..., pair(t+1), and the
    term multiplies it by first(t).  The products of one gap t' - t = k, over every t,
    form one (T - k, B, D) stack that extends the previous gap's, so the sweep takes
    O(T) array operations; each du~(t) gains its terms in increasing t'.  The closed
    form only defines potential adjoints; the memory adjoint is recovered by the
    one-step relation dh(t) = du~(t) + dh(t+1) * g_h(t).
    """
    tr, cfg = cache.layers[l], cache.cfg
    n_steps = len(direct)
    first = pair = epsilon(tr.u_tilde[:-1], tr.o[:-1], H[:-1], cfg.tau)
    if omega is not None:
        u = cache.decayed(l)[1:]  # u(s + 1), the operand g_u rates
        gh, gu = _step_rates(tr.rule, tr.h[:-1], u)
        first = (xi(u, tr.o[:-1], tr.u_tilde[:-1], H[:-1], omega, cfg.kind, cfg.tau) if paper_xi
                 else np.array([g * e for g, e in zip(gu, first)]))
        pair = np.array([f + g for f, g in zip(first, gh)])
    dx = direct.copy()
    span = np.ones_like(first)  # span[t] = pair(t+k-1) * ... * pair(t+1) at gap k
    for k in range(1, n_steps):
        if k > 1:
            span = span[1:] * pair[1:n_steps - k + 1]
        dx[:n_steps - k] += direct[k:] * (span * first[:n_steps - k])
    if omega is None:
        return dx, None
    dh = dx.copy()
    for t in reversed(range(n_steps - 1)):
        dh[t] = dx[t] + dh[t + 1] * gh[t]
    return dx, _chain_omega(tr.factors, _blend_partials(dh, tr.h, u, cfg.kind))


# ---------------------------------------------------------------------------
# finite-difference oracle and the smooth stand-in
# ---------------------------------------------------------------------------


def central_diff(f, x: float, step: float) -> float:
    """Scalar central difference (f(x+step) - f(x-step)) / (2*step)."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    return (f(x + step) - f(x - step)) / (2.0 * step)


def _standin_pre(x: Array, w: Array, b: Array) -> Array:
    """x @ w + b for one linear map, one matrix product per member over its T'*B rows.

    ``x`` is (..., T', B, D) with T' = 1 when every timestep shares the input;
    a leading member axis on ``x``, ``w`` or ``b`` broadcasts.
    """
    out = x.reshape(x.shape[:-3] + (-1, x.shape[-1])) @ w + b[..., None, :]
    return out.reshape(out.shape[:-2] + x.shape[-3:-1] + out.shape[-1:])


def _standin_layer(pre: Array, factors: Array | None, cfg, n_steps: int) -> tuple[Array, Array]:
    """(u~, o) of one stand-in layer, (..., T, B, D): decay, blend, clip.

    ``factors`` is the effective (alpha, beta, gamma) on its last axis, None
    for the plain ternary unit; leading member axes broadcast.
    """
    lead = pre.shape[:-3] if factors is None else np.broadcast_shapes(pre.shape[:-3], factors.shape[:-1])
    ut = np.empty(lead + (n_steps,) + pre.shape[-2:])
    o = np.empty_like(ut)
    edge = cfg.v_th + cfg.a
    if factors is not None:
        alpha, beta, gamma = (factors[..., i, None, None] for i in range(3))
    h = 0.0
    for t in range(n_steps):
        x = pre[..., min(t, pre.shape[-3] - 1), :, :]
        if t == 0:
            ut[..., 0, :, :] = x
        else:
            u = cfg.tau * ut[..., t - 1, :, :] * (1.0 - np.abs(o[..., t - 1, :, :]))
            if factors is None:
                ut[..., t, :, :] = u + x
            else:
                if cfg.kind == "ctsn_static":
                    h = np.where(h >= 0.0, alpha * h, beta * h) + gamma * u
                else:
                    h = alpha * h + np.where(u >= 0.0, beta * u, gamma * u)
                ut[..., t, :, :] = h + x
        np.clip(ut[..., t, :, :], -edge, edge, out=o[..., t, :, :])
    return ut, o


def _standin_loss(logits: Array, pots: list[Array], labels: Array, tmpr) -> Array:
    """CE of the time-averaged (..., T, B, C) logits plus TMPR over ``pots``, per member."""
    avg = logits.mean(axis=-3)
    shifted = avg - avg.max(axis=-1, keepdims=True)
    norm = np.exp(shifted).sum(axis=-1)
    total = np.mean(np.log(norm) - shifted[..., np.arange(len(labels)), labels], axis=-1)
    if tmpr is not None and tmpr.active:
        n_steps = logits.shape[-3]
        layer_sum = 0.0
        for u in pots:
            layer_sum = layer_sum + np.square(u).reshape(u.shape[:-2] + (-1,)).sum(axis=-1) / (u.shape[-2] * u.shape[-1])
        reg = 0.0
        for t in range(n_steps):
            reg = reg + (tmpr.lam / (t + 1)) * layer_sum[..., t]
        total = total + reg / (n_steps * len(pots))
    return total


def _standin(net: Network, params: GradSet, input_seq, labels, tmpr) -> Array:
    """Stand-in loss per member of ``params``, whose vector is (P,) or (members, P), on the (T', B, D) input."""
    x, pots = np.asarray(input_seq, dtype=np.float64), []
    for l, layer in enumerate(net.layers):
        factors = None if layer.omega is None else sigmoid(params[f"layer{l}.omega"])
        pre = _standin_pre(x, params[f"layer{l}.w"], params[f"layer{l}.b"])
        ut, x = _standin_layer(pre, factors, net.cfg, net.n_steps)
        pots.append(ut)
    logits = _standin_pre(x, params["readout.w"], params["readout.b"])
    return _standin_loss(logits, pots, np.asarray(labels, dtype=np.int64), tmpr)


def surrogate_smooth_forward(net: Network, input_seq, labels, tmpr=None) -> float:
    """Scalar loss of the continuous stand-in network, from the oracle's own forward.

    The firing nonlinearity is replaced by its continuous piecewise-linear
    counterpart (slope one inside the surrogate window, clamped outside), so
    the loss is differentiable almost everywhere.  This is the unperturbed
    point of ``finite_difference``; it equals ce + tmpr of
    ``loss_and_grads(..., smooth=True)`` bit for bit.
    """
    total = float(_standin(net, GradSet.of(net), input_seq, labels, tmpr))
    if not np.isfinite(total):
        raise NumericError("non-finite stand-in loss")
    return total


def finite_difference(net: Network, input_seq, labels, tmpr, step: float) -> GradSet:
    """Central-difference gradients of the stand-in loss w.r.t. every parameter.

    All 2P perturbed networks of the P parameter entries run as one stand-in
    forward over a (2P, P) member array: member 2i is the parameter vector
    with +step at entry i, member 2i+1 with -step.  The forward and the loss
    are this module's own (``_standin_*``), in the engine's operation order,
    so the values equal perturbing one entry at a time through
    ``network.forward`` bit for bit while sharing none of its code.  The
    network is never written.  Member memory grows with P squared, which
    suits the gradcheck stand-ins (at most 8 units a layer), not wide layers.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    n_params = net.params.size
    members = np.repeat(net.params[None], 2 * n_params, axis=0)
    entry = np.arange(n_params)
    members[2 * entry, entry] += step
    members[2 * entry + 1, entry] -= step
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises below
        loss = _standin(net, GradSet(net, members), input_seq, labels, tmpr)
    if not np.isfinite(loss).all():
        raise NumericError("non-finite loss during finite differencing")
    return GradSet(net, (loss[0::2] - loss[1::2]) / (2.0 * step))
