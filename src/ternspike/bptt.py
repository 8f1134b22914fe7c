"""Reverse-mode gradients over the unrolled spike graph, two independent ways.

``backward_exact`` walks the unrolled computation graph node by node,
propagating adjoints through every dependency path (decay, reset, memory
blend, spatial fan-out) with the rectangular surrogate substituted at every
spike node.  It is the engine used for training; ``loss_and_grads`` wraps
it with the forward pass, both losses and the regularizer's adjoint
injection, and is the one entry point for training and the gradient checks.

``backward_recursion`` evaluates the closed-form per-timestep factor
products instead: the ternary potential adjoint is a sum over later
timesteps of per-step leak/reset factors (``epsilon``), and the complemented
neuron's adjoint is a sum of ``xi`` products with an additive memory-blend
term.  For the plain ternary neuron the two implementations are algebraically
identical, so agreement within float roundoff is a strong cross-check.  For
the complemented neuron the closed form drops the decay-and-reset factor
from its potential-to-memory derivative (it uses the blend coefficient
alone), so the two disagree beyond T=1 by construction; the gradcheck
command reports that gap instead of hiding it.

Both engines read the stacked trace of ``network.forward`` and work one
layer at a time over all timesteps: the factors are formed over the whole
(T, B, D) stack, only the adjoint recurrence itself steps through time, and
each linear map's gradients are one matrix product over its T*B rows, written
into its view of one ``GradSet`` vector in the network's parameter layout.

The factor functions (``epsilon``, ``kappa``, ``xi``, ``choice``,
``grad_h_G``) are also exported standalone so each can be pinned by direct
value tests.

``finite_difference`` is the third oracle: central differences of the
smooth stand-in loss.  It does not share the engine's forward; it has its
own compact stand-in forward and loss (``_standin_*``), written in the
engine's operation order so its values equal differencing
``network.forward(smooth=True)`` bit for bit, and it evaluates the +-step
perturbations of every parameter entry in one pass over a (2P, P) member array.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import loss as loss_mod, network as net_mod
from .errors import NumericError
from .network import Network, Trace
from .neuron import CTSNParams, effective_params, reset_keep
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
            if math.isfinite(self.vector.sum()):
                return
        for name, arr in self.named():
            if not np.isfinite(arr).all():
                raise NumericError(f"non-finite {what} in {name}")


def relative_errors(a: GradSet, b: GradSet, min_abs: float = 0.0):
    """Per-entry relative errors between two gradient sets, taken over the whole
    vectors and yielded one parameter array at a time.

    Yields (name, index, va, vb, rel): the flat indices of the compared
    entries, both sets' values there and |va - vb| / max(|va|, |vb|).
    Entries where both magnitudes are at most ``min_abs`` are skipped; a pair
    of exact zeros counts as zero error, and a non-finite entry as infinite
    error.
    """
    fa, fb = a.vector, b.vector
    denom = np.maximum(np.abs(fa), np.abs(fb))
    keep = ~(denom <= min_abs)  # not denom > min_abs: NaN entries stay in
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(denom > 0.0, np.abs(fa - fb) / denom, 0.0)
    rel[~(np.isfinite(fa) & np.isfinite(fb))] = np.inf
    for name, (span, _) in a.layout.items():
        idx = np.flatnonzero(keep[span])
        yield name, idx, fa[span][idx], fb[span][idx], rel[span][idx]


def max_relative_error(
    a: GradSet, b: GradSet, min_abs: float = 0.0
) -> tuple[float, str]:
    """Worst per-parameter relative error between two gradient sets.

    Skips entries as ``relative_errors`` does.  Returns the error and a
    descriptor of the first worst entry (parameter name and flat index).
    """
    worst = 0.0
    where = "none"
    for name, idx, _, _, rel in relative_errors(a, b, min_abs):
        if rel.size and rel.max() > worst:
            k = int(np.argmax(rel))  # first maximum, so ties go to the earliest entry
            worst, where = float(rel[k]), f"{name}[{idx[k]}]"
    return worst, where


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
    return tau * (1.0 - np.abs(o) - np.sign(o) * u * H)


def kappa(u, tau: float, v_th: float):
    """Piecewise closed form of the temporal factor, kept as a diagnostic.

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


def choice(x, pivot, a, b):
    """a where x >= pivot, else b (the pivot itself takes a; NaN takes b): the
    table (b, a) read at the mask's 0/1 indices, a gather and not a branch."""
    return np.array((b, a)).take(np.asarray(x, dtype=np.float64) >= pivot)


def grad_h_G(h, kind: str, alpha: float, beta: float):
    """Derivative of the memory blend w.r.t. its previous-memory argument."""
    if kind == "ctsn_static":
        return choice(h, 0.0, alpha, beta)
    if kind == "ctsn_neuromorphic":
        return np.full_like(np.asarray(h, dtype=np.float64), alpha)
    raise ValueError(f"grad_h_G is undefined for kind {kind!r}")


def grad_u_G(u, kind: str, beta: float, gamma: float):
    """Derivative of the memory blend w.r.t. its potential argument."""
    if kind == "ctsn_static":
        return np.full_like(np.asarray(u, dtype=np.float64), gamma)
    if kind == "ctsn_neuromorphic":
        return choice(u, 0.0, beta, gamma)
    raise ValueError(f"grad_u_G is undefined for kind {kind!r}")


def xi(h_next_inputs, o, u_tilde, H, params: CTSNParams, kind: str, tau: float):
    """Closed-form potential-to-potential factor of the complemented unit.

    ``h_next_inputs`` is the pair (h(t), u(t+1)) feeding the next blend.  The
    first term is the blend's potential derivative taken directly (without
    the decay-and-reset factor of the u(t+1) chain; that omission is what
    separates this closed form from the exact graph).  The second term is the
    reset path: d_blend/d_u * (-tau * u~(t)) * sign(o) * H.
    """
    _, u_next = h_next_inputs
    alpha, beta, gamma = effective_params(params)
    o = np.asarray(o, dtype=np.float64)
    u_tilde = np.asarray(u_tilde, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    g_u = grad_u_G(u_next, kind, beta, gamma)
    return g_u + g_u * (-tau * u_tilde) * np.sign(o) * H


# ---------------------------------------------------------------------------
# shared spatial plumbing
# ---------------------------------------------------------------------------


def _mode_for(net: Network, mode: str) -> None:
    if mode == "ternary" and net.cfg.kind != "ternary":
        raise ValueError(f"mode 'ternary' but network kind is {net.cfg.kind!r}")
    if mode == "ctsn" and not net.cfg.is_ctsn:
        raise ValueError(f"mode 'ctsn' but network kind is {net.cfg.kind!r}")
    if mode not in ("ternary", "ctsn"):
        raise ValueError(f"unknown backward mode {mode!r}")
    if net.cfg.reset == "soft":
        raise ValueError(
            "gradient engines cover hard-reset dynamics; soft reset is a forward-only mode"
        )


def _layer_param_grads(x: Array, dx: Array, w: Array, grads: GradSet, name: str, below: bool = True):
    """Write dW and db of linear map ``name`` into ``grads``; return its input adjoint.
    ``dx`` is (T, B, D_out).  ``x`` is the map's input: (T, B, D_in), or (B, D_in)
    when every timestep shares it, where dW = x^T sum_t dx(t).  The input adjoint is
    None unless ``below`` (the network input needs none)."""
    flat = dx.reshape(-1, dx.shape[-1])
    lhs, rhs = (x.T, dx.sum(axis=0)) if x.ndim == 2 else (x.reshape(-1, x.shape[-1]).T, flat)
    np.matmul(lhs, rhs, out=grads[f"{name}.w"])
    flat.sum(axis=0, out=grads[f"{name}.b"])
    return (flat @ w.T).reshape(dx.shape[:-1] + w.shape[:1]) if below else None


def _backward(cache: Trace, dL_dO, net: Network, mode: str, du_extra, sweep) -> GradSet:
    """Readout, then each layer top-down, into one gradient vector.  ``sweep(cache, l,
    direct, H, omega)`` turns the adjoints entering layer l's potentials directly (A * H
    plus any injection) into dL/dx, and returns the omega gradient (None if ternary)."""
    _mode_for(net, mode)
    if len(dL_dO) != cache.n_steps:
        raise ValueError(f"got {len(dL_dO)} upstream gradients for {cache.n_steps} timesteps")
    g = np.asarray(dL_dO, dtype=np.float64)  # a (T, B, C) array passes through uncopied
    grads = GradSet(net, np.empty_like(net.params))  # every entry is written below
    A = _layer_param_grads(cache.layers[-1].o, g, net.readout.w, grads, "readout")
    for l in reversed(range(cache.n_layers)):
        H = cache.surrogate(l)
        direct = A * H
        if du_extra is not None:
            direct += np.asarray(du_extra[l], dtype=np.float64)
        dx, domega = sweep(cache, l, direct, H, net.layers[l].omega)
        if domega is not None:
            grads[f"layer{l}.omega"][...] = domega
        A = _layer_param_grads(cache.layer_input(l), dx, net.layers[l].w, grads, f"layer{l}", below=l > 0)
    return grads


def _chain_omega(factors, partials) -> Array:
    """Raw-omega gradient from the partials, via the sigmoid at the effective ``factors``."""
    return np.array([d * p * (1.0 - p) for d, p in zip(partials, factors)])


def _blend_partials(dh: Array, h: Array, u: Array, static: bool):
    """(d_alpha, d_beta, d_gamma) of one layer before the sigmoid chain.

    ``dh`` is the memory adjoint and ``h`` the memory, both (T, B, D); ``u``
    is the decayed potential from the second step on, (T - 1, B, D).  The
    first step contributes nothing: both blend inputs are zero there.
    """
    dh, h_prev = dh[1:], h[:-1]
    if static:
        return (
            float((dh * np.maximum(h_prev, 0.0)).sum()),
            float((dh * np.minimum(h_prev, 0.0)).sum()),
            float((dh * u).sum()),
        )
    return (
        float((dh * h_prev).sum()),
        float((dh * np.maximum(u, 0.0)).sum()),
        float((dh * np.minimum(u, 0.0)).sum()),
    )


# ---------------------------------------------------------------------------
# exact graph traversal
# ---------------------------------------------------------------------------


def loss_and_grads(net: Network, input_seq, labels, tmpr=None, smooth=False):
    """Forward one batch and return (ce, tmpr_loss, logits, grads).

    ``grads`` are the exact gradients of ce + tmpr_loss: the classifier
    gradient enters at the readout and, when ``tmpr`` is active, the
    regularizer's direct term is injected at every captured potential.
    ``smooth=True`` runs the continuous stand-in network instead of the
    spiking one.  Training and the gradient checks both go through here.
    """
    logits, cache = net_mod.forward(net, input_seq, smooth=smooth)
    ce, dL_dO = loss_mod.avg_ce_loss_and_grad(logits, labels)
    tmpr_val = 0.0
    du_extra = None
    if tmpr is not None and tmpr.active:
        pots = cache.potentials()
        with np.errstate(over="ignore"):  # an overflow is an infinite loss, which training raises on
            tmpr_val = loss_mod.tmpr_loss(pots, tmpr)
        du_extra = loss_mod.tmpr_grad(pots, tmpr.lam)
    mode = "ctsn" if net.cfg.is_ctsn else "ternary"
    grads = backward_exact(cache, dL_dO, net, mode, du_extra=du_extra)
    return ce, tmpr_val, logits, grads


def backward_exact(
    cache: Trace,
    dL_dO: Sequence[Array],
    net: Network,
    mode: str,
    du_extra: Sequence[Sequence[Array]] | None = None,
) -> GradSet:
    """Reverse traversal of the exact unrolled graph.

    ``dL_dO[t]`` are the upstream gradients on the per-timestep logits, a
    sequence of (B, C) arrays or one (T, B, C) array.
    ``du_extra[l][t]``, when given, is an extra adjoint injected directly at
    layer l's post-integration potential at step t (the regularizer's direct
    term); it then propagates through every temporal and spatial path like
    any other contribution.
    """
    sweep = _exact_sweep_ternary if mode == "ternary" else _exact_sweep_ctsn
    return _backward(cache, dL_dO, net, mode, du_extra, sweep)


def _exact_sweep_ternary(cache: Trace, l: int, du: Array, H: Array, omega):
    """Adjoint sweep over one ternary layer, newest timestep first, in place.

    du(t) = A(t) * H(t) + inj(t) + du(t+1) * epsilon(t); the epsilon factor
    bundles the leak through 1 - |o| with the surrogate reset path.
    """
    tr = cache.layers[l]
    eps = epsilon(tr.u_tilde[:-1], tr.o[:-1], H[:-1], cache.cfg.tau)
    for t in reversed(range(len(du) - 1)):
        du[t] += du[t + 1] * eps[t]
    return du, None


def _exact_sweep_ctsn(cache: Trace, l: int, du_tilde: Array, H: Array, omega: CTSNParams):
    """Adjoint sweep over one complemented layer (two carried adjoints), in place.

    The potential adjoint flows through u(t+1) = tau * u~(t) * (1 - |o(t)|)
    into the blend; the memory adjoint flows along h(t+1) -> h(t) with the
    blend's h-derivative.  Both reach the blend's parameters.  tau * u~ and the
    reset factor serve the carry and u(t+1); the sign-free blend derivative is a scalar.
    """
    tr, cfg = cache.layers[l], cache.cfg
    tau, static = cfg.tau, cfg.kind == "ctsn_static"
    alpha, beta, gamma = tr.factors
    o, ut = tr.o[:-1], tr.u_tilde[:-1]
    keep, tu = reset_keep(o, cache.smooth), tau * ut
    carry = tau * keep - tu * np.sign(o) * H[:-1]  # du(t+1)/du~(t)
    u = tu * keep  # u(t + 1)
    # blend derivatives of the step from t into t + 1; the sign-free one is one scalar per step
    gu = [gamma] * len(u) if static else choice(u, 0.0, beta, gamma)
    gh = choice(tr.h[:-1], 0.0, alpha, beta) if static else [alpha] * len(u)
    dh = np.empty_like(du_tilde)  # memory adjoint
    dh[-1] = du_tilde[-1]
    for t in reversed(range(len(du_tilde) - 1)):
        du_tilde[t] += dh[t + 1] * gu[t] * carry[t]
        dh[t] = du_tilde[t] + dh[t + 1] * gh[t]
    return du_tilde, _chain_omega(tr.factors, _blend_partials(dh, tr.h, u, static))


# ---------------------------------------------------------------------------
# closed-form factor-product recursion
# ---------------------------------------------------------------------------


def backward_recursion(
    cache: Trace,
    dL_dO: Sequence[Array],
    net: Network,
    mode: str,
    du_extra: Sequence[Sequence[Array]] | None = None,
    stats: dict | None = None,
) -> GradSet:
    """Gradients via the explicit per-timestep factor products.

    Ternary layers: du(t) = sum over t' >= t of the direct adjoint at t'
    times the product of epsilon factors walked back from t' - 1 to t.

    Complemented layers: the t' = t + 1 term carries a bare ``xi`` factor;
    terms from t' >= t + 2 multiply xi(t) by (xi(s) + blend-h-derivative)
    pairs for the intermediate steps.  ``stats['comp_grad_factors']``, when a
    dict is supplied, counts how many such additive blend terms entered the
    potential-adjoint products (zero whenever T <= 2).
    """
    if stats is not None:
        stats["comp_grad_factors"] = 0
    if mode == "ternary":
        sweep = _recursion_ternary
    else:
        sweep = lambda cache, l, direct, H, omega: _recursion_ctsn(cache, l, direct, H, omega, stats)
    return _backward(cache, dL_dO, net, mode, du_extra, sweep)


def _recursion_ternary(cache: Trace, l: int, direct: Array, H: Array, omega):
    """Literal factor-product sum for one ternary layer."""
    tr = cache.layers[l]
    eps = epsilon(tr.u_tilde, tr.o, H, cache.cfg.tau)
    n_steps = len(direct)
    dx = direct.copy()
    for t in range(n_steps):
        for t_next in range(t + 1, n_steps):
            prod = np.ones_like(dx[t])
            for k in range(1, t_next - t + 1):
                prod = prod * eps[t_next - k]
            dx[t] += direct[t_next] * prod
    return dx, None


def _recursion_ctsn(cache: Trace, l: int, direct: Array, H: Array, omega: CTSNParams, stats):
    """Literal xi-product sum for one complemented layer, then its omega gradient.

    The closed form only defines potential adjoints; the memory adjoint is
    recovered by the one-step relation dh(t) = du~(t) + dh(t+1) * gh(t).
    """
    tr, cfg = cache.layers[l], cache.cfg
    n_steps = len(direct)
    alpha, beta, _ = tr.factors
    u = cache.decayed(l)
    xis = xi((tr.h[:-1], u[1:]), tr.o[:-1], tr.u_tilde[:-1], H[:-1], omega, cfg.kind, cfg.tau)
    gh = grad_h_G(tr.h[:-1], cfg.kind, alpha, beta)  # d h(s+1) / d h(s), branch on h(s)
    dx = direct.copy()
    for t in range(n_steps):
        if t + 1 < n_steps:
            dx[t] += direct[t + 1] * xis[t]
        for t_next in range(t + 2, n_steps):
            prod = xis[t].copy()
            for s in range(t + 1, t_next):
                prod = prod * (xis[s] + gh[s])
                if stats is not None:
                    stats["comp_grad_factors"] += 1
            dx[t] += direct[t_next] * prod
    dh = dx.copy()
    for t in reversed(range(n_steps - 1)):
        dh[t] = dx[t] + dh[t + 1] * gh[t]
    return dx, _chain_omega(tr.factors, _blend_partials(dh, tr.h, u[1:], cfg.kind == "ctsn_static"))


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
    """Stand-in loss per member of ``params``, whose vector is (P,) or (members, P)."""
    shared = all(step is input_seq[0] for step in input_seq)
    x = np.asarray(input_seq[0] if shared else np.stack(input_seq), dtype=np.float64)
    x, pots = x.reshape((-1,) + x.shape[-2:]), []
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
