"""Forward dynamics of ternary spiking neurons.

Two neuron families live here:

* The plain ternary unit: a leaky integrator that emits spikes in
  ``{-1, 0, +1}`` and zeroes its potential after every spike: the hard reset,
  the one reset of every kind, whose one form is ``reset_keep``'s float 1 - |o|.

* The complemented ternary unit ("ctsn"): the integrator feeds a
  non-resetting memory term ``h`` that blends its own history with the
  decayed potential through learnable mixing factors ``alpha/beta/gamma``
  (held in (0,1) via a sigmoid reparameterization, one scalar triple per
  layer).  Two blend rules exist: one keyed on the sign of ``h`` (static
  image inputs) and one keyed on the sign of the decayed potential
  (neuromorphic event inputs).  ``BLEND_RULES`` states both once, as which
  factor rates h(t-1) and which rates u(t); the forward, both gradient
  engines and the gradcheck kink search read it through ``blend_rule``,
  ``rate`` and ``blend``.

Step functions are pure: they take a state, return a new state, and never
mutate their inputs, so independent batch elements can be processed in
parallel.  State is zero-initialized at the start of every input sequence.

The helpers the steps are made of also take ``out=`` and scratch buffers, with
the same bits, so ``network``'s layer loop runs each timestep as a short run of
ufunc calls into buffers it allocates once, and every formula is stated here alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .numerics import Array

KINDS = ("ternary", "ctsn_static", "ctsn_neuromorphic")
RESETS = ("hard",)


@dataclass
class NeuronConfig:
    """Shared neuron hyperparameters.

    ``tau`` is the leak constant, ``v_th`` the firing threshold, ``a`` the
    surrogate half-width.  ``reset`` admits only ``RESETS``' one entry, the
    hard reset every kind uses.
    """

    tau: float = 0.25
    v_th: float = 0.5
    a: float = 0.5
    reset: str = "hard"
    kind: str = "ternary"

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if self.v_th <= 0.0:
            raise ValueError(f"v_th must be positive, got {self.v_th}")
        if self.a <= 0.0:
            raise ValueError(f"surrogate half-width a must be positive, got {self.a}")
        if self.reset not in RESETS:
            raise ValueError(f"unknown reset mode {self.reset!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown neuron kind {self.kind!r}")

    @property
    def is_ctsn(self) -> bool:
        return self.kind in ("ctsn_static", "ctsn_neuromorphic")


class CTSNParams:
    """Raw (unconstrained) mixing parameters of one complemented layer.

    ``vector`` is one float64 (3,) array holding (omega_alpha, omega_beta,
    omega_gamma); it is a trained parameter like any weight and is updated
    in place.  The effective factors are sigmoids of these, so they always
    lie strictly in (0, 1).  The zero default puts all three at 0.5.
    """

    def __init__(self, omega_alpha: float = 0.0, omega_beta: float = 0.0, omega_gamma: float = 0.0):
        self.vector = np.array([omega_alpha, omega_beta, omega_gamma], dtype=np.float64)

    def set_vector(self, v) -> None:
        self.vector[:] = v


def effective_params(p: CTSNParams) -> tuple[float, float, float]:
    """Map raw omegas to the effective (alpha, beta, gamma) in (0, 1).

    ``numerics.sigmoid``'s formula on Python floats around one ``np.exp`` call
    on the three -|omega|: the same bits, without its array temporaries.
    """
    omega = p.vector.tolist()
    e = np.exp([-abs(w) for w in omega]).tolist()
    return tuple([1.0 / (1.0 + x) if w >= 0.0 else x / (1.0 + x) for w, x in zip(omega, e)])


@dataclass
class NeuronState:
    """Per-layer recurrent state across one input sequence.

    ``u`` is the decayed pre-blend potential, ``h`` the memory term,
    ``u_tilde`` the post-integration potential the neuron fires from, and
    ``o_prev`` the last emitted spikes.  For the plain ternary neuron ``h``
    stays zero and ``u_tilde`` equals ``u``.
    """

    u: Array
    h: Array
    u_tilde: Array
    o_prev: Array

    @classmethod
    def zeros(cls, shape) -> "NeuronState":
        z = lambda: np.zeros(shape, dtype=np.float64)
        return cls(u=z(), h=z(), u_tilde=z(), o_prev=z())


def fire_scratch(shape) -> tuple[Array, Array, Array]:
    """Buffers ``ternary_fire`` takes as ``scratch``: two bool masks and an int8 array."""
    return np.empty(shape, dtype=bool), np.empty(shape, dtype=bool), np.empty(shape, dtype=np.int8)


def ternary_fire(u_tilde: Array, v_th: float, out: Array | None = None, scratch=None) -> Array:
    """Threshold the potential into {-1, 0, +1}; comparisons are inclusive.

    ``v_th`` is positive, so the two comparisons never both hold; NaN fires
    nothing.  Both comparisons land in bool masks whose int8 difference is
    cast to float64 once.  ``out``, when given, is a float64 array that
    receives the spikes and may be ``u_tilde`` itself; ``scratch`` is a
    ``fire_scratch`` of the same shape, allocated per call when left out.
    """
    u_tilde = np.asarray(u_tilde, dtype=np.float64)
    above, below, spikes = fire_scratch(u_tilde.shape) if scratch is None else scratch
    np.greater_equal(u_tilde, v_th, out=above)
    np.less_equal(u_tilde, -v_th, out=below)
    np.subtract(above.view(np.int8), below.view(np.int8), out=spikes)
    if out is None:
        return spikes.astype(np.float64)
    np.copyto(out, spikes)
    return out


def surrogate(u_tilde: Array, v_th: float, a: float) -> Array:
    """Rectangular spike-derivative stand-in: 1 where |u| - v_th < a, else 0.

    ``u_tilde`` has at least one dimension.  The float64 window is formed in one
    array: |u|, less v_th in place, then the comparison's 0/1 written over it.
    """
    window = np.abs(np.asarray(u_tilde, dtype=np.float64))
    window -= v_th
    return np.less(window, a, out=window)


def reset_keep(o: Array, out: Array | None = None) -> Array:
    """1 - |o|, what a spike leaves of the potential.  ``out``, a float64 array, receives
    it when given.  The subtraction reuses |o|'s array, which a 0-d ``o`` does not return."""
    keep = np.abs(o, out=out)
    return np.subtract(1.0, keep, out=keep if keep.ndim else None)


def decay(u_prev: Array, o_prev: Array, tau: float, out: Array | None = None,
          keep: Array | None = None) -> Array:
    """Leak with the spike reset folded in: tau * u(t-1) * reset_keep(o(t-1)).  ``out``
    receives the result and ``keep``, a float64 array, the reset factor, when given."""
    u = np.multiply(tau, u_prev, out=out)
    return np.multiply(u, reset_keep(o_prev, out=keep), out=u)


def _check_state_input(state: NeuronState, x: Array) -> Array:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != state.u.shape:
        raise DimensionError(f"input shape {x.shape} does not match state shape {state.u.shape}")
    return x


def ternary_step(
    state: NeuronState, x: Array, cfg: NeuronConfig, *, fire=None
) -> tuple[Array, NeuronState]:
    """One hard-reset ternary step: decay survives only silent timesteps.

    u(t) = tau * u(t-1) * (1 - |o(t-1)|) + x(t), then fire.  ``fire``
    optionally replaces the threshold function (the differentiable stand-in
    used by gradient checks); dynamics are otherwise identical.
    """
    if cfg.kind != "ternary":
        raise ValueError("ternary_step requires kind='ternary'")
    x = _check_state_input(state, x)
    u = decay(state.u, state.o_prev, cfg.tau) + x
    o = ternary_fire(u, cfg.v_th) if fire is None else fire(u)
    return o, NeuronState(u=u, h=np.zeros_like(u), u_tilde=u, o_prev=o)


def ternary_step_soft(
    state: NeuronState, x: Array, cfg: NeuronConfig, *, fire=None
) -> tuple[Array, NeuronState]:
    """One soft-reset ternary step: a spike subtracts the signed threshold.

    u(t) = tau * (u(t-1) - o(t-1) * v_th) + x(t), then fire.  No config selects it: it
    stays only for the benchmark tracer's lookup on ``network``; ROADMAP item 1 deletes it.
    """
    if cfg.kind != "ternary":
        raise ValueError("ternary_step_soft requires kind='ternary'")
    x = _check_state_input(state, x)
    u = cfg.tau * (state.u - state.o_prev * cfg.v_th) + x
    o = ternary_fire(u, cfg.v_th) if fire is None else fire(u)
    return o, NeuronState(u=u, h=np.zeros_like(u), u_tilde=u, o_prev=o)


ALPHA, BETA, GAMMA = range(3)  # positions in the effective (alpha, beta, gamma) triple

# The memory blend h(t) = r_h * h(t-1) + r_u * u(t) of each complemented kind: (rate of h(t-1),
# rate of u(t)).  A rate is one factor, or a pair (below 0, at or above 0) keyed on the sign of
# the operand it rates.
BLEND_RULES = {
    # static images:   h(t) = alpha * max(h(t-1), 0) + beta * min(h(t-1), 0) + gamma * u(t)
    "ctsn_static": ((BETA, ALPHA), GAMMA),
    # event streams:   h(t) = alpha * h(t-1) + beta * max(u(t), 0) + gamma * min(u(t), 0)
    "ctsn_neuromorphic": (ALPHA, (GAMMA, BETA)),
}


def blend_rule(kind: str, factors) -> tuple:
    """(r_h, r_u) of ``kind``'s blend at the effective ``factors``: each a float, or for a
    sign-keyed rate the (2,) table (below 0, at or above 0).  Built once per layer."""
    return tuple([factors[r] if isinstance(r, int) else np.array((factors[r[0]], factors[r[1]]))
                  for r in BLEND_RULES[kind]])


def rate(r, x, out: Array | None = None, mask: Array | None = None):
    """The rate ``r`` at operand ``x``: a float as it is, a table read at the 0/1 mask
    x >= 0 (``np.where``'s bits without its branch on a random sign; NaN reads below).
    A table's rates go to ``out`` and its mask to the bool array ``mask``, when given."""
    if not isinstance(r, np.ndarray):
        return r
    return r.take(np.greater_equal(x, 0.0, out=mask), out=out, mode="clip")


def blend(rule, h_prev: Array, u: Array, out: Array | None = None,
          scratch: Array | None = None, mask: Array | None = None) -> Array:
    """Memory blend r_h * h_prev + r_u * u under ``rule`` (see ``blend_rule``), the h
    term first.  h_prev = u = 0 is a fixed point.  ``out``, when given, receives the
    result; ``scratch``, a float64 array other than ``out`` that may be ``u`` itself,
    holds the h term, and the bool array ``mask`` the rates' sign masks."""
    if h_prev.shape != u.shape:
        raise DimensionError(f"blend shapes disagree: {h_prev.shape} vs {u.shape}")
    r_h, r_u = rule
    u_term = np.multiply(rate(r_u, u, out, mask), u, out=out)
    h_term = np.multiply(rate(r_h, h_prev, scratch, mask), h_prev, out=scratch)
    return np.add(h_term, u_term, out=u_term)


def ctsn_step(
    state: NeuronState, x: Array, p: CTSNParams, cfg: NeuronConfig, *, fire=None
) -> tuple[Array, NeuronState]:
    """One complemented-ternary step.

    u(t)  = tau * u~(t-1) * (1 - |o(t-1)|)      (reset folded into the decay)
    h(t)  = blend(h(t-1), u(t))                 (BLEND_RULES[cfg.kind])
    u~(t) = h(t) + x(t), then fire from u~(t).

    The returned state stores the pre-reset u~(t); the fold happens when the
    next step forms u(t+1).
    """
    if not cfg.is_ctsn:
        raise ValueError("ctsn_step requires a ctsn_* neuron kind")
    x = _check_state_input(state, x)
    u = decay(state.u_tilde, state.o_prev, cfg.tau)
    h = blend(blend_rule(cfg.kind, effective_params(p)), state.h, u)
    u_tilde = h + x
    o = ternary_fire(u_tilde, cfg.v_th) if fire is None else fire(u_tilde)
    return o, NeuronState(u=u, h=h, u_tilde=u_tilde, o_prev=o)

