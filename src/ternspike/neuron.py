"""Forward dynamics of ternary spiking neurons.

Two neuron families live here:

* The plain ternary unit: a leaky integrator that emits spikes in
  ``{-1, 0, +1}`` and resets after every spike, either by zeroing the
  potential (hard reset, multiplicative ``1 - |o|``) or by subtracting the
  signed threshold (soft reset).

* The complemented ternary unit ("ctsn"): the integrator feeds a
  non-resetting memory term ``h`` that blends its own history with the
  decayed potential through learnable mixing factors ``alpha/beta/gamma``
  (held in (0,1) via a sigmoid reparameterization, one scalar triple per
  layer).  Two blend rules exist: one keyed on the sign of ``h`` (static
  image inputs) and one keyed on the sign of the decayed potential
  (neuromorphic event inputs).

Step functions are pure: they take a state, return a new state, and never
mutate their inputs, so independent batch elements can be processed in
parallel.  State is zero-initialized at the start of every input sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .numerics import Array, sigmoid

KINDS = ("ternary", "ctsn_static", "ctsn_neuromorphic")
RESETS = ("hard", "soft")


@dataclass
class NeuronConfig:
    """Shared neuron hyperparameters.

    ``tau`` is the leak constant, ``v_th`` the firing threshold, ``a`` the
    surrogate half-width.  Soft reset is only defined for the plain ternary
    neuron; the complemented unit always uses the multiplicative reset.
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
        if self.reset == "soft" and self.kind != "ternary":
            raise ValueError("soft reset is only defined for kind='ternary'")

    @property
    def is_ctsn(self) -> bool:
        return self.kind in ("ctsn_static", "ctsn_neuromorphic")


@dataclass
class CTSNParams:
    """Raw (unconstrained) mixing parameters of one complemented layer.

    The effective factors are sigmoids of these, so they always lie strictly
    in (0, 1).  The zero default puts all three at 0.5.
    """

    omega_alpha: float = 0.0
    omega_beta: float = 0.0
    omega_gamma: float = 0.0

    def copy(self) -> "CTSNParams":
        return CTSNParams(self.omega_alpha, self.omega_beta, self.omega_gamma)

    def as_vector(self) -> np.ndarray:
        return np.array([self.omega_alpha, self.omega_beta, self.omega_gamma])

    def set_vector(self, v) -> None:
        self.omega_alpha = float(v[0])
        self.omega_beta = float(v[1])
        self.omega_gamma = float(v[2])


def effective_params(p: CTSNParams) -> tuple[float, float, float]:
    """Map raw omegas to the effective (alpha, beta, gamma) in (0, 1)."""
    vals = sigmoid(np.array([p.omega_alpha, p.omega_beta, p.omega_gamma]))
    return float(vals[0]), float(vals[1]), float(vals[2])


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


def ternary_fire(u_tilde: Array, v_th: float, out: Array | None = None) -> Array:
    """Threshold the potential into {-1, 0, +1}; comparisons are inclusive.

    ``v_th`` is positive, so the two comparisons never both hold; NaN fires
    nothing.  ``out``, when given, is a float64 array that receives the spikes.
    """
    u_tilde = np.asarray(u_tilde, dtype=np.float64)
    if out is None:
        out = np.empty_like(u_tilde)
    np.greater_equal(u_tilde, v_th, out=out)
    out -= u_tilde <= -v_th
    return out


def surrogate(u_tilde: Array, v_th: float, a: float) -> Array:
    """Rectangular spike-derivative stand-in: 1 where |u| - v_th < a, else 0."""
    u_tilde = np.asarray(u_tilde, dtype=np.float64)
    return (np.abs(u_tilde) - v_th < a).astype(np.float64)


def decay(u_prev: Array, o_prev: Array, tau: float) -> Array:
    """Leak with the spike reset folded in: tau * u(t-1) * (1 - |o(t-1)|)."""
    return tau * u_prev * (1.0 - np.abs(o_prev))


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
    if cfg.kind != "ternary" or cfg.reset != "hard":
        raise ValueError("ternary_step requires kind='ternary', reset='hard'")
    x = _check_state_input(state, x)
    u = decay(state.u, state.o_prev, cfg.tau) + x
    o = ternary_fire(u, cfg.v_th) if fire is None else fire(u)
    return o, NeuronState(u=u, h=np.zeros_like(u), u_tilde=u, o_prev=o)


def ternary_step_soft(
    state: NeuronState, x: Array, cfg: NeuronConfig, *, fire=None
) -> tuple[Array, NeuronState]:
    """One soft-reset ternary step: a spike subtracts the signed threshold.

    u(t) = tau * (u(t-1) - o(t-1) * v_th) + x(t), then fire.  Residual
    potential beyond the threshold survives the reset.
    """
    if cfg.reset != "soft":
        raise ValueError("ternary_step_soft requires reset='soft'")
    x = _check_state_input(state, x)
    u = cfg.tau * (state.u - state.o_prev * cfg.v_th) + x
    o = ternary_fire(u, cfg.v_th) if fire is None else fire(u)
    return o, NeuronState(u=u, h=np.zeros_like(u), u_tilde=u, o_prev=o)


def g_static(
    h_prev: Array, u: Array, alpha: float, beta: float, gamma: float, out: Array | None = None
) -> Array:
    """Memory blend for static inputs: decay rate keyed on the sign of h.

    alpha * relu(h_prev) + beta * (-relu(-h_prev)) + gamma * u, i.e. positive
    memory decays with alpha, negative with beta; h_prev = 0 is branchless
    (both sides vanish).  ``out``, when given, receives the result.
    """
    h_prev = np.asarray(h_prev, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if h_prev.shape != u.shape:
        raise DimensionError(f"g_static shapes disagree: {h_prev.shape} vs {u.shape}")
    return np.add(np.where(h_prev >= 0.0, alpha * h_prev, beta * h_prev), gamma * u, out=out)


def g_neuromorphic(
    h_prev: Array, u: Array, alpha: float, beta: float, gamma: float, out: Array | None = None
) -> Array:
    """Memory blend for event inputs: injection rate keyed on the sign of u.

    alpha * h_prev + beta * relu(u) + gamma * (-relu(-u)); u = 0 contributes
    nothing from either side.  ``out``, when given, receives the result.
    """
    h_prev = np.asarray(h_prev, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if h_prev.shape != u.shape:
        raise DimensionError(f"g_neuromorphic shapes disagree: {h_prev.shape} vs {u.shape}")
    return np.add(alpha * h_prev, np.where(u >= 0.0, beta * u, gamma * u), out=out)


def ctsn_step(
    state: NeuronState, x: Array, p: CTSNParams, cfg: NeuronConfig, *, fire=None
) -> tuple[Array, NeuronState]:
    """One complemented-ternary step.

    u(t)  = tau * u~(t-1) * (1 - |o(t-1)|)      (reset folded into the decay)
    h(t)  = blend(h(t-1), u(t))                 (rule per cfg.kind)
    u~(t) = h(t) + x(t), then fire from u~(t).

    The returned state stores the pre-reset u~(t); the fold happens when the
    next step forms u(t+1).
    """
    if not cfg.is_ctsn:
        raise ValueError("ctsn_step requires a ctsn_* neuron kind")
    x = _check_state_input(state, x)
    alpha, beta, gamma = effective_params(p)
    u = decay(state.u_tilde, state.o_prev, cfg.tau)
    if cfg.kind == "ctsn_static":
        h = g_static(state.h, u, alpha, beta, gamma)
    else:
        h = g_neuromorphic(state.h, u, alpha, beta, gamma)
    u_tilde = h + x
    o = ternary_fire(u_tilde, cfg.v_th) if fire is None else fire(u_tilde)
    return o, NeuronState(u=u, h=h, u_tilde=u_tilde, o_prev=o)


def closed_form_potential(x_hist, o_hist, tau: float, t: int) -> Array:
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
