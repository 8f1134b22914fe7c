"""Feedforward spiking network: linear + neuron stacks with a linear readout.

The backbone is a multilayer perceptron: the flattened input feeds a chain
of (linear map, spiking neuron) blocks, and a final linear readout turns the
top layer's spikes into real-valued logits at every timestep.  Prediction
averages the logits over time and takes the argmax (ties resolve to the
lowest class index).

``forward`` takes one (T', batch, input) array, T' = T, or T' = 1 for an input
that every timestep shares (direct encoding).  It runs the network layer by
layer, each layer over all timesteps at once (the network is feedforward, so
a layer's whole spike train is known before the next layer starts), and
records one ``LayerTrace`` per spiking layer, arrays shaped (timesteps,
batch, features): everything the gradient engines need.  With ``smooth=True`` the firing nonlinearity is
swapped for its continuous piecewise-linear stand-in: the pass the
analytic gradient is checked on, and the one the gradcheck kink search
inspects.  The finite-difference oracle runs its own copy of this forward
(``bptt.finite_difference``).

A ``Network`` is built from its widths and carved out of one float64 vector,
``params``, that every layer's ``w``, ``b`` and ``CTSNParams.vector`` view: a new zero
vector, or one it is given (``build_network`` draws the weights into the former,
``parse_model`` hands it the latter).  ``param_layout`` states the names, order and
shapes once; gradients, momentum, FD members and model files follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import neuron as neuron_mod
from .errors import DimensionError, StateError
from .neuron import (  # the step functions stay importable here for per-step callers and wrappers
    CTSNParams,
    NeuronConfig,
    blend,
    blend_rule,
    ctsn_step,
    decay,
    fire_scratch,
    surrogate,
    ternary_fire,
    ternary_step,
    ternary_step_soft,
)
from .numerics import Array


@dataclass
class Layer:
    """One linear map: weights (fan_in, fan_out), bias (fan_out,).

    ``omega`` holds the complemented neuron's per-layer mixing triple and is
    None for plain-ternary hidden layers and for the readout.
    """

    w: Array
    b: Array
    omega: CTSNParams | None = None


def param_layout(dims, n_classes: int, is_ctsn: bool) -> dict[str, tuple[slice, tuple[int, ...]]]:
    """Name -> (slice of the parameter vector, shape), in vector order: per hidden layer
    ``layer{l}.w`` (fan_in, fan_out), ``layer{l}.b`` and, for complemented kinds,
    ``layer{l}.omega`` (3,); then ``readout.w`` and ``readout.b``.

    ``dims`` lists the input dimension followed by each hidden width.  This is the one
    statement of the layout: networks, gradients, momentum, FD members and model files follow it.
    """
    if len(dims) < 2:
        raise ValueError("need at least an input and one hidden dimension")
    shapes = {}
    for l, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        shapes.update({f"layer{l}.w": (fan_in, fan_out), f"layer{l}.b": (fan_out,)})
        if is_ctsn:
            shapes[f"layer{l}.omega"] = (3,)
    shapes.update({"readout.w": (dims[-1], n_classes), "readout.b": (n_classes,)})
    layout, start = {}, 0
    for name, shape in shapes.items():
        layout[name] = (slice(start, start + math.prod(shape)), shape)
        start += math.prod(shape)
    return layout


class Network:
    """Spiking layers and a readout carved out of one parameter vector, ``params``.

    ``dims`` lists the input dimension followed by each hidden width.  Every ``layers[l].w``,
    ``.b``, ``.omega.vector`` and ``readout.w``, ``.b`` is a view of ``params`` at its
    ``layout`` entry (name -> (slice, shape), see ``param_layout``).  ``params`` left out
    starts a zero vector; given, it is taken as is (not copied) and must have shape (P,).
    """

    def __init__(self, dims, n_classes: int, cfg: NeuronConfig, n_steps: int, params: Array | None = None):
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        self.dims, self.n_classes, self.cfg, self.n_steps = tuple(dims), n_classes, cfg, n_steps
        self.layout = param_layout(self.dims, n_classes, cfg.is_ctsn)
        size = self.layout["readout.b"][0].stop
        if params is None:  # np.empty and a fill: np.zeros cost wide-static 1.5-4% in training
            params = np.empty(size)
            params[...] = 0.0
        elif params.shape != (size,):
            raise ValueError(f"params has shape {params.shape}, the layout needs ({size},)")
        self.params = params
        view = lambda name: params[self.layout[name][0]].reshape(self.layout[name][1])
        self.layers = []
        for l in range(len(self.dims) - 1):
            omega = CTSNParams() if cfg.is_ctsn else None
            if omega is not None:
                omega.vector = view(f"layer{l}.omega")
            self.layers.append(Layer(view(f"layer{l}.w"), view(f"layer{l}.b"), omega))
        self.readout = Layer(view("readout.w"), view("readout.b"))
        self.omega_slices = [span for name, (span, _) in self.layout.items() if name.endswith(".omega")]

    @property
    def input_dim(self) -> int:
        return self.dims[0]


def build_network(
    dims,
    n_classes: int,
    cfg: NeuronConfig,
    n_steps: int,
    rng: np.random.Generator,
    init_scale: float = 1.0,
) -> Network:
    """Dense network with fan-in-scaled Gaussian weights and zero biases and omegas.

    ``dims`` lists the input dimension followed by each hidden width, e.g.
    (16, 32, 32) for two hidden spiking layers on 16 features.  The vector is
    allocated before any matrix is drawn, and each matrix is drawn into its view.
    """
    net = Network(dims, n_classes, cfg, n_steps)
    for layer in net.layers + [net.readout]:
        rng.standard_normal(out=layer.w)  # normal(0, s) is 0.0 + s * z: the same stream and values
        layer.w *= init_scale / math.sqrt(len(layer.w))
    return net


def smooth_spike(u_tilde: Array, v_th: float, a: float, out: Array | None = None) -> Array:
    """Continuous stand-in for the firing function.

    Identity inside the surrogate window (|u| < v_th + a), clamped outside;
    its derivative equals the rectangular surrogate almost everywhere.  With
    the default v_th = a = 0.5 the clamp levels coincide with the spike
    values +-1, so the stand-in matches real spikes at the window edges.
    ``np.clip``'s bits (NaN, signed zeros and infinities included) from one
    maximum and one minimum, without its Python wrappers; ``out`` may be
    ``u_tilde`` itself.
    """
    edge = v_th + a
    o = np.maximum(u_tilde, -edge, out=out)
    return np.minimum(o, edge, out=o)


@dataclass
class LayerTrace:
    """One spiking layer over the whole sequence; arrays are (T, B, D).

    ``u_tilde`` is the potential the neuron fired from, ``o`` the spikes
    (continuous under the smooth stand-in) and ``h`` the complemented unit's
    memory term, None for the plain ternary unit (whose potential is u~
    itself).  ``factors`` are the effective (alpha, beta, gamma) the blend
    used, computed once per pass (None for the plain unit).  The surrogate
    window and the complemented unit's decayed potential are not stored:
    ``Trace`` recomputes them from these.
    """

    u_tilde: Array
    o: Array
    h: Array | None = None
    factors: tuple[float, float, float] | None = None


@dataclass
class Trace:
    """Record of one forward pass: one ``LayerTrace`` per spiking layer.

    ``x`` is the network input, (T', B, D_in): T' = T, or T' = 1 when every
    timestep shares one array (direct encoding).  A pass of the stand-in
    holds a continuous ``o``; ``reset_keep``'s 1 - |o| serves both kinds of pass.
    """

    layers: list[LayerTrace]
    x: Array
    cfg: NeuronConfig

    def __post_init__(self) -> None:
        if not self.layers or len(self.layers[0].u_tilde) == 0:
            raise StateError("empty trace")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def n_steps(self) -> int:
        return len(self.layers[0].u_tilde)

    def layer_input(self, l: int) -> Array:
        """Spatial input of layer l: the network input or the spikes below."""
        return self.x if l == 0 else self.layers[l - 1].o

    def surrogate(self, l: int) -> Array:
        """Rectangular window H(u~) of layer l at every timestep."""
        return surrogate(self.layers[l].u_tilde, self.cfg.v_th, self.cfg.a)

    def decayed(self, l: int) -> Array:
        """u(t) of layer l: the potential itself for the ternary unit; for the
        complemented unit tau * u~(t-1) * (1 - |o(t-1)|), zero at the first step."""
        tr = self.layers[l]
        if tr.h is None:
            return tr.u_tilde
        u = np.zeros_like(tr.u_tilde)
        u[1:] = decay(tr.u_tilde[:-1], tr.o[:-1], self.cfg.tau)
        return u

    def potentials(self) -> list[Array]:
        """Captured post-integration potentials, one (T, B, D) stack per layer."""
        return [tr.u_tilde for tr in self.layers]

    @property
    def entries(self) -> list[list[SimpleNamespace]]:
        """Per-(layer, timestep) views under the per-step names, ``entries[layer][timestep]``:
        u, h (zero for the ternary unit), u_tilde, o, surrogate and layer_input."""
        rows = []
        for l, tr in enumerate(self.layers):
            u, H, x = self.decayed(l), self.surrogate(l), self.layer_input(l)
            h = np.zeros_like(tr.u_tilde) if tr.h is None else tr.h
            rows.append([
                SimpleNamespace(u=u[t], h=h[t], u_tilde=tr.u_tilde[t], o=tr.o[t], surrogate=H[t],
                                layer_input=x[min(t, len(x) - 1)])
                for t in range(self.n_steps)
            ])
        return rows


def _affine(x: Array, layer: Layer) -> Array:
    """x @ w + b over every (timestep, batch) row of x in one matrix product."""
    out = x.reshape(-1, x.shape[-1]) @ layer.w
    out += layer.b
    return out.reshape(x.shape[:-1] + out.shape[-1:])


def _run_layer(pre: Array, omega: CTSNParams | None, cfg: NeuronConfig, n_steps: int, smooth: bool) -> LayerTrace:
    """All timesteps of one spiking layer, fired by the stand-in when ``smooth``.

    ``pre`` is the input current, (T, B, D), or (1, B, D) when every timestep
    shares it.  A stacked ``pre`` is turned into u~ in place; each step's
    results are written straight into the trace arrays.  The layer allocates
    two (B, D) float64 scratches, which hold the decayed potential and the reset
    factor 1 - |o(t-1)|, and the fire's masks and int8 spikes once; every step is
    then a short run of ``out=`` calls of the ``neuron`` helpers on per-step views
    taken once.  (Staging the factor in o(t) instead, which the fire then
    overwrites, cost a wide 256 x 800 layer 10-18%: that row is not yet in cache.)
    """
    shape = (n_steps,) + pre.shape[-2:]
    stacked = len(pre) == n_steps
    u_tilde = pre if stacked else np.empty(shape)
    if not stacked:  # zero initial state: u~(1) = x(1)
        u_tilde[0] = pre[0]
    o = np.empty(shape)
    h = np.empty(shape) if cfg.is_ctsn else None
    factors = None
    tau, v_th, a = cfg.tau, cfg.v_th, cfg.a
    scratch, keep, masks = np.empty(shape[1:]), np.empty(shape[1:]), fire_scratch(shape[1:])
    mask = masks[0]  # also the blend's sign mask, which the fire rewrites last
    if cfg.is_ctsn:
        # looked up on the module, so a wrapper installed there sees the call
        factors = neuron_mod.effective_params(omega)
        rule = blend_rule(cfg.kind, factors)
        step_h = list(h)
        step_h[0][...] = 0.0  # zero initial state: h(1) = 0
    step_u, step_o = list(u_tilde), list(o)
    step_x = list(pre) if stacked else [pre[0]] * n_steps
    for t in range(n_steps):
        ut = step_u[t]
        if t > 0:
            decay(step_u[t - 1], step_o[t - 1], tau, out=scratch, keep=keep)
            if h is None:
                np.add(scratch, step_x[t], out=ut)
            else:
                blend(rule, step_h[t - 1], scratch, out=step_h[t], scratch=scratch, mask=mask)
                np.add(step_h[t], step_x[t], out=ut)
        if smooth:
            smooth_spike(ut, v_th, a, out=step_o[t])
        else:
            ternary_fire(ut, v_th, out=step_o[t], scratch=masks)
    return LayerTrace(u_tilde=u_tilde, o=o, h=h, factors=factors)


def forward(net: Network, input_seq, smooth: bool = False) -> tuple[Array, Trace]:
    """Run the input, returning the (T, B, C) per-timestep logits and the trace.

    ``input_seq`` is one (T', batch, input) array, or a sequence of T' (batch,
    input) arrays.  T' = T gives every timestep its own input; T' = 1 gives
    every timestep the same one (direct encoding), whose first-layer input
    current is then computed once.  A float64 array is used without a copy.
    State starts at zero and is private to this call.
    """
    try:
        x = np.asarray(input_seq, dtype=np.float64)
    except ValueError as exc:  # a ragged sequence
        raise DimensionError(f"input sequence is ragged: {exc}") from exc
    if x.ndim != 3:
        raise DimensionError(f"input shape {x.shape} is not (steps, batch, {net.input_dim})")
    if x.shape[2] != net.input_dim:
        raise DimensionError(f"input shape {x.shape[1:]} does not match input dim {net.input_dim}")
    if len(x) not in (1, net.n_steps):
        raise DimensionError(f"input sequence has {len(x)} steps, network expects {net.n_steps}")
    layers, cur = [], x
    for layer in net.layers:
        layers.append(_run_layer(_affine(cur, layer), layer.omega, net.cfg, net.n_steps, smooth))
        cur = layers[-1].o
    return _affine(cur, net.readout), Trace(layers, x, net.cfg)


def predict(logits) -> Array:
    """Class index per batch element: argmax of the time-averaged logits."""
    if len(logits) == 0:
        raise ValueError("need at least one timestep of logits")
    return np.argmax(np.asarray(logits, dtype=np.float64).mean(axis=0), axis=1)

