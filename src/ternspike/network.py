"""Feedforward spiking network: linear + neuron stacks with a linear readout.

The backbone is a multilayer perceptron: the flattened input feeds a chain
of (linear map, spiking neuron) blocks, and a final linear readout turns the
top layer's spikes into real-valued logits at every timestep.  Prediction
averages the logits over time and takes the argmax (ties resolve to the
lowest class index).

``forward`` runs the network layer by layer, each layer over all timesteps
at once (the network is feedforward, so a layer's whole spike train is known
before the next layer starts).  It records one ``LayerTrace`` per spiking
layer, arrays shaped (timesteps, batch, features), which is everything the
gradient engines need.  With ``smooth=True`` the firing nonlinearity is
swapped for its continuous piecewise-linear stand-in: the pass the
analytic gradient is checked on, and the one the gradcheck kink search
inspects.  The finite-difference oracle runs its own copy of this forward
(``bptt.finite_difference``).

A ``Network`` copies its arrays into one float64 vector, ``params``, that every
layer's ``w``, ``b`` and ``CTSNParams.vector`` then views; ``Network.layout`` states
the order once, and gradients, momentum, FD members and model files follow it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import neuron as neuron_mod
from .errors import DimensionError, StateError
from .neuron import (  # the step functions stay importable here for per-step callers and wrappers
    CTSNParams,
    NeuronConfig,
    ctsn_step,
    decay,
    g_neuromorphic,
    g_static,
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


@dataclass
class Network:
    """Spiking layers and a readout; ``layout`` maps each array's name to (slice of ``params``, shape)."""

    layers: list[Layer]
    readout: Layer
    cfg: NeuronConfig
    n_steps: int

    def __post_init__(self) -> None:
        dims = [layer.w.shape for layer in self.layers] + [self.readout.w.shape]
        for i in range(len(dims) - 1):
            if dims[i][1] != dims[i + 1][0]:
                raise DimensionError(
                    f"layer {i} output {dims[i]} does not chain into layer {i + 1} input {dims[i + 1]}"
                )
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        slots = []  # (name, owner, attribute) in layout order
        for l, layer in enumerate(self.layers):
            slots += [(f"layer{l}.w", layer, "w"), (f"layer{l}.b", layer, "b")]
            if layer.omega is not None:
                slots.append((f"layer{l}.omega", layer.omega, "vector"))
        slots += [("readout.w", self.readout, "w"), ("readout.b", self.readout, "b")]
        arrays = [getattr(owner, attr) for _, owner, attr in slots]
        self.params = np.empty(sum(a.size for a in arrays))
        self.layout, start = {}, 0
        for (name, owner, attr), a in zip(slots, arrays):
            span = slice(start, start + a.size)
            self.layout[name] = (span, a.shape)
            view = self.params[span].reshape(a.shape)
            view[...] = a
            setattr(owner, attr, view)
            start += a.size
        self.omega_slices = [span for name, (span, _) in self.layout.items() if name.endswith(".omega")]

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def n_classes(self) -> int:
        return self.readout.w.shape[1]

    def copy(self) -> "Network":
        """An independent network: new layers over a new parameter vector."""
        layers = [Layer(l.w, l.b, None if l.omega is None else CTSNParams(*l.omega.vector)) for l in self.layers]
        return Network(layers, Layer(self.readout.w, self.readout.b), replace(self.cfg), self.n_steps)


def build_network(
    dims,
    n_classes: int,
    cfg: NeuronConfig,
    n_steps: int,
    rng: np.random.Generator,
    init_scale: float = 1.0,
) -> Network:
    """Dense network with fan-in-scaled Gaussian weights and zero biases.

    ``dims`` lists the input dimension followed by each hidden width, e.g.
    (16, 32, 32) for two hidden spiking layers on 16 features.
    """
    dims = list(dims)
    if len(dims) < 2:
        raise ValueError("need at least an input and one hidden dimension")
    # weights start as memoryless zeros, so the new vector is allocated before any drawn matrix
    blank = lambda *shape: np.broadcast_to(0.0, shape)
    layers = [Layer(blank(*shape), np.zeros(shape[1]), CTSNParams() if cfg.is_ctsn else None)
              for shape in zip(dims[:-1], dims[1:])]
    net = Network(layers, Layer(blank(dims[-1], n_classes), np.zeros(n_classes)), cfg, n_steps)
    for layer in net.layers + [net.readout]:
        layer.w[...] = rng.normal(0.0, init_scale / np.sqrt(len(layer.w)), size=layer.w.shape)
    return net


def smooth_spike(u_tilde: Array, v_th: float, a: float, out: Array | None = None) -> Array:
    """Continuous stand-in for the firing function.

    Identity inside the surrogate window (|u| < v_th + a), clamped outside;
    its derivative equals the rectangular surrogate almost everywhere.  With
    the default v_th = a = 0.5 the clamp levels coincide with the spike
    values +-1, so the stand-in matches real spikes at the window edges.
    """
    edge = v_th + a
    return np.clip(u_tilde, -edge, edge, out=out)


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

    ``x`` is the network input, (B, D_in) when every timestep shares one
    array (direct encoding) and (T, B, D_in) otherwise.  ``smooth`` marks a
    pass of the stand-in, whose ``o`` is continuous, not ternary.
    """

    layers: list[LayerTrace]
    x: Array
    cfg: NeuronConfig
    smooth: bool = False

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
        u[1:] = decay(tr.u_tilde[:-1], tr.o[:-1], self.cfg.tau, self.smooth)
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
                                layer_input=x if x.ndim == 2 else x[t])
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

    ``pre`` is the input current, (T, B, D), or (B, D) when every timestep
    shares it.  A stacked ``pre`` is turned into u~ in place; each step's
    results are written straight into the trace arrays.
    """
    shape = (n_steps,) + pre.shape[-2:]
    stacked = pre.ndim == 3
    u_tilde = pre if stacked else np.empty(shape)
    o = np.empty(shape)
    h = np.empty(shape) if cfg.is_ctsn else None
    factors = None
    fire = ((lambda u, out: smooth_spike(u, cfg.v_th, cfg.a, out=out)) if smooth
            else (lambda u, out: ternary_fire(u, cfg.v_th, out=out)))
    if cfg.is_ctsn:
        # looked up on the module, so a wrapper installed there sees the call
        factors = alpha, beta, gamma = neuron_mod.effective_params(omega)
        blend = g_static if cfg.kind == "ctsn_static" else g_neuromorphic
    for t in range(n_steps):
        x = pre[t] if stacked else pre
        if t == 0:  # zero initial state: u~(1) = x(1)
            if h is not None:
                h[0] = 0.0
            if not stacked:
                u_tilde[0] = x
        elif h is not None:
            blend(h[t - 1], decay(u_tilde[t - 1], o[t - 1], cfg.tau, smooth), alpha, beta, gamma, out=h[t])
            np.add(h[t], x, out=u_tilde[t])
        elif cfg.reset == "soft":
            np.add(cfg.tau * (u_tilde[t - 1] - o[t - 1] * cfg.v_th), x, out=u_tilde[t])
        else:
            np.add(decay(u_tilde[t - 1], o[t - 1], cfg.tau, smooth), x, out=u_tilde[t])
        fire(u_tilde[t], o[t])
    return LayerTrace(u_tilde=u_tilde, o=o, h=h, factors=factors)


def forward(net: Network, input_seq, smooth: bool = False) -> tuple[Array, Trace]:
    """Run the sequence, returning the (T, B, C) per-timestep logits and the trace.

    ``input_seq`` is a sequence of length ``net.n_steps`` of (batch, input)
    arrays, or one (T, batch, input) array, which is used without a copy.
    When every element is the same array object (direct encoding) the first
    layer's input current is computed once for all timesteps.  State starts
    at zero and is private to this call.
    """
    if len(input_seq) != net.n_steps:
        raise DimensionError(f"input sequence has {len(input_seq)} steps, network expects {net.n_steps}")
    cfg = net.cfg
    first = np.asarray(input_seq[0], dtype=np.float64)
    if first.ndim != 2 or first.shape[1] != net.input_dim:
        raise DimensionError(f"input shape {first.shape} does not match input dim {net.input_dim}")
    if all(step is input_seq[0] for step in input_seq):
        x = first
    else:
        for t, step in enumerate(input_seq):
            if np.shape(step) != first.shape:
                raise DimensionError(f"step {t} input shape {np.shape(step)} differs from {first.shape}")
        x = np.asarray(input_seq, dtype=np.float64)  # a (T, B, D) float64 array passes through uncopied
    layers, cur = [], x
    for layer in net.layers:
        layers.append(_run_layer(_affine(cur, layer), layer.omega, cfg, net.n_steps, smooth))
        cur = layers[-1].o
    return _affine(cur, net.readout), Trace(layers, x, cfg, smooth)


def predict(logits) -> Array:
    """Class index per batch element: argmax of the time-averaged logits."""
    if len(logits) == 0:
        raise ValueError("need at least one timestep of logits")
    return np.argmax(np.asarray(logits, dtype=np.float64).mean(axis=0), axis=1)


def capture_histograms(
    cache: Trace, layer: int, bins: int, value_range: tuple[float, float]
) -> tuple[Array, Array]:
    """Per-timestep histogram of one layer's captured potentials.

    Returns (counts, edges) with counts shaped (timesteps, bins).  Values are
    clipped into the range first so every sample lands in some bin and the
    per-timestep mass equals batch * features.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if not 0 <= layer < cache.n_layers:
        raise StateError(f"layer {layer} out of range for {cache.n_layers}-layer cache")
    lo, hi = value_range
    edges = np.linspace(lo, hi, bins + 1)
    counts = np.zeros((cache.n_steps, bins), dtype=np.int64)
    for t in range(cache.n_steps):
        vals = np.clip(cache.layers[layer].u_tilde[t].ravel(), lo, hi)
        counts[t], _ = np.histogram(vals, bins=edges)
    return counts, edges


def write_histograms_csv(path, per_layer_counts: dict[int, Array], edges: Array, v_th: float) -> None:
    """Histogram export: one CSV row per (layer, timestep, bin).

    Header ``layer,timestep,bin_left,bin_right,count``; a sidecar ``.meta``
    file records the threshold (so plots can mark +-v_th), bin count, and
    range.  Timesteps are written 1-based.
    """
    bins = len(edges) - 1
    lines = ["layer,timestep,bin_left,bin_right,count"]
    for layer in sorted(per_layer_counts):
        counts = per_layer_counts[layer]
        for t in range(counts.shape[0]):
            for b in range(bins):
                lines.append(
                    f"{layer},{t + 1},{float(edges[b])!r},{float(edges[b + 1])!r},{counts[t, b]}"
                )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(str(path) + ".meta", "w") as f:
        f.write(f"v_th={float(v_th)!r}\n")
        f.write(f"thresholds={float(-v_th)!r},{float(v_th)!r}\n")
        f.write(f"bins={bins}\n")
        f.write(f"range={float(edges[0])!r},{float(edges[-1])!r}\n")
