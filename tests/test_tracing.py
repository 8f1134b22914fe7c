"""The benchmark's lookups on the package, checked without running the benchmark.

``tsbench/tracing.py`` wraps names it looks up on the package modules (the
per-step functions among them) and reads ``Trace.entries`` rows.  A name the
package drops, or a row field it renames, fails here, not only in the
benchmark's self-test.  The tracer is imported from its file, unchanged.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ternspike import bptt, cli, gradcheck, loss, network, neuron, trainer
from ternspike.data import synth_static
from ternspike.neuron import NeuronConfig
from ternspike.numerics import component_rng

MODULES = dict(cli=cli, network=network, neuron=neuron, loss=loss, bptt=bptt, trainer=trainer,
               gradcheck=gradcheck)


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", Path(__file__).resolve().parent.parent / "tsbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_the_package_and_puts_every_name_back():
    tracing = _tracing()
    before = {name: dict(vars(mod)) for name, mod in MODULES.items()}
    tracer = tracing.Tracer()
    cfg = NeuronConfig(kind="ctsn_static")
    n_steps, batch, dims = 3, 5, [6, 7, 4]
    with tracing.instrument(tracer, SimpleNamespace(**MODULES)):
        assert network.forward is not before["network"]["forward"]
        net = network.build_network(dims, 3, cfg, n_steps, component_rng(1, 0), init_scale=2.0)
        seq = [component_rng(2, t).normal(size=(batch, dims[0])) for t in range(n_steps)]
        logits, cache = network.forward(net, seq)
        bptt.backward_exact(cache, np.ones_like(logits), net, "ctsn")
    for name, mod in MODULES.items():
        assert all(vars(mod)[attr] is value for attr, value in before[name].items()), name
    assert {s[tracing.NAME] for s in tracer.spans} == {
        "network.build_network", "network.forward", "neuron.effective_params", "bptt.backward_exact",
        "neuron.surrogate"}
    # the counts read the entries' o and surrogate rows, one (B, D) row per layer and step
    units = n_steps * batch * sum(dims[1:])
    assert tracer.counts[("setup", "spikes_total")] == units
    assert tracer.counts[("setup", "window_total")] == units
    for l, rows in enumerate(cache.entries):
        for t, e in enumerate(rows):
            assert e.u.shape == e.surrogate.shape == (batch, dims[l + 1])
            assert e.surrogate.tobytes() == cache.surrogate(l)[t].tobytes()


def test_the_regularizer_gradient_is_timed_inside_the_backward():
    # the backward forms one layer's injection as it reaches the layer, through the module
    # attribute, so the tracer's loss.tmpr_grad span covers that work once per hidden layer
    tracing = _tracing()
    tracer = tracing.Tracer()
    cfg = NeuronConfig(kind="ctsn_neuromorphic")
    n_steps, batch, dims = 3, 5, [6, 7, 8, 4]
    net = network.build_network(dims, 3, cfg, n_steps, component_rng(3, 0), init_scale=2.0)
    seq = [component_rng(4, t).normal(size=(batch, dims[0])) for t in range(n_steps)]
    labels = component_rng(5).integers(0, 3, size=batch)
    with tracing.instrument(tracer, SimpleNamespace(**MODULES)):
        bptt.loss_and_grads(net, seq, labels, loss.TMPRConfig(lam=0.05))
    names = [s[tracing.NAME] for s in tracer.spans]
    spans = [s for s in tracer.spans if s[tracing.NAME] == "loss.tmpr_grad"]
    assert len(spans) == len(dims) - 1
    assert {names[s[tracing.PARENT]] for s in spans} == {"bptt.backward_exact"}


def test_static_batches_are_counted_at_their_batch_size():
    # direct encoding hands forward one (1, B, D) input: the tracer reads B from its first
    # row and the input density from its values, as it did when every timestep held a copy
    tracing = _tracing()
    tracer = tracing.Tracer()
    data = synth_static(40, 6, 3, 2.0, component_rng(6))
    np.maximum(data.inputs, 0.0, out=data.inputs)  # about half the values zero
    cfg = trainer.TrainConfig(batch_size=20, epochs=1, n_steps=3, seed=7)
    net = network.build_network([6, 7], 3, NeuronConfig(kind="ctsn_static"), cfg.n_steps, component_rng(8))
    with tracing.instrument(tracer, SimpleNamespace(**MODULES)):
        trainer.train_epoch(net, data, cfg, 0, bptt.GradSet.zeros_like(net))
    assert tracer.counts[("train", "forward_flops")] == 2 * tracing.forward_flops(tracing.net_dims(net), 3, 20)
    density = tracer.counts[("train", "input_nonzero")] / tracer.counts[("train", "input_values")]
    assert 0.0 < density < 1.0
    assert density == np.count_nonzero(data.inputs) / data.inputs.size
