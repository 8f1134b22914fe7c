import numpy as np
import pytest

from ternspike import bptt
from ternspike.errors import DimensionError, StateError
from ternspike.loss import TMPRConfig
from ternspike.network import (
    Layer,
    Network,
    Trace,
    build_network,
    capture_histograms,
    forward,
    predict,
    write_histograms_csv,
)
from ternspike.neuron import (
    CTSNParams,
    NeuronConfig,
    NeuronState,
    ctsn_step,
    effective_params,
    surrogate,
    ternary_step,
    ternary_step_soft,
)
from ternspike.numerics import component_rng, seeded_rng


def _net(kind="ternary", dims=(4, 6), n_classes=3, n_steps=3, seed=0, init_scale=1.0):
    return build_network(dims, n_classes, NeuronConfig(kind=kind), n_steps, seeded_rng(seed), init_scale)


class TestForward:
    def test_zero_input_gives_zero_logits(self):
        net = _net()
        seq = [np.zeros((2, 4))] * 3
        logits, cache = forward(net, seq)
        for o in logits:
            np.testing.assert_array_equal(o, 0.0)
        assert cache.n_layers == 1 and cache.n_steps == 3

    def test_cache_completeness(self):
        net = _net(dims=(4, 6, 5), n_steps=4)
        seq = [seeded_rng(1).normal(size=(2, 4)) for _ in range(4)]
        _, cache = forward(net, seq)
        assert cache.n_layers == 2 and cache.n_steps == 4
        for tr, width in zip(cache.layers, (6, 5)):
            assert tr.u_tilde.shape == tr.o.shape == (4, 2, width)

    def test_t1_ternary_equals_t1_ctsn(self):
        # with zero initial state the first step of both neuron kinds is
        # u~(1) = x(1), so identical weights give identical logits
        tern = _net(kind="ternary", n_steps=1, seed=5)
        comp = _net(kind="ctsn_static", n_steps=1, seed=5)
        for a, b in zip(tern.layers, comp.layers):
            np.testing.assert_array_equal(a.w, b.w)
        x = [seeded_rng(6).normal(size=(3, 4))]
        la, _ = forward(tern, x)
        lb, _ = forward(comp, x)
        np.testing.assert_array_equal(la[0], lb[0])

    def test_identity_layer_suprathreshold_spikes_everywhere(self):
        cfg = NeuronConfig()
        net = Network(
            layers=[Layer(w=np.eye(3), b=np.zeros(3))],
            readout=Layer(w=np.eye(3), b=np.zeros(3)),
            cfg=cfg,
            n_steps=1,
        )
        _, cache = forward(net, [np.full((2, 3), 0.9)])
        np.testing.assert_array_equal(cache.entries[0][0].o, 1.0)

    def test_sequence_length_mismatch(self):
        net = _net(n_steps=3)
        with pytest.raises(DimensionError):
            forward(net, [np.zeros((1, 4))] * 2)

    def test_input_width_mismatch(self):
        net = _net()
        with pytest.raises(DimensionError):
            forward(net, [np.zeros((1, 5))] * 3)

    def test_stacked_array_is_taken_without_a_copy(self):
        net = _ctsn_net("ctsn_neuromorphic")
        stack = seeded_rng(2).normal(size=(4, 3, 5))
        logits, cache = forward(net, stack)
        assert cache.x is stack
        listed, _ = forward(net, list(stack))
        assert logits.tobytes() == listed.tobytes()

    def test_stacked_array_mismatches_keep_their_messages(self):
        net = _net(n_steps=3)
        with pytest.raises(DimensionError, match=r"^input sequence has 2 steps, network expects 3$"):
            forward(net, np.zeros((2, 1, 4)))
        with pytest.raises(DimensionError, match=r"^input shape \(1, 5\) does not match input dim 4$"):
            forward(net, np.zeros((3, 1, 5)))

    def test_determinism(self):
        net = _net(dims=(4, 8, 8), n_steps=4, seed=9)
        seq = [component_rng(9, 1).normal(size=(5, 4)) for _ in range(4)]
        a, _ = forward(net, seq)
        b, _ = forward(net, seq)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def _ctsn_net(kind, n_steps=4, seed=7):
    net = _net(kind=kind, dims=(5, 6, 4), n_steps=n_steps, seed=seed, init_scale=2.0)
    rng = seeded_rng(seed + 1)
    for layer in net.layers:
        if layer.omega is not None:
            layer.omega.set_vector(rng.normal(0.0, 0.7, size=3))
    return net


CONFIGS = [("ternary", "hard"), ("ternary", "soft"), ("ctsn_static", "hard"), ("ctsn_neuromorphic", "hard")]


class TestTrace:
    @pytest.mark.parametrize("kind,reset", CONFIGS)
    def test_matches_per_step_reference(self, kind, reset):
        # the layer-by-layer trace is bit-identical to stepping the neuron functions
        net = _ctsn_net(kind)
        net.cfg = NeuronConfig(kind=kind, reset=reset)
        seq = [seeded_rng(20 + t).normal(size=(3, 5)) for t in range(4)]
        _, cache = forward(net, seq)
        cur = seq
        for l, layer in enumerate(net.layers):
            state = NeuronState.zeros((3, layer.w.shape[1]))
            outs = []
            for t in range(4):
                x = cur[t] @ layer.w + layer.b
                if net.cfg.is_ctsn:
                    o, state = ctsn_step(state, x, layer.omega, net.cfg)
                elif reset == "soft":
                    o, state = ternary_step_soft(state, x, net.cfg)
                else:
                    o, state = ternary_step(state, x, net.cfg)
                e = cache.entries[l][t]
                for name, want in (("u", state.u), ("h", state.h), ("u_tilde", state.u_tilde), ("o", o)):
                    assert getattr(e, name).tobytes() == want.tobytes(), (l, t, name)
                assert e.surrogate.tobytes() == surrogate(state.u_tilde, net.cfg.v_th, net.cfg.a).tobytes()
                assert e.layer_input.tobytes() == cur[t].tobytes()
                outs.append(o)
            cur = outs

    def test_ternary_trace_allocates_no_memory_term(self):
        _, cache = forward(_net(dims=(4, 6, 5), n_steps=3), [seeded_rng(1).normal(size=(2, 4))] * 3)
        assert all(tr.h is None for tr in cache.layers)
        _, cache = forward(_ctsn_net("ctsn_static"), [seeded_rng(1).normal(size=(2, 5))] * 4)
        assert all(tr.h.shape == tr.u_tilde.shape for tr in cache.layers)

    def test_trace_keeps_effective_factors(self):
        _, cache = forward(_net(dims=(4, 6, 5), n_steps=3), [seeded_rng(1).normal(size=(2, 4))] * 3)
        assert all(tr.factors is None for tr in cache.layers)
        net = _ctsn_net("ctsn_neuromorphic")
        _, cache = forward(net, [seeded_rng(1).normal(size=(2, 5))] * 4)
        for tr, layer in zip(cache.layers, net.layers):
            assert tr.factors == effective_params(layer.omega)

    @pytest.mark.parametrize("kind", ["ternary", "ctsn_static", "ctsn_neuromorphic"])
    def test_shared_input_matches_distinct_copies(self, kind):
        # direct encoding hands forward one array T times; copies take the stacked path
        net = _ctsn_net(kind)
        x = seeded_rng(3).normal(size=(6, 5))
        labels = seeded_rng(4).integers(0, 3, size=6)
        tmpr = TMPRConfig(lam=0.05)
        shared = bptt.loss_and_grads(net, [x] * 4, labels, tmpr)
        copies = bptt.loss_and_grads(net, [x.copy() for _ in range(4)], labels, tmpr)
        assert shared[0] == copies[0] and shared[1] == copies[1]
        for a, b in zip(shared[2], copies[2]):
            assert a.tobytes() == b.tobytes()
        err, where = bptt.max_relative_error(shared[3], copies[3])
        assert err <= 1e-12, where


class TestPredict:
    def test_argmax(self):
        assert predict([np.array([[1.0, 2.0]])])[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        logits = [np.array([[3.0, 0.0]]), np.array([[0.0, 3.0]])]
        assert predict(logits)[0] == 0

    def test_positive_scaling_invariance(self):
        rng = seeded_rng(2)
        logits = [rng.normal(size=(6, 4)) for _ in range(3)]
        base = predict(logits)
        scaled = predict([5.0 * o for o in logits])
        np.testing.assert_array_equal(base, scaled)


class TestBuildNetwork:
    def test_layer_chaining_enforced(self):
        with pytest.raises(DimensionError):
            Network(
                layers=[Layer(w=np.zeros((4, 6)), b=np.zeros(6))],
                readout=Layer(w=np.zeros((5, 3)), b=np.zeros(3)),
                cfg=NeuronConfig(),
                n_steps=1,
            )

    def test_omega_only_on_complemented_kinds(self):
        assert _net(kind="ternary").layers[0].omega is None
        assert isinstance(_net(kind="ctsn_static").layers[0].omega, CTSNParams)

    def test_same_seed_same_weights(self):
        a, b = _net(seed=3), _net(seed=3)
        np.testing.assert_array_equal(a.layers[0].w, b.layers[0].w)
        np.testing.assert_array_equal(a.readout.w, b.readout.w)


class TestHistograms:
    def test_zero_potentials_all_mass_in_middle_bin(self):
        net = _net(n_steps=2)
        _, cache = forward(net, [np.zeros((4, 4))] * 2)
        counts, edges = capture_histograms(cache, 0, bins=3, value_range=(-1.0, 1.0))
        assert counts.shape == (2, 3)
        np.testing.assert_array_equal(counts[:, 1], 4 * 6)
        np.testing.assert_array_equal(counts[:, 0], 0)

    def test_mass_conservation_with_out_of_range_values(self):
        net = _net(n_steps=3, init_scale=5.0)
        batch = 7
        seq = [seeded_rng(4).normal(size=(batch, 4)) * 10 for _ in range(3)]
        _, cache = forward(net, seq)
        counts, _ = capture_histograms(cache, 0, bins=81, value_range=(-2.0, 2.0))
        np.testing.assert_array_equal(counts.sum(axis=1), batch * 6)

    def test_empty_cache_rejected(self):
        # an empty trace cannot be built, so it never reaches the histogram
        with pytest.raises(StateError):
            capture_histograms(Trace(layers=[], x=np.zeros((1, 4)), cfg=NeuronConfig()), 0, 3, (-1.0, 1.0))

    def test_bad_layer_rejected(self):
        net = _net(n_steps=1)
        _, cache = forward(net, [np.zeros((1, 4))])
        with pytest.raises(StateError):
            capture_histograms(cache, 5, 3, (-1.0, 1.0))

    def test_csv_format_and_metadata(self, tmp_path):
        net = _net(n_steps=2)
        _, cache = forward(net, [seeded_rng(5).normal(size=(3, 4)) for _ in range(2)])
        counts, edges = capture_histograms(cache, 0, bins=4, value_range=(-2.0, 2.0))
        path = tmp_path / "hist.csv"
        write_histograms_csv(path, {0: counts}, edges, v_th=0.5)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "layer,timestep,bin_left,bin_right,count"
        assert len(lines) == 1 + 2 * 4  # header + timesteps * bins
        meta = (tmp_path / "hist.csv.meta").read_text()
        assert "v_th=0.5" in meta
        assert "thresholds=-0.5,0.5" in meta
        assert "bins=4" in meta
