import struct
import tracemalloc

import numpy as np
import pytest

from ternspike import bptt, data as data_mod, network as net_mod, trainer
from ternspike.errors import FormatError, NumericError
from ternspike.loss import TMPRConfig
from ternspike.neuron import NeuronConfig, effective_params
from ternspike.numerics import component_rng
from ternspike.trainer import (
    TrainConfig,
    cosine_lr,
    evaluate,
    fit,
    load_model,
    save_model,
    sgd_step,
    train_epoch,
)


def _toy_data(seed=0, n=96, dims=6, classes=3, margin=4.0):
    rng = component_rng(seed, 10)
    ds = data_mod.synth_static(n, dims, classes, margin, rng)
    mean, std = data_mod.dataset_stats(ds)
    return data_mod.normalize(ds, mean, std)


def _toy_net(kind="ternary", seed=0, dims=(6, 10), classes=3, n_steps=3):
    return net_mod.build_network(dims, classes, NeuronConfig(kind=kind), n_steps, component_rng(seed, 0))


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 300, 0.1) == pytest.approx(0.1)
        assert cosine_lr(300, 300, 0.1) == pytest.approx(0.0, abs=1e-17)
        assert cosine_lr(150, 300, 0.1) == pytest.approx(0.05)

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(31, 30, 0.1)


class TestSgdStep:
    def test_plain_gradient_descent(self):
        net = _toy_net()
        vel = bptt.GradSet.zeros_like(net)
        grads = bptt.GradSet.zeros_like(net)
        grads.dw[0][:] = 1.0
        before = net.layers[0].w.copy()
        sgd_step(net, grads, vel, lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(net.layers[0].w, before - 0.1, atol=1e-15)

    def test_decay_only_step(self):
        net = _toy_net()
        vel = bptt.GradSet.zeros_like(net)
        grads = bptt.GradSet.zeros_like(net)
        before = net.layers[0].w.copy()
        sgd_step(net, grads, vel, lr=0.1, momentum=0.9, weight_decay=0.01)
        np.testing.assert_allclose(net.layers[0].w, before - 0.1 * 0.01 * before, atol=1e-15)

    def test_momentum_doubles_in_two_steps(self):
        # constant gradient g: step 1 moves lr*g, step 2 moves lr*1.9*g
        net = _toy_net()
        vel = bptt.GradSet.zeros_like(net)
        grads = bptt.GradSet.zeros_like(net)
        grads.dw[0][:] = 2.0
        w0 = net.layers[0].w.copy()
        sgd_step(net, grads, vel, lr=0.1, momentum=0.9, weight_decay=0.0)
        first_move = w0 - net.layers[0].w
        w1 = net.layers[0].w.copy()
        grads2 = bptt.GradSet.zeros_like(net)
        grads2.dw[0][:] = 2.0
        sgd_step(net, grads2, vel, lr=0.1, momentum=0.9, weight_decay=0.0)
        second_move = w1 - net.layers[0].w
        np.testing.assert_allclose(second_move, 1.9 * first_move, atol=1e-14)

    def test_omega_excluded_from_weight_decay(self):
        net = _toy_net(kind="ctsn_static")
        net.layers[0].omega.set_vector([1.0, -2.0, 0.5])
        vel = bptt.GradSet.zeros_like(net)
        grads = bptt.GradSet.zeros_like(net)
        sgd_step(net, grads, vel, lr=0.5, momentum=0.0, weight_decay=0.1)
        np.testing.assert_array_equal(net.layers[0].omega.vector, [1.0, -2.0, 0.5])

    def test_nonfinite_gradient_names_layer(self):
        net = _toy_net()
        vel = bptt.GradSet.zeros_like(net)
        grads = bptt.GradSet.zeros_like(net)
        grads.db[0][0] = np.inf
        with pytest.raises(NumericError, match="layer0.b"):
            sgd_step(net, grads, vel, lr=0.1, momentum=0.9, weight_decay=0.0)

    def test_nonfinite_gradient_leaves_model_untouched(self):
        # the offender comes last in update order; nothing may move before the raise
        net = _toy_net(kind="ctsn_static")
        vel = bptt.GradSet.zeros_like(net)
        grads = bptt.GradSet.zeros_like(net)
        grads.dw[0][:] = 1.0
        grads.db_out[0] = np.inf
        before = net.copy()
        with pytest.raises(NumericError, match="readout.b"):
            sgd_step(net, grads, vel, lr=0.1, momentum=0.9, weight_decay=0.1)
        for now, then in zip(net.layers + [net.readout], before.layers + [before.readout]):
            np.testing.assert_array_equal(now.w, then.w)
            np.testing.assert_array_equal(now.b, then.b)
        for now, then in zip(net.layers, before.layers):
            np.testing.assert_array_equal(now.omega.vector, then.omega.vector)
        for _, buf in vel.named():
            assert not np.any(buf)

    def test_five_steps_match_literal_reference(self, tmp_path):
        # v = m*v + (g + wd*p); p -= lr*v, one parameter at a time; omega gets no decay
        lr, m, wd = 0.05, 0.9, 1e-3
        net = _toy_net(kind="ctsn_static", dims=(6, 10, 5))
        ref = net.copy()
        vel = bptt.GradSet.zeros_like(net)
        ref_vel = {}
        rng = component_rng(17)
        for _ in range(5):
            grads = bptt.GradSet.zeros_like(net)
            for _, g in grads.named():
                g[...] = rng.normal(size=g.shape)
            sgd_step(net, grads, vel, lr, m, wd)
            params = {}
            for l, layer in enumerate(ref.layers):
                params[f"layer{l}.w"], params[f"layer{l}.b"] = layer.w, layer.b
                params[f"layer{l}.omega"] = layer.omega.vector
            params["readout.w"], params["readout.b"] = ref.readout.w, ref.readout.b
            for name, g in grads.named():
                p = params[name]
                v = ref_vel.get(name, np.zeros_like(g))
                if name.endswith(".omega"):
                    v = m * v + g
                else:
                    v = m * v + (g + wd * p)
                p -= lr * v
                ref_vel[name] = v
        save_model(tmp_path / "step.bin", net)
        save_model(tmp_path / "ref.bin", ref)
        assert (tmp_path / "step.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()
        for name, v in vel.named():
            assert v.tobytes() == ref_vel[name].tobytes(), name


class TestTrainEpoch:
    def test_single_step_descends_on_fixed_batch(self):
        # momentum 0, tiny lr: one full-batch update must reduce total loss
        data = _toy_data()
        net = _toy_net()
        cfg = TrainConfig(
            lr0=1e-3, momentum=0.0, weight_decay=0.0, batch_size=len(data.labels),
            epochs=10_000, seed=0, n_steps=3, tmpr=TMPRConfig(lam=0.05),
        )

        def total(n):
            xs, labels = data_mod.encode_batch(data, np.arange(len(data.labels)), 3)
            ce, tm, _, _ = bptt.loss_and_grads(n, xs, labels, cfg.tmpr)
            return ce + tm

        before = total(net)
        train_epoch(net, data, cfg, epoch=0, vel=bptt.GradSet.zeros_like(net))
        assert total(net) < before

    def test_metrics_report_both_loss_components(self):
        data = _toy_data()
        net = _toy_net(kind="ctsn_static")
        cfg = TrainConfig(epochs=3, seed=0, n_steps=3, batch_size=32, tmpr=TMPRConfig(lam=0.05))
        metrics = train_epoch(net, data, cfg, epoch=0, vel=bptt.GradSet.zeros_like(net))
        assert set(metrics) >= {"lr", "ce_loss", "tmpr_loss", "train_acc"}
        assert metrics["tmpr_loss"] > 0.0

    def test_lambda_zero_matches_disabled_bitwise(self):
        data = _toy_data()
        results = []
        for tmpr in (TMPRConfig(lam=0.0, enabled=True), TMPRConfig(lam=0.05, enabled=False)):
            net = _toy_net(kind="ctsn_static", seed=4)
            cfg = TrainConfig(epochs=3, seed=4, n_steps=3, batch_size=32, tmpr=tmpr)
            vel = bptt.GradSet.zeros_like(net)
            for epoch in range(3):
                train_epoch(net, data, cfg, epoch, vel)
            results.append([l.w.copy() for l in net.layers] + [net.readout.w.copy()])
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)

    def test_effective_params_stay_constrained(self):
        data = _toy_data()
        net = _toy_net(kind="ctsn_static")
        cfg = TrainConfig(epochs=5, seed=0, n_steps=3, batch_size=32, tmpr=TMPRConfig(lam=0.05))
        vel = bptt.GradSet.zeros_like(net)
        for epoch in range(cfg.epochs):
            train_epoch(net, data, cfg, epoch, vel)
            for layer in net.layers:
                for val in effective_params(layer.omega):
                    assert 0.0 < val < 1.0


class TestEvaluate:
    def test_perfect_logits(self):
        data = _toy_data(margin=12.0)
        # nearest-centroid weights classify wide-margin blobs perfectly
        net = _toy_net(dims=(6, 12), classes=3)
        acc = evaluate(net, data)
        assert 0.0 <= acc <= 1.0

    def test_constant_logits_choose_one_class(self):
        data = _toy_data(classes=2, n=64)
        net = _toy_net(dims=(6, 4), classes=2)
        for layer in net.layers + [net.readout]:
            layer.w[:] = 0.0
            layer.b[:] = 0.0
        acc = evaluate(net, data)
        # argmax ties at class 0; round-robin labels put half the samples there
        assert acc == pytest.approx(0.5)

    def test_deterministic(self):
        data = _toy_data()
        net = _toy_net(seed=8)
        assert evaluate(net, data) == evaluate(net, data)

    def test_evaluate_holds_one_trace_at_a_time(self):
        # three batches of 256; the previous batch's trace must be gone before the next forward
        rng = component_rng(23)
        data = data_mod.synth_event_frames(768, 64, 4, 0.05, rng, classes=10)
        net = net_mod.build_network((64, 256, 256), 10, NeuronConfig(kind="ctsn_neuromorphic"), 4, rng)
        tracemalloc.start()
        try:
            xs_seq, _ = data_mod.encode_batch(data, np.arange(256), 4)
            net_mod.forward(net, xs_seq)
            one_forward = tracemalloc.get_traced_memory()[1]
            del xs_seq
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            evaluate(net, data)
            whole_pass = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert whole_pass <= 1.2 * one_forward


class TestFitAndPersistence:
    def test_metrics_csv_format(self, tmp_path):
        data = _toy_data()
        net = _toy_net()
        cfg = TrainConfig(epochs=2, seed=0, n_steps=3, batch_size=32)
        path = tmp_path / "metrics.csv"
        fit(net, data, data, cfg, metrics_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,ce_loss,tmpr_loss,train_acc,eval_acc"
        assert len(lines) == 3
        assert lines[1].startswith("0,")

    def test_fit_is_bit_deterministic(self, tmp_path):
        data = _toy_data()
        outs = []
        for run in range(2):
            net = _toy_net(seed=2)
            cfg = TrainConfig(epochs=3, seed=2, n_steps=3, batch_size=32)
            path = tmp_path / f"metrics_{run}.csv"
            fit(net, data, data, cfg, metrics_path=path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind", ["ternary", "ctsn_static"])
    def test_model_round_trip(self, tmp_path, kind):
        net = _toy_net(kind=kind, seed=3)
        if kind == "ctsn_static":
            net.layers[0].omega.set_vector([0.1, -0.2, 0.3])
        path = tmp_path / "model.bin"
        save_model(path, net)
        loaded = load_model(path, NeuronConfig(kind=kind), n_steps=3)
        for a, b in zip(net.layers, loaded.layers):
            np.testing.assert_array_equal(a.w, b.w)
            np.testing.assert_array_equal(a.b, b.b)
            if kind == "ctsn_static":
                np.testing.assert_array_equal(a.omega.vector, b.omega.vector)
        np.testing.assert_array_equal(net.readout.w, loaded.readout.w)
        data = _toy_data()
        assert evaluate(net, data) == evaluate(loaded, data)

    def test_model_kind_mismatch_rejected(self, tmp_path):
        net = _toy_net(kind="ternary")
        path = tmp_path / "model.bin"
        save_model(path, net)
        with pytest.raises(FormatError):
            load_model(path, NeuronConfig(kind="ctsn_static"), n_steps=3)

    def test_model_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_model(path, NeuronConfig(), n_steps=3)

    def test_model_truncation_rejected(self, tmp_path):
        net = _toy_net()
        path = tmp_path / "model.bin"
        save_model(path, net)
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])
        with pytest.raises(FormatError):
            load_model(path, NeuronConfig(), n_steps=3)

    # a saved toy net: 20 header bytes, w0 (6, 10) from offset 20, b0 (10,),
    # then from offset 600 the readout w (10, 3), or omega (3,) for ctsn_static
    @pytest.mark.parametrize(
        "kind,mutate,match",
        [
            ("ternary", lambda b: b + b"\x00", "1 trailing bytes at offset 884"),
            # the readout w recorded as (5, 6): same payload size
            ("ternary", lambda b: b[:604] + struct.pack("<II", 5, 6) + b[612:], "layer 1 .* at offset 600 do not chain"),
            ("ctsn_static", lambda b: b[:604] + struct.pack("<I", 2) + b[608:624] + b[632:],
             r"omega array at offset 600 has shape \(2,\)"),
            ("ternary", lambda b: b[:20] + struct.pack("<4I", 3, 6, 10, 1) + b[32:], "offset 20 has 3 dimensions"),
            # 8 * (2**32 - 1)**2 bytes: more than an int64 element count holds
            ("ternary", lambda b: b[:24] + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + b[32:], "truncated at offset"),
        ],
        ids=["trailing-bytes", "widths-do-not-chain", "omega-length", "ndim", "element-count"],
    )
    def test_model_corruption_rejected_naming_offset(self, tmp_path, kind, mutate, match):
        path = tmp_path / "model.bin"
        save_model(path, _toy_net(kind=kind))
        path.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(FormatError, match=match):
            load_model(path, NeuronConfig(kind=kind), n_steps=3)
