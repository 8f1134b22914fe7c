import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from ternspike import bptt, data as data_mod, network as net_mod, trainer
from ternspike.errors import FormatError, LengthError, NumericError
from ternspike.loss import TMPRConfig
from ternspike.neuron import NeuronConfig, effective_params
from ternspike.numerics import component_rng
from ternspike.trainer import (
    TrainConfig,
    cosine_lr,
    evaluate,
    fit,
    load_model,
    parse_model,
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
        grads["layer0.w"][:] = 1.0
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
        grads["layer0.w"][:] = 2.0
        w0 = net.layers[0].w.copy()
        sgd_step(net, grads, vel, lr=0.1, momentum=0.9, weight_decay=0.0)
        first_move = w0 - net.layers[0].w
        w1 = net.layers[0].w.copy()
        grads2 = bptt.GradSet.zeros_like(net)
        grads2["layer0.w"][:] = 2.0
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
        grads["layer0.b"][0] = np.inf
        with pytest.raises(NumericError, match="layer0.b"):
            sgd_step(net, grads, vel, lr=0.1, momentum=0.9, weight_decay=0.0)

    def test_nonfinite_gradient_leaves_model_untouched(self):
        # the offender comes last in update order; nothing may move before the raise
        net = _toy_net(kind="ctsn_static")
        vel = bptt.GradSet.zeros_like(net)
        grads = bptt.GradSet.zeros_like(net)
        grads["layer0.w"][:] = 1.0
        grads["readout.b"][0] = np.inf
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_update_names_the_parameter(self):
        net = _toy_net()
        grads = bptt.GradSet.zeros_like(net)
        grads["readout.w"][0, 0] = 1e300
        with pytest.raises(NumericError, match="non-finite parameter in readout.w$"):
            sgd_step(net, grads, bptt.GradSet.zeros_like(net), lr=1e300, momentum=0.9, weight_decay=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_loss_names_its_batch(self):
        # potentials of 1e160 square past the float64 range: the TMPR loss is
        # infinite while the gradients and the updated parameters stay finite
        net, data = _toy_net(), _toy_data()
        net.layers[0].b[:] = 1e160
        cfg = TrainConfig(batch_size=32, epochs=1, n_steps=3, tmpr=TMPRConfig(lam=0.05))
        with pytest.raises(NumericError, match=r"^batch starting at sample 0: non-finite loss: ce .+, tmpr inf$"):
            train_epoch(net, data, cfg, 0, bptt.GradSet.zeros_like(net))

    def test_five_steps_match_literal_reference(self, tmp_path):
        self._five_steps_against_reference(tmp_path)

    @pytest.mark.parametrize("block", [7, 4])
    def test_small_blocks_match_literal_reference(self, tmp_path, monkeypatch, block):
        # blocks of 4 split the first omega triple (entries 70-72) across two blocks
        monkeypatch.setattr(trainer, "_SGD_BLOCK", block)
        self._five_steps_against_reference(tmp_path)

    @staticmethod
    def _five_steps_against_reference(tmp_path):
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


def _own_arrays(net):
    """The arrays the network's layers hold, keyed in layout order."""
    out = {}
    for l, layer in enumerate(net.layers):
        out[f"layer{l}.w"], out[f"layer{l}.b"] = layer.w, layer.b
        if layer.omega is not None:
            out[f"layer{l}.omega"] = layer.omega.vector
    out["readout.w"], out["readout.b"] = net.readout.w, net.readout.b
    return out


class TestFlatStorage:
    @pytest.fixture(params=["build_network", "load_model", "copy"])
    def made(self, request, tmp_path):
        """(kind, net) for each kind and each way a network is made."""
        def make(kind):
            net = _toy_net(kind=kind, dims=(5, 4, 3), seed=61)
            if request.param == "copy":
                return net.copy()
            if request.param == "load_model":
                save_model(tmp_path / "model.bin", net)
                return load_model(tmp_path / "model.bin", net.cfg, net.n_steps)
            return net
        return make

    @pytest.mark.parametrize("kind", ["ternary", "ctsn_static"])
    def test_every_array_is_a_view_of_params(self, made, kind):
        net = made(kind)
        arrays = _own_arrays(net)
        assert list(arrays) == list(net.layout)
        assert net.params.size == sum(a.size for a in arrays.values())
        for i, (name, arr) in enumerate(arrays.items()):
            span, shape = net.layout[name]
            assert arr.shape == shape and np.shares_memory(arr, net.params), name
            arr.flat[-1] = 100.0 + i  # a write to the array shows in the vector ...
            assert net.params[span.stop - 1] == 100.0 + i, name
            net.params[span.start] = -100.0 - i  # ... and a write to the vector in the array
            assert arr.flat[0] == -100.0 - i, name

    @pytest.mark.parametrize("kind", ["ternary", "ctsn_static"])
    def test_copy_owns_its_vector_and_steps_alone(self, made, kind):
        net = made(kind)
        before = net.params.copy()
        clone = net.copy()
        assert not np.shares_memory(clone.params, net.params)
        for name, arr in _own_arrays(clone).items():
            assert np.shares_memory(arr, clone.params), name
            assert not np.shares_memory(arr, net.params), name
        grads = bptt.GradSet.zeros_like(clone)
        grads.vector[:] = 1.0
        sgd_step(clone, grads, bptt.GradSet.zeros_like(clone), lr=0.1, momentum=0.9, weight_decay=1e-3)
        assert net.params.tobytes() == before.tobytes()
        assert not np.array_equal(clone.params, before)
        np.testing.assert_array_equal(clone.layers[0].w, clone.params[clone.layout["layer0.w"][0]].reshape(5, 4))


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
    # then from offset 600 the readout w (10, 3), or omega (3,) for ctsn_static;
    # each corruption is resealed with a fresh checksum, so the structural check fires
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
        body = mutate(path.read_bytes()[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match=match):
            load_model(path, NeuronConfig(kind=kind), n_steps=3)

    def test_checksum_mismatch_names_its_offset(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, _toy_net())
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0x01  # one payload bit: a silently different weight without the checksum
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"checksum mismatch at offset {len(blob) - 4}"):
            load_model(path, NeuronConfig(), n_steps=3)

    def test_every_bit_flip_and_truncation_rejected(self, tmp_path):
        """Desk ctsn widths (16-12-12-4): no single-bit flip and no truncation loads."""
        cfg = NeuronConfig(kind="ctsn_static")
        path = tmp_path / "model.bin"
        save_model(path, net_mod.build_network((16, 12, 12), 4, cfg, 4, component_rng(5)))
        blob = path.read_bytes()

        def variants():
            for n in range(len(blob)):
                yield blob[:n]
            for bit in range(8 * len(blob)):
                flipped = bytearray(blob)
                flipped[bit // 8] ^= 1 << (bit % 8)
                yield bytes(flipped)

        tried, loaded = 0, []
        for variant in variants():
            tried += 1
            try:
                parse_model(variant, cfg, 4, "variant")
                loaded.append(len(variant))
            except (FormatError, LengthError):
                pass
        assert tried == 9 * len(blob) and loaded == []

    @pytest.mark.parametrize("kind", ["ternary", "ctsn_static"])
    def test_version_1_file_still_loads(self, tmp_path, kind):
        net = _toy_net(kind=kind, seed=3)
        path = tmp_path / "model.bin"
        save_model(path, net)
        blob = path.read_bytes()
        assert blob[8:12] == struct.pack("<I", 2)
        assert struct.unpack("<I", blob[-4:])[0] == zlib.crc32(blob[:-4])
        path.write_bytes(blob[:8] + struct.pack("<I", 1) + blob[12:-4])  # v1: no checksum
        loaded = load_model(path, NeuronConfig(kind=kind), n_steps=3)
        for (name, a), (_, b) in zip(bptt.GradSet.of(net).named(), bptt.GradSet.of(loaded).named()):
            assert a.tobytes() == b.tobytes(), name
