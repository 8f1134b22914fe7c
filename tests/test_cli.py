
import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
from reference import write_idx_images, write_idx_labels

from ternspike import cli, data as data_mod, network as net_mod, trainer
from ternspike.cli import DEFAULTS, main, parse_config_file, resolve_config
from ternspike.neuron import BLEND_RULES, NeuronConfig
from ternspike.numerics import component_rng


def _args(*argv):
    return cli.build_parser().parse_args(list(argv))


TRAIN_FAST = [
    "--train.epochs", "2",
    "--data.n_train", "96",
    "--data.n_eval", "48",
    "--model.hidden", "10",
    "--train.batch_size", "32",
]


WIDE_STATIC = ["--data.dims", "784", "--data.classes", "10", "--data.n_train", "512", "--data.n_eval", "512"]


class TestBuildDatasets:
    @pytest.mark.parametrize("argv", [[], WIDE_STATIC, ["--data.normalize", "false"],
                                      ["--data.source", "synth_events", "--data.n_train", "40", "--data.n_eval", "24"]])
    def test_slices_equal_the_copied_and_normalized_subsets(self, argv):
        cfg = resolve_config(_args("train", *argv))
        train_ds, eval_ds, manifest = cli.build_datasets(cfg)
        rng = component_rng(cfg["seed"], 10)  # the reference: copied subsets, each normalized on its own
        n_train, n_eval = cfg["data.n_train"], cfg["data.n_eval"]
        if cfg["data.source"] == "synth_static":
            corpus = data_mod.synth_static(n_train + n_eval, cfg["data.dims"], cfg["data.classes"],
                                           cfg["data.margin"], rng, mirror=cfg["data.mirror"])
        else:
            corpus = data_mod.synth_event_frames(n_train + n_eval, cfg["data.dims"], cfg["train.t"],
                                                 cfg["data.rate"], rng, classes=cfg["data.classes"])
        want_train, want_eval = corpus.subset(np.arange(n_train)), corpus.subset(np.arange(n_train, n_train + n_eval))
        if cfg["data.normalize"] and corpus.kind == "static":
            mean, std = data_mod.dataset_stats(want_train)
            assert (manifest["norm_mean"], manifest["norm_std"]) == (mean, std)
            want_train = replace(want_train, inputs=(want_train.inputs - mean) / std)
            want_eval = replace(want_eval, inputs=(want_eval.inputs - mean) / std)
        for got, want in ((train_ds, want_train), (eval_ds, want_eval)):
            assert got.inputs.dtype == want.inputs.dtype
            assert got.inputs.tobytes() == want.inputs.tobytes()
            assert got.labels.tobytes() == want.labels.tobytes()

    def test_wide_static_peak_is_the_result_and_the_std_temporary(self):
        # np.std makes one temporary of the train rows it reads; nothing else outlives a step
        cfg = resolve_config(_args("train", *WIDE_STATIC))
        cli.build_datasets(cfg)  # first-call imports and caches stay out of the measurement
        tracemalloc.start()
        try:
            train_ds, eval_ds, _ = cli.build_datasets(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = train_ds.inputs.nbytes + eval_ds.inputs.nbytes
        assert peak <= result + train_ds.inputs.nbytes + (1 << 20)

    def test_spare_idx_samples_are_not_kept(self, tmp_path):
        images = np.random.default_rng(3).integers(0, 256, size=(50, 4, 4), dtype=np.uint8)
        labels = np.arange(50, dtype=np.uint8) % 4
        (tmp_path / "img").write_bytes(write_idx_images(images))
        (tmp_path / "lab").write_bytes(write_idx_labels(labels))
        cfg = resolve_config(_args("train", "--data.source", "idx", "--data.images", str(tmp_path / "img"),
                                   "--data.labels", str(tmp_path / "lab"), "--data.n_train", "20",
                                   "--data.n_eval", "10"))
        train_ds, eval_ds, _ = cli.build_datasets(cfg)
        assert train_ds.inputs.base.shape == (30, 16)
        assert eval_ds.inputs.base is train_ds.inputs.base


def _saved_model(tmp_path):
    """A default-task ternary model (16 features, one hidden layer of 10, 4 classes), untrained."""
    path = tmp_path / "model.bin"
    trainer.save_model(path, net_mod.build_network((16, 10), 4, NeuronConfig(), 4, np.random.default_rng(0)))
    return path


class TestConfigResolution:
    def test_defaults_only(self):
        cfg = resolve_config(_args("train"))
        assert cfg["neuron.kind"] == "ternary"
        assert cfg["tmpr.lambda"] == 0.05

    def test_file_overrides_defaults(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# comment\n\ntmpr.lambda = 0.01\nneuron.kind=ctsn_static\n")
        cfg = resolve_config(_args("train", "--config", str(f)))
        assert cfg["tmpr.lambda"] == 0.01
        assert cfg["neuron.kind"] == "ctsn_static"

    def test_flags_override_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("tmpr.lambda=0.01\n")
        cfg = resolve_config(_args("train", "--config", str(f), "--tmpr.lambda", "0.25"))
        assert cfg["tmpr.lambda"] == 0.25

    def test_env_between_file_and_flags(self, tmp_path, monkeypatch):
        f = tmp_path / "run.cfg"
        f.write_text("train.epochs=7\nseed=3\n")
        monkeypatch.setenv("TERNSPIKE_TRAIN_EPOCHS", "9")
        monkeypatch.setenv("TERNSPIKE_SEED", "5")
        cfg = resolve_config(_args("train", "--config", str(f), "--seed", "11"))
        assert cfg["train.epochs"] == 9
        assert cfg["seed"] == 11

    def test_stray_env_variable_exits_2(self, tmp_path, monkeypatch, capsys):
        # a misspelt key in the environment is refused, as the same key in a config file is
        monkeypatch.setenv("TERNSPIKE_TRAIN_EPOCS", "2")
        assert main(["train", *TRAIN_FAST, "--out_dir", str(tmp_path / "run")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "run").exists()
        assert err == "config error: environment variable TERNSPIKE_TRAIN_EPOCS names no key\n"

    def test_neuron_shorthand(self):
        cfg = resolve_config(_args("train", "--neuron", "ctsn_static"))
        assert cfg["neuron.kind"] == "ctsn_static"

    def test_event_data_defaults_unless_set(self):
        cfg = resolve_config(_args("train", "--data.source", "synth_events"))
        assert (cfg["tmpr.lambda"], cfg["train.weight_decay"]) == (0.01, 5e-4)
        cfg = resolve_config(_args("train", "--data.source", "synth_events", "--tmpr.lambda", "0.05"))
        assert cfg["tmpr.lambda"] == 0.05

    def test_no_tmpr_flag(self):
        cfg = resolve_config(_args("train", "--no-tmpr"))
        assert cfg["tmpr.enabled"] is False

    def test_unknown_key_names_line(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("tmpr.lambda=0.01\nbogus.key=1\n")
        from ternspike.errors import ConfigError

        with pytest.raises(ConfigError, match=":2"):
            parse_config_file(f)

    def test_bad_value_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("train.epochs=many\n")
        from ternspike.errors import ConfigError

        with pytest.raises(ConfigError):
            parse_config_file(f)

    def test_every_default_has_a_flag(self):
        parser = cli.build_parser()
        args = parser.parse_args(["train"] + [f"--{k}" if False else f"--{k}" for k in []])
        for key in DEFAULTS:
            assert hasattr(args, key.replace(".", "__"))


# Counts, and comma lists of counts: each must be at least 1.
COUNT_KEYS = ("train.epochs", "train.batch_size", "train.t", "data.n_train", "data.n_eval", "data.dims",
              "data.classes", "hist.bins", "ablate.seeds", "gradcheck.networks", "gradcheck.fd_networks",
              "model.hidden", "ablate.timesteps")
# One value outside each key's domain; keyed like cli.DOMAINS, so a new domain needs a case here.
OUT_OF_DOMAIN = {
    **dict.fromkeys(COUNT_KEYS, "-1"),
    "seed": "-1", "tmpr.lambda": "-0.01", "train.weight_decay": "-1", "model.init_scale": "-1",
    "neuron.v_th": "0", "neuron.a": "-0.5", "train.lr0": "-0.1", "gradcheck.fd_step": "-1",
    "neuron.tau": "1.5", "train.momentum": "1", "data.rate": "2", "data.margin": "inf",
    "hist.lo": "3", "hist.hi": "inf", "neuron.kind": "lif", "neuron.reset": "soft",
    "data.source": "mnist",
}


def _exits_2_naming_key(key, value, tmp_path, capsys):
    command = {"hist": "hist", "ablate": "ablate", "gradcheck": "gradcheck"}.get(key.split(".")[0], "train")
    argv = [command, "--out_dir", str(tmp_path / "run"), f"--{key}", value]
    if command == "hist":
        argv += ["--model", str(tmp_path / "missing.bin")]
    assert main(argv) == 2
    assert f"key {key}:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


class TestConfigDomains:
    @pytest.mark.parametrize("key", COUNT_KEYS)
    def test_value_below_one_exits_2_naming_key(self, key, tmp_path, capsys):
        _exits_2_naming_key(key, "0", tmp_path, capsys)

    @pytest.mark.parametrize("key", sorted(cli.DOMAINS))
    def test_out_of_domain_exits_2_naming_key(self, key, tmp_path, capsys):
        _exits_2_naming_key(key, OUT_OF_DOMAIN[key], tmp_path, capsys)

    @pytest.mark.parametrize("key", sorted(k for k in cli.DOMAINS if isinstance(DEFAULTS[k], float)))
    def test_nan_exits_2_naming_key(self, key, tmp_path, capsys):
        _exits_2_naming_key(key, "nan", tmp_path, capsys)

    def test_every_hidden_width_checked(self, capsys):
        for bad in ("12,0", "12,-3", "12,x"):
            assert main(["train", "--model.hidden", bad]) == 2
            assert "key model.hidden:" in capsys.readouterr().err


class TestTrainCommand:
    def test_train_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--out_dir", str(out)] + TRAIN_FAST)
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "model.bin").exists()
        assert (out / "config.resolved").exists()
        assert (out / "dataset.manifest").exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,lr,ce_loss,tmpr_loss,train_acc,eval_acc"

    def test_config_echo_reproduces_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--out_dir", str(out), "--seed", "5"] + TRAIN_FAST) == 0
        echoed = dict(
            line.split("=", 1) for line in (out / "config.resolved").read_text().splitlines()
        )
        assert echoed["seed"] == "5"
        assert set(echoed) == set(DEFAULTS)

    def test_determinism_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["train", "--out_dir", str(out), "--seed", "3"] + TRAIN_FAST) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "model.bin").read_bytes() == (out_b / "model.bin").read_bytes()

    def test_lambda_zero_equals_disabled(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--out_dir", str(out_a), "--tmpr.lambda", "0"] + TRAIN_FAST) == 0
        assert main(["train", "--out_dir", str(out_b), "--no-tmpr"] + TRAIN_FAST) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    def test_missing_dataset_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["train", "--out_dir", str(out), "--data.source", "idx",
             "--data.images", str(tmp_path / "nope"), "--data.labels", str(tmp_path / "nope2")]
        )
        assert code == 2
        assert not out.exists()

    def test_ctsn_flagged_run(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["train", "--out_dir", str(out), "--neuron", "ctsn_static", "--tmpr.lambda", "0.05"]
            + TRAIN_FAST
        )
        assert code == 0


def _hist_counts(out_dir, n_layers, n_steps, bins):
    """The count column of ``membrane_hist.csv`` as a (layers, timesteps, bins) array."""
    rows = (out_dir / "membrane_hist.csv").read_text().splitlines()[1:]
    return np.array([int(row.split(",")[4]) for row in rows]).reshape(n_layers, n_steps, bins)


class TestEvalAndHist:
    @pytest.fixture()
    def trained(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--out_dir", str(out)] + TRAIN_FAST) == 0
        return out

    def test_eval_runs(self, trained, capsys):
        code = main(["eval", "--model", str(trained / "model.bin")] + TRAIN_FAST)
        assert code == 0
        assert "eval accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["eval", "hist"])
    def test_non_finite_model_exits_2_naming_its_offset(self, tmp_path, capsys, command):
        path = _saved_model(tmp_path)
        body = bytearray(path.read_bytes()[:-4])
        body[32:40] = struct.pack("<d", np.nan)  # layer0.w[0, 0]: the array header starts at offset 20
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        argv = [command, "--model", str(path), "--out_dir", str(tmp_path / "out")] + TRAIN_FAST
        assert main(argv) == 2
        assert "array at offset 20 holds a non-finite value" in capsys.readouterr().err

    def test_hist_csv_format_metadata_and_determinism(self, trained, tmp_path):
        out = tmp_path / "hist_out"
        argv = ["hist", "--model", str(trained / "model.bin"), "--out_dir", str(out),
                "--hist.bins", "9"] + TRAIN_FAST
        assert main(argv) == 0
        csv_path = out / "membrane_hist.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "layer,timestep,bin_left,bin_right,count"
        # 1 hidden layer x 4 timesteps x 9 bins + header, in (layer, timestep, bin) order
        assert len(lines) == 1 + 1 * 4 * 9
        edges = np.linspace(-2.0, 2.0, 10).tolist()
        expect = [f"0,{t},{edges[b]!r},{edges[b + 1]!r}" for t in range(1, 5) for b in range(9)]
        assert [row.rpartition(",")[0] for row in lines[1:]] == expect
        first = csv_path.read_bytes()
        assert main(argv) == 0
        assert csv_path.read_bytes() == first
        meta = (out / "membrane_hist.csv.meta").read_text()
        assert meta == "v_th=0.5\nthresholds=-0.5,0.5\nbins=9\nrange=-2.0,2.0\n"

    def test_hist_zero_potentials_all_mass_in_middle_bin(self, tmp_path):
        # an all-zero parameter vector keeps u~ at 0 in every layer and step
        path = tmp_path / "model.bin"
        trainer.save_model(path, net_mod.Network((16, 10, 5), 4, NeuronConfig(), 4))
        out = tmp_path / "hist_out"
        argv = ["hist", "--model", str(path), "--out_dir", str(out),
                "--hist.bins", "3", "--hist.lo", "-1", "--hist.hi", "1"] + TRAIN_FAST
        assert main(argv) == 0
        counts = _hist_counts(out, 2, 4, 3)
        np.testing.assert_array_equal(counts[:, :, 1], [[48 * 10] * 4, [48 * 5] * 4])
        assert counts[:, :, [0, 2]].sum() == 0

    def test_hist_mass_conservation_with_out_of_range_values(self, trained, tmp_path):
        # a range far narrower than u~: the clipped values land in the edge bins
        out = tmp_path / "hist_out"
        argv = ["hist", "--model", str(trained / "model.bin"), "--out_dir", str(out),
                "--hist.lo", "-0.01", "--hist.hi", "0.01"] + TRAIN_FAST
        assert main(argv) == 0
        counts = _hist_counts(out, 1, 4, 81)
        np.testing.assert_array_equal(counts.sum(axis=2), 48 * 10)
        assert counts[:, :, 0].sum() > 0 and counts[:, :, -1].sum() > 0

    def test_hist_totals_are_the_sum_over_slices(self, tmp_path):
        # the default eval set goes through one forward; its counts equal those of 97-row slices
        run, out = tmp_path / "run", tmp_path / "hist"
        assert main(["train", "--out_dir", str(run), "--train.epochs", "1"]) == 0
        assert main(["hist", "--model", str(run / "model.bin"), "--out_dir", str(out), "--hist.bins", "9"]) == 0
        cfg = resolve_config(_args("eval"))
        _, eval_ds, _ = cli.build_datasets(cfg)
        net = trainer.load_model(run / "model.bin", cli._neuron_config(cfg), cfg["train.t"])
        totals = np.zeros((len(net.layers), net.n_steps, 9), dtype=np.int64)
        for start in range(0, len(eval_ds.labels), 97):
            idx = np.arange(start, min(start + 97, len(eval_ds.labels)))
            _, cache = net_mod.forward(net, data_mod.encode_batch(eval_ds, idx, net.n_steps)[0])
            for l, tr in enumerate(cache.layers):
                for t, u_tilde in enumerate(tr.u_tilde):
                    vals = np.clip(u_tilde.ravel(), cfg["hist.lo"], cfg["hist.hi"])
                    totals[l, t] += np.histogram(vals, bins=np.linspace(cfg["hist.lo"], cfg["hist.hi"], 10))[0]
        rows = (out / "membrane_hist.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[4]) for row in rows] == totals.ravel().tolist()

    def test_hist_holds_one_trace_at_a_time(self, tmp_path, monkeypatch):
        # three eval batches of 256; the previous batch's trace must be gone before the next forward
        argv = ["--data.dims", "64", "--data.classes", "10", "--model.hidden", "256,256",
                "--data.n_train", "32", "--data.n_eval", "768"]
        cfg = resolve_config(_args("eval", *argv))
        datasets = cli.build_datasets(cfg)
        eval_ds = datasets[1]
        net = cli._build_net(cfg, eval_ds.feature_dim, eval_ds.num_classes)
        trainer.save_model(tmp_path / "model.bin", net)
        monkeypatch.setattr(cli, "build_datasets", lambda cfg: datasets)  # the data stay out of the measurement
        hist = ["hist", "--model", str(tmp_path / "model.bin"), "--out_dir", str(tmp_path / "out")] + argv
        tracemalloc.start()
        try:
            xs_seq, _ = data_mod.encode_batch(eval_ds, np.arange(256), net.n_steps)
            net_mod.forward(net, xs_seq)
            one_forward = tracemalloc.get_traced_memory()[1]
            del xs_seq
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(hist) == 0
            whole_pass = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert whole_pass <= 1.2 * one_forward

    def test_hist_dim_mismatch_exits_2(self, trained, tmp_path):
        out = tmp_path / "hist_out"
        code = main(
            ["hist", "--model", str(trained / "model.bin"), "--out_dir", str(out),
             "--data.dims", "24"] + TRAIN_FAST
        )
        assert code == 2

    def test_eval_dim_mismatch_exits_2(self, trained, capsys):
        code = main(["eval", "--model", str(trained / "model.bin"), "--data.dims", "20"] + TRAIN_FAST)
        assert code == 2
        assert "model input dim 16 does not match dataset feature dim 20" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "hist"])
    def test_class_count_mismatch_exits_2(self, command, trained, tmp_path, capsys):
        img, lbl = _idx_pair(tmp_path, rows=4, cols=4)  # the model's 16 features, 3 classes against its 4
        out = tmp_path / "out"
        argv = [command, "--model", str(trained / "model.bin"), "--out_dir", str(out)] + TRAIN_FAST
        assert main(argv + _idx_argv(img, lbl, "--data.n_train", "6", "--data.n_eval", "6")) == 2
        assert "model class count 4 does not match dataset class count 3" in capsys.readouterr().err
        assert not out.exists()

    def test_model_config_mismatch_exits_2(self, trained, tmp_path):
        code = main(
            ["eval", "--model", str(trained / "model.bin"), "--neuron", "ctsn_static"] + TRAIN_FAST
        )
        assert code == 2


class TestGradcheckCommand:
    def test_fast_gradcheck_passes(self, capsys):
        code = main(
            ["gradcheck", "--gradcheck.networks", "8", "--gradcheck.fd_networks", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "gradcheck passed" in out
        assert "per-parameter report" in out

    def test_closed_form_gap_report(self, capsys):
        code = main(["gradcheck", "--paper-recursion"])
        out = capsys.readouterr().out
        assert code == 0
        # one four-line report per blend rule, in BLEND_RULES order
        headers = [line for line in out.splitlines() if line.startswith("paper's closed form vs exact graph")]
        assert headers == [f"paper's closed form vs exact graph ({kind}):" for kind in BLEND_RULES]
        assert out.count("the exact graph and the default recursion keep it\n") == len(BLEND_RULES)
        assert len(out.splitlines()) == 4 * len(BLEND_RULES)
        # the default seed draws no T=1 network, so there is no agreement to claim
        assert out.count("  agreement at T=1: n/a (0 networks with T=1)\n") == len(BLEND_RULES)

    def test_mode_is_an_ambiguous_prefix(self, capsys):
        # --mode is gone; argparse reads it as a prefix of --model.hidden and --model.init_scale
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--mode", "ctsn", "--paper-recursion"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "ambiguous option: --mode" in err

    def test_stale_mode_key_in_config_exits_2(self, tmp_path, capsys):
        # a config file written for the removed gradcheck.mode key is refused, not ignored
        f = tmp_path / "run.cfg"
        f.write_text("gradcheck.mode=ctsn\n")
        assert main(["gradcheck", "--config", str(f), "--paper-recursion"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: {f}:1: unknown key 'gradcheck.mode'\n"

    def test_coarse_fd_step_is_advisory(self, capsys):
        code = main(
            ["gradcheck", "--fd-step", "1e-2", "--gradcheck.networks", "4",
             "--gradcheck.fd_networks", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ADVISORY" in out


class TestExitCodeDiscipline:
    def test_verification_failure_exits_1(self, monkeypatch, capsys):
        from ternspike import gradcheck as gc

        def failing(seed=0, n_networks=100, tol=1e-10):
            return gc.SuiteResult(
                name="recursion-vs-exact (ternary)", max_rel_err=1.0,
                worst="net 0: layer0.w[0]", tolerance=tol, passed=False,
            )

        monkeypatch.setattr(gc, "suite_recursion_vs_exact", failing)
        code = main(["gradcheck", "--gradcheck.fd_networks", "1"])
        assert code == 1
        assert "worst offender" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numeric_failure_exits_3(self, tmp_path, capsys):
        # lr0 = 1e300 overflows the parameters in the second update, the batch
        # at sample 32; sgd_step names that batch and no model is written.  The
        # overflows it checks print no numpy warning: stderr is the one message.
        out = tmp_path / "run"
        code = main(["train", "--out_dir", str(out)] + TRAIN_FAST + ["--train.lr0", "1e300"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: batch starting at sample 32: non-finite parameter in "), err
        assert err.count("\n") == 1, err
        assert not (out / "model.bin").exists()

    @pytest.mark.parametrize("command", ["train", "hist", "ablate"])
    def test_unusable_out_dir_exits_2_naming_it(self, tmp_path, capsys, command):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        extra = {"train": [], "hist": ["--model", str(_saved_model(tmp_path))],
                 "ablate": ["--ablate.seeds", "1", "--ablate.timesteps", "2"]}[command]
        for out_dir in (blocker, blocker / "sub"):  # FileExistsError, NotADirectoryError
            assert main([command, "--out_dir", str(out_dir)] + extra + TRAIN_FAST) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: key out_dir: cannot write {out_dir}/config.resolved: "), err

    @pytest.mark.parametrize("command,name", [
        ("train", "dataset.manifest"), ("train", "metrics.csv"), ("train", "model.bin"),
        ("hist", "membrane_hist.csv"), ("hist", "membrane_hist.csv.meta"), ("ablate", "ablation.csv"),
    ])
    def test_output_path_that_is_a_directory_exits_2_before_training(
        self, tmp_path, capsys, monkeypatch, command, name
    ):
        out = tmp_path / "run"
        (out / name).mkdir(parents=True)
        extra = ["--model", str(_saved_model(tmp_path))] if command == "hist" else []

        def no_data(cfg):
            raise AssertionError("built data although an output path is a directory")

        monkeypatch.setattr(cli, "build_datasets", no_data)
        assert main([command, "--out_dir", str(out)] + extra + TRAIN_FAST) == 2
        assert capsys.readouterr().err == f"config error: key out_dir: {out / name} is a directory\n"
        assert sorted(p.name for p in out.iterdir()) == [name]

    def test_soft_reset_training_rejected(self, tmp_path):
        code = main(
            ["train", "--out_dir", str(tmp_path / "run"), "--neuron.reset", "soft"] + TRAIN_FAST
        )
        assert code == 2


class TestAblateCommand:
    def test_ablate_csv_shape(self, tmp_path):
        out = tmp_path / "ablate"
        code = main(
            ["ablate", "--out_dir", str(out), "--ablate.seeds", "2", "--ablate.timesteps", "2,3",
             "--train.epochs", "1", "--data.n_train", "64", "--data.n_eval", "32",
             "--model.hidden", "8", "--train.batch_size", "32"]
        )
        assert code == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "method,timesteps,mean_eval_acc,sd_eval_acc"
        assert len(lines) == 1 + 3 * 2  # three arms x two timestep settings

    @pytest.mark.parametrize("source,ctsn_kind", [("synth_static", "ctsn_static"),
                                                  ("synth_events", "ctsn_neuromorphic")])
    def test_complemented_arms_take_the_blend_rule_of_the_data(self, monkeypatch, source, ctsn_kind):
        kinds, build = [], cli._build_net

        def recording_build(*args):
            net = build(*args)
            kinds.append(net.cfg.kind)
            return net

        monkeypatch.setattr(cli, "_build_net", recording_build)
        monkeypatch.setattr(trainer, "fit", lambda net, *args: [{"eval_acc": 0.5}])
        cfg = resolve_config(_args("ablate", "--data.source", source, "--ablate.seeds", "2",
                                   "--data.n_train", "40", "--data.n_eval", "24"))
        cli.run_ablation(cfg)
        assert kinds == ["ternary", ctsn_kind, ctsn_kind] * 2


    def test_each_dataset_is_built_once_for_all_arms(self, monkeypatch):
        calls, build = [], cli.build_datasets

        def counting_build(cfg):
            calls.append((cfg["seed"], cfg["train.t"]))
            return build(cfg)

        monkeypatch.setattr(cli, "build_datasets", counting_build)
        monkeypatch.setattr(trainer, "fit", lambda net, *args: [{"eval_acc": 0.5}])
        cfg = resolve_config(_args("ablate", "--ablate.seeds", "1", "--data.n_train", "40", "--data.n_eval", "24"))
        cli.run_ablation(cfg)
        assert calls == [(cfg["seed"], 4)]

def _idx_pair(tmp_path, n=12, rows=4, cols=3):
    """An IDX image/label pair on disk: n samples of rows x cols pixels, 3 classes."""
    rng = np.random.default_rng(5)
    images = write_idx_images(rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8))
    labels = write_idx_labels(np.arange(n, dtype=np.uint8) % 3)
    (tmp_path / "img").write_bytes(images)
    (tmp_path / "lbl").write_bytes(labels)
    return tmp_path / "img", tmp_path / "lbl"


def _idx_argv(img, lbl, *extra):
    return ["--data.source", "idx", "--data.images", str(img), "--data.labels", str(lbl), *extra]


class TestIdxSource:
    def test_every_truncation_and_bit_flip_is_named_or_loads(self, tmp_path):
        # rows=4 has one set bit, so a single flip can zero it; IDX has no checksum,
        # so payload flips may load
        img, lbl = _idx_pair(tmp_path)
        cfg = resolve_config(_args("train", *_idx_argv(img, lbl, "--data.n_train", "6", "--data.n_eval", "6")))
        for key, path in (("data.images", img), ("data.labels", lbl)):
            blob = path.read_bytes()
            variants = [blob[:cut] for cut in range(len(blob))]
            for bit in range(8 * len(blob)):
                flipped = bytearray(blob)
                flipped[bit // 8] ^= 1 << (bit % 8)
                variants.append(bytes(flipped))
            for variant in variants:
                path.write_bytes(variant)
                try:
                    train_ds, eval_ds, _ = cli.build_datasets(cfg)
                except cli.ConfigError as exc:
                    assert key in str(exc), str(exc)
                else:
                    assert train_ds.feature_dim >= 1
                    assert len(train_ds.labels) >= 1 and len(eval_ds.labels) >= 1
            path.write_bytes(blob)

    def test_truncated_file_exits_2_without_outputs(self, tmp_path, capsys):
        img, lbl = _idx_pair(tmp_path)
        img.write_bytes(img.read_bytes()[:-1])
        out = tmp_path / "run"
        assert main(["train", "--out_dir", str(out)] + _idx_argv(img, lbl)) == 2
        err = capsys.readouterr().err
        assert "key data.images:" in err and "payload ends at offset 159" in err
        assert not out.exists()

    def test_split_larger_than_pair_exits_2(self, tmp_path, capsys):
        img, lbl = _idx_pair(tmp_path)
        out = tmp_path / "run"
        argv = ["train", "--out_dir", str(out)] + _idx_argv(img, lbl, "--data.n_train", "8", "--data.n_eval", "5")
        assert main(argv) == 2
        assert "keys data.n_train and data.n_eval: 8 + 5" in capsys.readouterr().err
        assert not out.exists()

    def test_valid_pair_trains_and_records_its_counts(self, tmp_path):
        img, lbl = _idx_pair(tmp_path)
        out = tmp_path / "run"
        argv = ["train", "--out_dir", str(out), "--train.epochs", "2", "--model.hidden", "6",
                "--train.batch_size", "4"] + _idx_argv(img, lbl, "--data.n_train", "8", "--data.n_eval", "4")
        assert main(argv) == 0
        manifest = (out / "dataset.manifest").read_text().splitlines()
        assert "n_train=8" in manifest and "n_eval=4" in manifest
        assert len((out / "metrics.csv").read_text().splitlines()) == 1 + 2
