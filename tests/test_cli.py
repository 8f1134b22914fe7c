
import pytest

from ternspike import cli
from ternspike.cli import DEFAULTS, main, parse_config_file, resolve_config


def _args(*argv):
    return cli.build_parser().parse_args(list(argv))


TRAIN_FAST = [
    "--train.epochs", "2",
    "--data.n_train", "96",
    "--data.n_eval", "48",
    "--model.hidden", "10",
    "--train.batch_size", "32",
]


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
    "gradcheck.mode": "ctsn_dynamic", "data.source": "mnist",
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
    @pytest.mark.parametrize("key", COUNT_KEYS + ("gradcheck.mode",))
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

    def test_hist_row_count_and_determinism(self, trained, tmp_path):
        out = tmp_path / "hist_out"
        argv = ["hist", "--model", str(trained / "model.bin"), "--out_dir", str(out),
                "--hist.bins", "9"] + TRAIN_FAST
        assert main(argv) == 0
        csv_path = out / "membrane_hist.csv"
        lines = csv_path.read_text().splitlines()
        # 1 hidden layer x 4 timesteps x 9 bins + header
        assert len(lines) == 1 + 1 * 4 * 9
        first = csv_path.read_bytes()
        assert main(argv) == 0
        assert csv_path.read_bytes() == first
        meta = (out / "membrane_hist.csv.meta").read_text()
        assert "v_th=0.5" in meta

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
        code = main(["gradcheck", "--mode", "ctsn", "--paper-recursion"])
        out = capsys.readouterr().out
        assert code == 0
        assert "closed-form recursion vs exact graph" in out

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


def _idx_pair(tmp_path, n=12, rows=4, cols=3):
    """An IDX image/label pair on disk: n samples of rows x cols pixels, 3 classes."""
    import numpy as np

    from ternspike import data as data_mod

    rng = np.random.default_rng(5)
    images = data_mod.write_idx_images(rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8))
    labels = data_mod.write_idx_labels(np.arange(n, dtype=np.uint8) % 3)
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
