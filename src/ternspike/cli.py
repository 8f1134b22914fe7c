"""Command-line interface: train / eval / gradcheck / hist / ablate.

Configuration is a flat set of dotted keys.  Resolution order (later wins):
built-in defaults, then the ``--config`` key=value file, then environment
variables (prefix ``TERNSPIKE_``, dots as underscores, upper case, e.g.
``TERNSPIKE_TMPR_LAMBDA``), then command-line flags, which mirror the keys
(``--tmpr.lambda 0.05``).  The fully resolved configuration is echoed to
``<out_dir>/config.resolved`` before any work starts, so every run directory
is self-describing.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bptt, data as data_mod, gradcheck, network as net_mod, trainer
from .errors import ConfigError, ConsistencyError, FormatError, NumericError
from .loss import TMPRConfig
from .neuron import KINDS, NeuronConfig
from .numerics import component_rng

ENV_PREFIX = "TERNSPIKE_"

DEFAULTS: dict[str, object] = {
    "seed": 2,
    "out_dir": "ternspike_run",
    "neuron.kind": "ternary",
    "neuron.tau": 0.25,
    "neuron.v_th": 0.5,
    "neuron.a": 0.5,
    "neuron.reset": "hard",
    "tmpr.enabled": True,
    "tmpr.lambda": 0.05,
    "train.lr0": 0.1,
    "train.momentum": 0.9,
    "train.weight_decay": 1e-4,
    "train.batch_size": 32,
    "train.epochs": 30,
    "train.t": 4,
    "model.hidden": "12,12",
    "model.init_scale": 2.0,
    "data.source": "synth_static",
    "data.n_train": 1024,
    "data.n_eval": 768,
    "data.dims": 16,
    "data.classes": 4,
    "data.margin": 3.0,
    "data.mirror": True,
    "data.rate": 0.05,
    "data.images": "",
    "data.labels": "",
    "data.normalize": True,
    "hist.bins": 81,
    "hist.lo": -2.0,
    "hist.hi": 2.0,
    "gradcheck.mode": "ternary",
    "gradcheck.fd_step": 1e-6,
    "gradcheck.networks": 100,
    "gradcheck.fd_networks": 4,
    "ablate.seeds": 3,
    "ablate.timesteps": "4",
}


def _ints(raw) -> list[int]:
    """The integers of a comma list, or [] if an entry is not an integer."""
    try:
        return [int(v) for v in str(raw).split(",") if v.strip()]
    except ValueError:
        return []


def _one_of(*values):
    return (lambda v: v in values), "one of " + ", ".join(values)


# key -> (test, domain as text).  DEFAULTS sets each key's type; resolve_config
# checks every value against its domain before any work starts.  Keys not listed
# (booleans, paths, out_dir) take any value of their type.
DOMAINS: dict[str, tuple] = {
    **dict.fromkeys(
        ("train.epochs", "train.batch_size", "train.t", "data.n_train", "data.n_eval", "data.dims",
         "data.classes", "hist.bins", "ablate.seeds", "gradcheck.networks", "gradcheck.fd_networks"),
        ((lambda v: v >= 1), "at least 1"),
    ),
    **dict.fromkeys(("seed", "tmpr.lambda", "train.weight_decay", "model.init_scale"),
                    ((lambda v: 0 <= v < math.inf), "finite and at least 0")),
    **dict.fromkeys(("neuron.v_th", "neuron.a", "train.lr0", "gradcheck.fd_step"),
                    ((lambda v: 0 < v < math.inf), "finite and above 0")),
    "neuron.tau": ((lambda v: 0 < v <= 1), "in (0, 1]"),
    "train.momentum": ((lambda v: 0 <= v < 1), "in [0, 1)"),
    "data.rate": ((lambda v: 0 <= v <= 1), "in [0, 1]"),
    **dict.fromkeys(("data.margin", "hist.lo", "hist.hi"), (math.isfinite, "finite")),
    **dict.fromkeys(("model.hidden", "ablate.timesteps"),
                    ((lambda v: min(_ints(v), default=0) >= 1), "a comma list of integers of at least 1")),
    "neuron.kind": _one_of(*KINDS),
    "neuron.reset": _one_of("hard"),  # no gradient engine covers the soft reset
    "gradcheck.mode": _one_of(*KINDS, "ctsn"),
    "data.source": _one_of("synth_static", "synth_events", "idx"),
}


def _coerce(key: str, raw: str):
    """Parse a raw string per the default value's type."""
    default = DEFAULTS[key]
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"key {key}: cannot parse {raw!r} as a boolean")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key}: cannot parse {raw!r} ({exc})") from exc
    return raw


def parse_config_file(path) -> dict:
    """key=value lines; blank lines and # comments allowed."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw.strip())
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < environment < flags.

    Two defaults are data-kind dependent (the regularizer strength and the
    weight decay); when the event-frame source is selected and the user did
    not set them explicitly, the neuromorphic defaults apply.
    """
    cfg = dict(DEFAULTS)
    overridden: set[str] = set()
    if getattr(args, "config", None):
        file_vals = parse_config_file(args.config)
        cfg.update(file_vals)
        overridden |= set(file_vals)
    for key in DEFAULTS:
        env_key = ENV_PREFIX + key.upper().replace(".", "_")
        if env_key in os.environ:
            cfg[key] = _coerce(key, os.environ[env_key])
            overridden.add(key)
    for key in DEFAULTS:
        val = getattr(args, key.replace(".", "__"), None)
        if val is not None:
            cfg[key] = _coerce(key, val) if isinstance(val, str) else val
            overridden.add(key)
    if getattr(args, "no_tmpr", False):
        cfg["tmpr.enabled"] = False
    if getattr(args, "neuron", None):
        cfg["neuron.kind"] = args.neuron
    if cfg["data.source"] == "synth_events":
        if "tmpr.lambda" not in overridden:
            cfg["tmpr.lambda"] = TMPRConfig.default_for("neuromorphic").lam
        if "train.weight_decay" not in overridden:
            cfg["train.weight_decay"] = 5e-4
    for key, (ok, domain) in DOMAINS.items():
        if not ok(cfg[key]):
            raise ConfigError(f"key {key}: must be {domain}, got {cfg[key]!r}")
    if not cfg["hist.lo"] < cfg["hist.hi"]:
        raise ConfigError(f"key hist.lo: must be below hist.hi = {cfg['hist.hi']!r}, got {cfg['hist.lo']!r}")
    return cfg


def echo_config(cfg: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{key}={cfg[key]}" for key in sorted(cfg)]
    (out_dir / "config.resolved").write_text("\n".join(lines) + "\n")


def _neuron_config(cfg: dict) -> NeuronConfig:
    return NeuronConfig(
        tau=cfg["neuron.tau"],
        v_th=cfg["neuron.v_th"],
        a=cfg["neuron.a"],
        reset=cfg["neuron.reset"],
        kind=cfg["neuron.kind"],
    )


def _train_config(cfg: dict) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        lr0=cfg["train.lr0"],
        momentum=cfg["train.momentum"],
        weight_decay=cfg["train.weight_decay"],
        batch_size=cfg["train.batch_size"],
        epochs=cfg["train.epochs"],
        seed=cfg["seed"],
        n_steps=cfg["train.t"],
        tmpr=TMPRConfig(lam=cfg["tmpr.lambda"], enabled=cfg["tmpr.enabled"]),
    )


def _load_idx(cfg: dict) -> data_mod.Dataset:
    """The IDX pair named by data.images and data.labels; a file that cannot be
    read or parsed, or a pair whose counts differ, is a config error naming its key."""
    arrays = []
    for key, parse in (("data.images", data_mod.parse_idx_images), ("data.labels", data_mod.parse_idx_labels)):
        try:
            arrays.append(parse(Path(cfg[key]).read_bytes()))
        except (FormatError, OSError) as exc:
            raise ConfigError(f"key {key}: cannot load {cfg[key]}: {exc}") from exc
    try:
        return data_mod.idx_dataset(*arrays, cfg["data.images"], cfg["data.labels"])
    except ConsistencyError as exc:
        raise ConfigError(f"keys data.images and data.labels: {exc}") from exc


def build_datasets(cfg: dict) -> tuple[data_mod.Dataset, data_mod.Dataset, dict]:
    """Train/eval datasets per the config, plus the generator manifest."""
    source = cfg["data.source"]
    seed = cfg["seed"]
    n_train, n_eval = cfg["data.n_train"], cfg["data.n_eval"]
    manifest = {"source": source, "seed": seed, "n_train": n_train, "n_eval": n_eval}
    if source == "synth_static":
        rng = component_rng(seed, 10)
        corpus = data_mod.synth_static(
            n_train + n_eval, cfg["data.dims"], cfg["data.classes"], cfg["data.margin"], rng,
            mirror=cfg["data.mirror"],
        )
        manifest.update(
            dims=cfg["data.dims"], classes=cfg["data.classes"], margin=cfg["data.margin"],
            mirror=cfg["data.mirror"],
        )
    elif source == "synth_events":
        rng = component_rng(seed, 10)
        corpus = data_mod.synth_event_frames(
            n_train + n_eval, cfg["data.dims"], cfg["train.t"], cfg["data.rate"], rng,
            classes=cfg["data.classes"],
        )
        manifest.update(
            dims=cfg["data.dims"], classes=cfg["data.classes"], rate=cfg["data.rate"], t=cfg["train.t"]
        )
    else:  # idx
        images, labels = cfg["data.images"], cfg["data.labels"]
        if not images or not labels:
            raise ConfigError("data.source=idx requires data.images and data.labels paths")
        corpus = _load_idx(cfg)
        if n_train + n_eval > len(corpus.labels):
            raise ConfigError(
                f"keys data.n_train and data.n_eval: {n_train} + {n_eval} samples asked for, "
                f"but the IDX pair holds {len(corpus.labels)}"
            )
        manifest.update(images=images, labels=labels)
    train_ds = corpus.subset(np.arange(0, n_train))
    eval_ds = corpus.subset(np.arange(n_train, n_train + n_eval))
    if cfg["data.normalize"] and corpus.kind == "static":
        mean, std = data_mod.dataset_stats(train_ds)
        if std > 0:
            train_ds = data_mod.normalize(train_ds, mean, std)
            eval_ds = data_mod.normalize(eval_ds, mean, std)
            manifest.update(norm_mean=mean, norm_std=std)
    return train_ds, eval_ds, manifest


def _build_net(cfg: dict, feature_dim: int, n_classes: int) -> net_mod.Network:
    rng = component_rng(cfg["seed"], 0)
    return net_mod.build_network(
        [feature_dim] + _ints(cfg["model.hidden"]),
        n_classes,
        _neuron_config(cfg),
        cfg["train.t"],
        rng,
        init_scale=cfg["model.init_scale"],
    )


def cmd_train(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    train_ds, eval_ds, manifest = build_datasets(cfg)
    echo_config(cfg, out_dir)
    data_mod.write_manifest(out_dir / "dataset.manifest", manifest)
    net = _build_net(cfg, train_ds.feature_dim, train_ds.num_classes)
    tc = _train_config(cfg)
    history = trainer.fit(net, train_ds, eval_ds, tc, metrics_path=out_dir / "metrics.csv")
    trainer.save_model(out_dir / "model.bin", net)
    last = history[-1]
    print(
        f"trained {tc.epochs} epochs: ce {last['ce_loss']:.4f}, tmpr {last['tmpr_loss']:.6f}, "
        f"train acc {last['train_acc']:.3f}, eval acc {last['eval_acc']:.3f}"
    )
    print(f"outputs in {out_dir}")
    return 0


def _load_model(cfg: dict, model_path: str, eval_ds: data_mod.Dataset) -> net_mod.Network:
    """The saved model under the configured neuron, checked against the eval set's
    input dim and class count."""
    try:
        net = trainer.load_model(model_path, _neuron_config(cfg), cfg["train.t"])
    except (FormatError, OSError) as exc:
        raise ConfigError(f"cannot load model {model_path}: {exc}") from exc
    if net.input_dim != eval_ds.feature_dim:
        raise ConfigError(
            f"model input dim {net.input_dim} does not match dataset feature dim {eval_ds.feature_dim}"
        )
    if net.n_classes != eval_ds.num_classes:
        raise ConfigError(
            f"model class count {net.n_classes} does not match dataset class count {eval_ds.num_classes}"
        )
    return net


def cmd_eval(cfg: dict, model_path: str) -> int:
    _, eval_ds, _ = build_datasets(cfg)
    net = _load_model(cfg, model_path, eval_ds)
    acc = trainer.evaluate(net, eval_ds)
    print(f"eval accuracy {acc:.4f} on {len(eval_ds.labels)} samples")
    return 0


def cmd_gradcheck(cfg: dict, paper_recursion: bool) -> int:
    seed = cfg["seed"]
    step = cfg["gradcheck.fd_step"]
    mode = cfg["gradcheck.mode"]
    if paper_recursion and mode.startswith("ctsn"):
        kind = mode if mode != "ctsn" else "ctsn_static"
        report = gradcheck.ctsn_recursion_report(kind=kind, seed=seed)
        print(f"closed-form recursion vs exact graph ({report['kind']}):")
        print(f"  max relative gap {report['max_rel_err']:.3e} (worst at {report['worst']})")
        print(f"  agreement at T=1: {report['agree_at_T1']}")
        print(f"  note: {report['note']}")
        return 0
    _demo_parameter_report(seed)
    suites = [
        gradcheck.suite_recursion_vs_exact(seed=seed, n_networks=cfg["gradcheck.networks"]),
        gradcheck.suite_fd("ternary", seed=seed, n_networks=cfg["gradcheck.fd_networks"], step=step),
        gradcheck.suite_fd("ctsn_static", seed=seed, n_networks=cfg["gradcheck.fd_networks"], step=step),
        gradcheck.suite_fd(
            "ctsn_neuromorphic", seed=seed, n_networks=cfg["gradcheck.fd_networks"], step=step
        ),
        gradcheck.suite_fd(
            "ctsn_static", seed=seed, n_networks=max(1, cfg["gradcheck.fd_networks"] // 2),
            step=step, with_tmpr=True,
        ),
        gradcheck.suite_tmpr_fd(seed=seed),
    ]
    ok = True
    for suite in suites:
        print(gradcheck.format_suite(suite))
        ok = ok and suite.passed
    if not ok:
        worst = max((s for s in suites if not s.passed), key=lambda s: s.max_rel_err)
        print(f"gradcheck FAILED: {worst.name}, worst offender {worst.worst}", file=sys.stderr)
        return 1
    print("gradcheck passed")
    return 0


def _demo_parameter_report(seed: int) -> None:
    """Per-parameter table on one small stand-in network."""
    net, input_seq, labels = gradcheck._smooth_case(seed, 999, "ternary")
    _, _, _, analytic = bptt.loss_and_grads(net, input_seq, labels, smooth=True)
    fd = bptt.finite_difference(net, input_seq, labels, None, gradcheck.FD_STEP_DEFAULT)
    print("per-parameter report (one sample network, analytic vs central differences):")
    print(f"  {'parameter':<18}{'analytic':>15}{'oracle':>15}{'rel err':>12}  status")
    for name, idx, fa, ff, rel in bptt.relative_errors(analytic, fd, min_abs=gradcheck.FD_GRAD_FLOOR):
        for i, a, f, r in zip(idx, fa, ff, rel):
            status = "pass" if r <= gradcheck.TOL_FD else "FAIL"
            print(f"  {name + '[' + str(i) + ']':<18}{a:>15.8f}{f:>15.8f}{r:>12.2e}  {status}")


def cmd_hist(cfg: dict, model_path: str) -> int:
    out_dir = Path(cfg["out_dir"])
    _, eval_ds, _ = build_datasets(cfg)
    net = _load_model(cfg, model_path, eval_ds)
    echo_config(cfg, out_dir)
    bins, lo, hi = cfg["hist.bins"], cfg["hist.lo"], cfg["hist.hi"]
    edges = np.linspace(lo, hi, bins + 1)
    totals = {l: np.zeros((net.n_steps, bins), dtype=np.int64) for l in range(len(net.layers))}
    for _, _, cache in trainer.eval_batches(net, eval_ds):
        for l in range(len(net.layers)):
            counts, _ = net_mod.capture_histograms(cache, l, bins, (lo, hi))
            totals[l] += counts
    path = out_dir / "membrane_hist.csv"
    net_mod.write_histograms_csv(path, totals, edges, cfg["neuron.v_th"])
    print(f"wrote {path} ({len(net.layers)} layers x {net.n_steps} timesteps x {bins} bins)")
    return 0


_ABLATE_ARMS = (
    ("ternary", "ternary", False),
    ("ternary+ctsn", "ctsn_static", False),
    ("ctsn+tmpr", "ctsn_static", True),
)


def run_ablation(cfg: dict) -> list[dict]:
    """Three-arm comparison with shared seeds and shared data order."""
    n_seeds = cfg["ablate.seeds"]
    rows = []
    for t_steps in _ints(cfg["ablate.timesteps"]):
        arm_accs = {name: [] for name, _, _ in _ABLATE_ARMS}
        for s in range(n_seeds):
            run_cfg = dict(cfg)
            run_cfg["seed"] = cfg["seed"] + s
            run_cfg["train.t"] = t_steps
            for name, kind, with_tmpr in _ABLATE_ARMS:
                run_cfg["neuron.kind"] = kind
                run_cfg["tmpr.enabled"] = with_tmpr
                train_ds, eval_ds, _ = build_datasets(run_cfg)
                net = _build_net(run_cfg, train_ds.feature_dim, train_ds.num_classes)
                tc = _train_config(run_cfg)
                trainer.fit(net, train_ds, eval_ds, tc)
                arm_accs[name].append(trainer.evaluate(net, eval_ds))
        for name, _, _ in _ABLATE_ARMS:
            accs = np.array(arm_accs[name])
            rows.append(
                {
                    "method": name,
                    "timesteps": t_steps,
                    "mean_eval_acc": float(accs.mean()),
                    "sd_eval_acc": float(accs.std(ddof=1)) if len(accs) > 1 else 0.0,
                    "accs": [float(a) for a in accs],
                }
            )
    return rows


def cmd_ablate(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    echo_config(cfg, out_dir)
    rows = run_ablation(cfg)
    lines = ["method,timesteps,mean_eval_acc,sd_eval_acc"]
    for row in rows:
        lines.append(f"{row['method']},{row['timesteps']},{row['mean_eval_acc']!r},{row['sd_eval_acc']!r}")
    path = out_dir / "ablation.csv"
    path.write_text("\n".join(lines) + "\n")
    for row in rows:
        print(
            f"{row['method']:<14} T={row['timesteps']}: "
            f"{row['mean_eval_acc']:.4f} +- {row['sd_eval_acc']:.4f}  (seeds: {row['accs']})"
        )
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternspike",
        description="Desk-scale trainer for ternary spiking networks with complemented neurons",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, extra in (
        ("train", ()),
        ("eval", ("model",)),
        ("gradcheck", ("paper-recursion",)),
        ("hist", ("model",)),
        ("ablate", ()),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--neuron", help="shorthand for neuron.kind")
        p.add_argument("--no-tmpr", action="store_true", help="disable the potential regularizer")
        if "model" in extra:
            p.add_argument("--model", required=(name == "hist"), help="path to a saved model file")
        if "paper-recursion" in extra:
            p.add_argument(
                "--paper-recursion",
                action="store_true",
                help="report the closed-form recursion gap on complemented networks instead of gating",
            )
        p.add_argument("--fd-step", dest="gradcheck__fd_step", help=argparse.SUPPRESS)
        p.add_argument("--mode", dest="gradcheck__mode", help=argparse.SUPPRESS)
        for key in DEFAULTS:
            p.add_argument(f"--{key}", dest=key.replace(".", "__"), help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            if not args.model:
                raise ConfigError("eval requires --model")
            return cmd_eval(cfg, args.model)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, args.paper_recursion)
        if args.command == "hist":
            return cmd_hist(cfg, args.model)
        if args.command == "ablate":
            return cmd_ablate(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
