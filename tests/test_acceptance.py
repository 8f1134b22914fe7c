"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
report.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest
from reference import closed_form_potential, literal_pair_count, write_idx_images, write_idx_labels

from ternspike import bptt, cli, data as data_mod, loss as loss_mod, network as net_mod, trainer
from ternspike.bptt import kappa
from ternspike.gradcheck import (
    suite_fd,
    suite_recursion_vs_exact,
    suite_tmpr_fd,
)
from ternspike.loss import TMPRConfig
from ternspike.neuron import (
    NeuronConfig,
    NeuronState,
    effective_params,
    ternary_step,
)
from ternspike.numerics import component_rng


def _report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name}: {status}{'  (' + detail + ')' if detail else ''}")


def _ablate_config(**overrides):
    cfg = dict(cli.DEFAULTS)
    cfg.update(overrides)
    return cfg


def test_A1_closed_form_oracle():
    """1,000 random histories, T <= 10: closed form equals iteration <= 1e-12."""
    start = time.time()
    rng = np.random.default_rng(11)
    cfg = NeuronConfig()
    worst = 0.0
    for trial in range(1000):
        n_steps = int(rng.integers(1, 11))
        width = int(rng.integers(1, 5))
        xs = [rng.normal(0.0, 1.0, size=(width,)) for _ in range(n_steps)]
        if trial % 2 == 0:
            # spikes produced by the neuron itself
            state = NeuronState.zeros((width,))
            spikes, potentials = [], []
            for t in range(n_steps):
                o, state = ternary_step(state, xs[t], cfg)
                spikes.append(o)
                potentials.append(state.u)
        else:
            # forced spike history driven through the same recurrence
            spikes = [rng.choice([-1.0, 0.0, 1.0], size=(width,)) for _ in range(n_steps)]
            u = np.zeros(width)
            o_prev = np.zeros(width)
            potentials = []
            for t in range(n_steps):
                u = cfg.tau * u * (1.0 - np.abs(o_prev)) + xs[t]
                potentials.append(u)
                o_prev = spikes[t]
        t_probe = int(rng.integers(1, n_steps + 1))
        diff = np.abs(
            closed_form_potential(xs, spikes, cfg.tau, t_probe) - potentials[t_probe - 1]
        ).max()
        worst = max(worst, float(diff))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report("A1 closed-form potential oracle", ok, f"worst abs err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_A2_gradient_cross_implementation():
    """Recursion vs exact traversal, 100 random nets of each kind, <= 1e-10."""
    start = time.time()
    results = [suite_recursion_vs_exact(seed=0, n_networks=100, tol=1e-10, kind=kind)
               for kind in ("ternary", "ctsn_static", "ctsn_neuromorphic")]
    elapsed = time.time() - start
    ok = all(r.passed for r in results) and elapsed < 30.0
    _report(
        "A2 recursion-vs-exact gradients",
        ok,
        "; ".join(f"{r.name} max rel err {r.max_rel_err:.2e} at {r.worst}" for r in results) + f", {elapsed:.1f}s",
    )
    for r in results:
        assert r.passed, f"{r.name}: {r.worst}"
    assert elapsed < 30.0


def test_A3_finite_difference_gate():
    """Exact backward matches central FD (step 1e-6) on the smooth stand-in."""
    start = time.time()
    results = [
        suite_fd("ternary", seed=0, n_networks=4, step=1e-6, tol=1e-5),
        suite_fd("ctsn_static", seed=0, n_networks=4, step=1e-6, tol=1e-5),
        suite_fd("ctsn_neuromorphic", seed=0, n_networks=4, step=1e-6, tol=1e-5),
        suite_fd("ctsn_static", seed=0, n_networks=2, step=1e-6, tol=1e-5, with_tmpr=True),
    ]
    elapsed = time.time() - start
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 60.0
    _report("A3 finite-difference gate", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    for r in results:
        assert r.passed, f"{r.name}: {r.worst}"
    assert elapsed < 60.0


def test_A4_tmpr_gradient():
    """Analytic regularizer gradient vs FD of its value, 100 configs, <= 1e-8."""
    start = time.time()
    result = suite_tmpr_fd(seed=0, n_configs=100, tol=1e-8)
    elapsed = time.time() - start
    ok = result.passed and elapsed < 5.0
    _report("A4 regularizer gradient", ok, f"max err {result.max_rel_err:.2e}, {elapsed:.1f}s")
    assert result.passed, result.worst
    assert elapsed < 5.0


def test_A5_kappa_dead_zone():
    """kappa(u) = 0 for all sampled |u| >= 1.5 * v_th (10,000-point sweep)."""
    v_th, tau = 0.5, 0.25
    mags = np.linspace(1.5 * v_th, 60.0, 5000)
    vals = np.concatenate([kappa(mags, tau, v_th), kappa(-mags, tau, v_th)])
    ok = bool(np.all(vals == 0.0))
    _report("A5 kappa dead zone", ok, "10,000 points, all exactly zero")
    assert ok


def test_A6_short_horizon_degeneracy():
    """The complemented recursion applies zero blend-memory factors at T <= 2."""
    counts = {}
    for n_steps in (1, 2, 3):
        rng = component_rng(21, n_steps)
        cfg = NeuronConfig(kind="ctsn_static")
        net = net_mod.build_network([5, 6, 6], 3, cfg, n_steps, rng, init_scale=1.2)
        seq = [rng.normal(size=(3, 5)) for _ in range(n_steps)]
        labels = rng.integers(0, 3, size=3)
        logits, cache = net_mod.forward(net, seq)
        dL = loss_mod.avg_ce_grad(logits, labels)
        counts[n_steps] = literal_pair_count(cache, dL, net)
    ok = counts[1] == 0 and counts[2] == 0 and counts[3] > 0
    _report("A6 T<=2 degeneracy", ok, f"factor counts by T: {counts}")
    assert counts[1] == 0
    assert counts[2] == 0
    assert counts[3] > 0  # sanity: the counter is live


def test_A7_ablation_ordering():
    """Three-arm ablation on the default static task: ordering holds and the
    full method strictly beats the baseline (3 seeds, T=4, 30 epochs)."""
    start = time.time()
    rows = cli.run_ablation(_ablate_config())
    elapsed = time.time() - start
    acc = {row["method"]: row["mean_eval_acc"] for row in rows}
    t, c, ct = acc["ternary"], acc["ternary+ctsn"], acc["ctsn+tmpr"]
    ok = (t <= c <= ct) and (ct > t) and elapsed < 600.0
    _report(
        "A7 ablation direction of effect",
        ok,
        f"ternary {t:.4f} <= +ctsn {c:.4f} <= +ctsn+tmpr {ct:.4f}, {elapsed:.0f}s",
    )
    assert t <= c <= ct, (t, c, ct)
    assert ct > t, (t, ct)
    assert elapsed < 600.0


def _first_step_mean_square(net, eval_ds):
    xs, _ = data_mod.encode_batch(eval_ds, np.arange(len(eval_ds.labels)), net.n_steps)
    _, cache = net_mod.forward(net, xs)
    return float(np.mean([np.mean(cache.entries[l][0].u_tilde ** 2) for l in range(len(net.layers))]))


def test_A8_tmpr_compaction():
    """lam = 0.05 vs 0 on the A7 task: first-step mean-square potential drops."""
    cfg = _ablate_config()
    pairs = []
    for seed in (cfg["seed"], cfg["seed"] + 1, cfg["seed"] + 2):
        run_cfg = dict(cfg)
        run_cfg["seed"] = seed
        run_cfg["neuron.kind"] = "ctsn_static"
        values = {}
        for lam in (0.05, 0.0):
            run_cfg["tmpr.enabled"] = lam > 0
            run_cfg["tmpr.lambda"] = lam
            train_ds, eval_ds, _ = cli.build_datasets(run_cfg)
            net = cli._build_net(run_cfg, train_ds.feature_dim, train_ds.num_classes)
            tc = cli._train_config(run_cfg)
            trainer.fit(net, train_ds, eval_ds, tc)
            values[lam] = _first_step_mean_square(net, eval_ds)
        pairs.append((seed, values[0.05], values[0.0]))
    ok = all(with_reg < without for _, with_reg, without in pairs)
    detail = "; ".join(f"seed {s}: {w:.3f} < {wo:.3f}" for s, w, wo in pairs)
    _report("A8 regularizer compaction", ok, detail)
    for seed, with_reg, without in pairs:
        assert with_reg < without, (seed, with_reg, without)


FAST_TRAIN = [
    "--train.epochs", "3",
    "--data.n_train", "128",
    "--data.n_eval", "64",
    "--model.hidden", "12",
    "--train.batch_size", "32",
    "--neuron", "ctsn_static",
]


def test_A9_lambda_zero_equivalence(tmp_path):
    """Regularizer enabled at lam = 0 is byte-identical to disabled."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--out_dir", str(out_a), "--tmpr.lambda", "0"] + FAST_TRAIN) == 0
    assert cli.main(["train", "--out_dir", str(out_b), "--no-tmpr"] + FAST_TRAIN) == 0
    same = (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    _report("A9 lambda-zero equivalence", same, "metrics byte-identical")
    assert same


def test_A10_run_determinism(tmp_path):
    """Two identical train invocations produce byte-identical outputs."""
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["train", "--out_dir", str(out), "--seed", "7"] + FAST_TRAIN) == 0
        outs.append(out)
    same_metrics = (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    same_model = (outs[0] / "model.bin").read_bytes() == (outs[1] / "model.bin").read_bytes()
    _report("A10 determinism", same_metrics and same_model, "metrics and model byte-identical")
    assert same_metrics and same_model


def test_A11_idx_round_trip():
    """Parse-then-serialize reproduces a 100-sample IDX fixture bit-exactly."""
    rng = np.random.default_rng(31)
    images = rng.integers(0, 256, size=(100, 9, 7), dtype=np.uint8)
    labels = rng.integers(0, 10, size=100, dtype=np.uint8)
    img_blob = write_idx_images(images)
    lbl_blob = write_idx_labels(labels)
    ok = (
        write_idx_images(data_mod.parse_idx_images(img_blob)) == img_blob
        and write_idx_labels(data_mod.parse_idx_labels(lbl_blob)) == lbl_blob
    )
    _report("A11 IDX round trip", ok, "100-sample fixture bit-exact")
    assert ok


def test_A12_parameter_constraint():
    """Effective mixing factors start at 0.5 and stay strictly inside (0,1)."""
    cfg = NeuronConfig(kind="ctsn_static")
    rng = component_rng(41, 0)
    corpus = data_mod.synth_static(256, 8, 3, 2.5, rng, mirror=True)
    mean, std = data_mod.dataset_stats(corpus)
    corpus = data_mod.normalize(corpus, mean, std)
    net = net_mod.build_network([8, 12, 12], 3, cfg, 4, component_rng(41, 1))
    at_init = [effective_params(l.omega) for l in net.layers]
    init_ok = all(v == 0.5 for triple in at_init for v in triple)
    tc = trainer.TrainConfig(epochs=8, seed=41, n_steps=4, batch_size=32, tmpr=TMPRConfig(lam=0.05))
    vel = bptt.GradSet.zeros_like(net)
    bounds_ok = True
    moved = False
    for epoch in range(tc.epochs):
        trainer.train_epoch(net, corpus, tc, epoch, vel)
        for layer in net.layers:
            triple = effective_params(layer.omega)
            bounds_ok = bounds_ok and all(0.0 < v < 1.0 for v in triple)
            moved = moved or any(v != 0.5 for v in triple)
    ok = init_ok and bounds_ok and moved
    _report("A12 mixing-factor constraint", ok, "0.5 at init, in (0,1) every epoch, and learning")
    assert init_ok
    assert bounds_ok
    assert moved  # sanity: the parameters actually train
