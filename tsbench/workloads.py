"""The four workloads: set-up, warm-up, timed runs and correctness checks.

Every workload drives the package through its public functions only:
``cli.resolve_config`` / ``build_datasets``, ``network.build_network``,
``trainer.fit`` / ``train_epoch`` / ``evaluate`` / ``save_model`` and
``cli.cmd_gradcheck``.  The seed picks the generated inputs; the program
sees nothing else of the benchmark.

An attempted operation is a training batch, an eval pass, a gradcheck
suite, a stand-in forward or backward, or a determinism comparison.  It
fails when it raises, when a loss is non-finite, when a gradcheck suite is
not PASS or the command exits nonzero, or when a same-seed rerun differs in
its per-epoch metric rows or saved model bytes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing

# Why each workload exists is recorded in BENCHMARK.json and predictions.json.
WIDE = ["--data.dims", "784", "--data.classes", "10", "--model.hidden", "800,800",
        "--train.batch_size", "64", "--train.t", "4", "--train.epochs", "1",
        "--data.n_train", "512", "--data.n_eval", "512"]

WORKLOADS = {
    "desk-ctsn-tmpr": {"kind": "train", "argv": ["train", "--neuron", "ctsn_static", "--tmpr.lambda", "0.05"]},
    "wide-static": {"kind": "train", "argv": ["train", *WIDE, "--neuron", "ternary", "--tmpr.lambda", "0.05"]},
    "wide-events": {"kind": "train", "argv": [
        "train", *WIDE, "--data.source", "synth_events", "--data.rate", "0.05",
        "--neuron", "ctsn_neuromorphic", "--tmpr.lambda", "0.01"]},
    # The default command: its suites draw their networks from the CLI's
    # default seed, so the workload seed only picks the stand-in inputs below.
    "gradcheck": {"kind": "gradcheck", "argv": ["gradcheck"]},
}

N_SETUPS = 9
# A traced run spends at most this share of its time traced, and stops
# tracing once this many spans are held (about 200 bytes each), so a traced
# desk run keeps about three fits and its memory stays small.
TRACE_SHARE, MAX_SPANS = 0.65, 120_000
# Stand-in shape for the gradcheck throughput figures: the upper bounds of
# gradcheck.random_network (3 hidden layers of 8 units, T=6, batch 3), one
# network per neuron kind, so the work per pass does not depend on the seed.
STANDIN_DIMS, STANDIN_CLASSES, STANDIN_T, STANDIN_B, STANDIN_NETS = [8, 8, 8, 8], 4, 6, 3, 12
STANDIN_SLICE = 0.1  # seconds of stand-in passes of each kind after every gradcheck run


@dataclass
class Outcome:
    """Samples and failure counts collected by one workload run."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def median(values):
    return statistics.median(values) if values else float("nan")


class Timers:
    """Light timers on ``trainer.train_epoch`` / ``sgd_step`` / ``evaluate``: one
    clock read per batch and per eval pass, so an untraced run stays untraced
    in effect.  They count the batches and eval passes that complete and,
    while ``record`` is set, sample per-batch and per-pass throughput."""

    def __init__(self, trainer, outcome: Outcome) -> None:
        self.trainer, self.outcome = trainer, outcome
        self.record = False
        self._mark = 0.0
        self._left = self._batch = 0

    def patches(self):
        train_epoch, sgd_step, evaluate = self.trainer.train_epoch, self.trainer.sgd_step, self.trainer.evaluate

        def timed_train(net, data, cfg, epoch, vel):
            self._left, self._batch = len(data.labels), cfg.batch_size
            self._mark = time.perf_counter()
            return train_epoch(net, data, cfg, epoch, vel)

        def timed_sgd(*args, **kwargs):
            sgd_step(*args, **kwargs)
            now = time.perf_counter()
            n = min(self._batch, self._left)
            self._left -= n
            self.outcome.ok()
            if self.record:
                self.outcome.sample("train_samples_per_s", n / (now - self._mark))
            self._mark = now

        def timed_eval(net, data, *args, **kwargs):
            t0 = time.perf_counter()
            acc = evaluate(net, data, *args, **kwargs)
            elapsed = time.perf_counter() - t0
            self.outcome.ok()
            if self.record:
                self.outcome.sample("eval_samples_per_s", len(data.labels) / elapsed)
            return acc

        return [(self.trainer, "train_epoch", timed_train), (self.trainer, "sgd_step", timed_sgd),
                (self.trainer, "evaluate", timed_eval)]


def _config(ts, spec: dict, seed: int) -> dict:
    argv = list(spec["argv"])
    if spec["kind"] == "train":
        argv += ["--seed", str(seed)]
    return ts.cli.resolve_config(ts.cli.build_parser().parse_args(argv))


def _build_net(ts, cfg: dict, feature_dim: int, n_classes: int):
    """The network ``ternspike train`` builds for this config, via ``network.build_network``."""
    hidden = [int(v) for v in str(cfg["model.hidden"]).split(",") if v.strip()]
    return ts.network.build_network(
        [feature_dim] + hidden, n_classes, ts.neuron.NeuronConfig(
            tau=cfg["neuron.tau"], v_th=cfg["neuron.v_th"], a=cfg["neuron.a"],
            reset=cfg["neuron.reset"], kind=cfg["neuron.kind"],
        ),
        cfg["train.t"], ts.numerics.component_rng(cfg["seed"], 0), init_scale=cfg["model.init_scale"],
    )


def _train_config(ts, cfg: dict):
    """The optimization settings ``ternspike train`` uses for this config."""
    return ts.trainer.TrainConfig(
        lr0=cfg["train.lr0"], momentum=cfg["train.momentum"], weight_decay=cfg["train.weight_decay"],
        batch_size=cfg["train.batch_size"], epochs=cfg["train.epochs"], seed=cfg["seed"],
        n_steps=cfg["train.t"], tmpr=ts.loss.TMPRConfig(lam=cfg["tmpr.lambda"], enabled=cfg["tmpr.enabled"]),
    )


def _setup(ts, spec: dict, seed: int, outcome: Outcome):
    """Config, data and network, timed ``N_SETUPS`` times; returns the last build."""
    times = []
    for _ in range(N_SETUPS):
        t0 = time.perf_counter()
        cfg = _config(ts, spec, seed)
        built = None
        if spec["kind"] == "train":
            train_ds, eval_ds, _ = ts.cli.build_datasets(cfg)
            net = _build_net(ts, cfg, train_ds.feature_dim, train_ds.num_classes)
            built = (train_ds, eval_ds, net)
        times.append(time.perf_counter() - t0)
    outcome.info["setup_repeat_s"] = times
    return cfg, built, median(times)


def _reps(seconds: float, at_least: int):
    """Yield repetition numbers until ``seconds`` have passed and ``at_least`` were made."""
    deadline = time.perf_counter() + seconds
    for rep in itertools.count():
        if rep >= at_least and time.perf_counter() > deadline:
            return
        yield rep


def _same(outcome: Outcome, ref, got, what: str) -> None:
    """One determinism comparison against the first run of this seed."""
    if ref == got:
        outcome.ok()
    else:
        outcome.fail(f"{what}: a same-seed rerun differs from the first run")


def _train_once(ts, cfg, data, out_dir: Path, outcome: Outcome, tracer=None):
    """One user-visible ``train``: fit plus save_model.

    Returns (run_s, (metrics.csv bytes, model.bin bytes), history), or None
    when it raised.
    """
    train_ds, eval_ds, _ = data
    net = _build_net(ts, cfg, train_ds.feature_dim, train_ds.num_classes)
    tc = _train_config(ts, cfg)
    span = tracer.span("trainer.fit") if tracer else contextlib.nullcontext()
    try:
        t0 = time.perf_counter()
        with span:
            history = ts.trainer.fit(net, train_ds, eval_ds, tc, metrics_path=out_dir / "metrics.csv")
            ts.trainer.save_model(out_dir / "model.bin", net)
        run_s = time.perf_counter() - t0
    except Exception as exc:  # a failing operation is counted, and the run goes on
        outcome.fail(f"train raised {type(exc).__name__}: {exc}")
        return None
    for m in history:
        if not (math.isfinite(m["ce_loss"]) and math.isfinite(m["tmpr_loss"])):
            outcome.fail(f"non-finite loss at epoch {m['epoch']}: ce {m['ce_loss']}, tmpr {m['tmpr_loss']}")
    return run_s, ((out_dir / "metrics.csv").read_bytes(), (out_dir / "model.bin").read_bytes()), history


def run_train(ts, spec, seed, seconds, trace, out_dir: Path, outcome: Outcome):
    cfg, data, setup_s = _setup(ts, spec, seed, outcome)
    net, batch = data[2], cfg["train.batch_size"]
    dims = tracing.net_dims(net)
    outcome.info["computed"] = {
        "forward_mflop_per_batch": tracing.forward_flops(dims, net.n_steps, batch) / 1e6,
        "backward_mflop_per_batch": tracing.backward_flops(dims, net.n_steps, batch) / 1e6,
        "sgd_step_params": tracing.param_count(net),
        "dims": dims,
    }
    timers = Timers(ts.trainer, outcome)
    with tracing.patched(timers.patches()):
        # Two same-seed runs first: the warm-up, and the reference every later
        # run must reproduce byte for byte.
        ref = None
        for _ in range(2):
            got = _train_once(ts, cfg, data, out_dir, outcome)
            if got is not None and ref is None:
                ref = got[1]
                outcome.info["eval_acc"] = got[2][-1]["eval_acc"]
            elif got is not None:
                _same(outcome, ref, got[1], "warm-up rerun")
    started = time.perf_counter()
    if trace:
        tracer = tracing.Tracer()
        traced_run = []
        with tracing.instrument(tracer, ts), tracing.patched(timers.patches()):
            for _ in range(N_SETUPS):
                train_ds, eval_ds, _ = ts.cli.build_datasets(cfg)
                _build_net(ts, cfg, train_ds.feature_dim, train_ds.num_classes)
            for rep in _reps(TRACE_SHARE * seconds, 2):
                if len(tracer.spans) > MAX_SPANS:
                    break
                tracer.run = rep + 1
                got = _train_once(ts, cfg, data, out_dir, outcome, tracer)
                if got is not None:
                    traced_run.append(got[0])
                    _same(outcome, ref, got[1], "traced rerun")
    # Untraced timed runs fill the rest of the budget.
    timers.record = True
    with tracing.patched(timers.patches()):
        for _ in _reps(seconds - (time.perf_counter() - started), 3):
            got = _train_once(ts, cfg, data, out_dir, outcome)
            if got is not None:
                outcome.sample("run_s", got[0])
                _same(outcome, ref, got[1], "timed rerun")
    if trace:
        _finish_trace(tracer, "train", traced_run, outcome, out_dir, {
            "trainer.sgd_step.computed_params": float(tracing.param_count(net)),
            "trainer.final_eval_acc": outcome.info.get("eval_acc", 0.0),
        })
    return setup_s


def _finish_trace(tracer, primary: str, traced_run, outcome: Outcome, out_dir: Path, extra: dict) -> None:
    """Per-layer metrics from the spans, the trace overhead, and the span file."""
    outcome.layers.update(tracing.layer_metrics(tracer, primary, len(traced_run)))
    outcome.layers.update(extra)
    untraced = median(outcome.samples.get("run_s", []))
    overhead = median(traced_run) / untraced if traced_run and untraced > 0 else 0.0
    outcome.layers["bench.trace_overhead"] = overhead
    outcome.info["traced_run_s"] = traced_run
    outcome.info["spans"] = len(tracer.spans)
    tracer.write(out_dir / "spans.csv")


def _gradcheck_once(ts, cfg, outcome: Outcome, tracer=None):
    """One user-visible ``gradcheck``; returns (run_s, captured stdout) or None."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli.cmd_gradcheck") if tracer else contextlib.nullcontext()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            with span:
                rc = ts.cli.cmd_gradcheck(cfg, False)
            run_s = time.perf_counter() - t0
    except Exception as exc:  # a failing operation is counted, and the run goes on
        outcome.fail(f"gradcheck raised {type(exc).__name__}: {exc}")
        return None
    text = out.getvalue()
    statuses = [line.split("]", 1) for line in text.splitlines() if line.startswith("[")]
    bad = [name.strip() for status, name in statuses if status != "[PASS"]
    outcome.ok(len(statuses) - len(bad))
    for name in bad:
        outcome.fail(f"gradcheck suite not PASS: {name}")
    if rc != 0 and not bad:
        outcome.fail(f"gradcheck exited {rc}: {err.getvalue().strip()}")
    if not statuses:
        outcome.fail("gradcheck printed no suite result")
    return run_s, text


def _standins(ts, seed: int):
    """Fixed-shape stand-in networks and inputs for the gradcheck throughput figures."""
    kinds = ("ternary", "ctsn_static", "ctsn_neuromorphic")
    cases = []
    for i in range(STANDIN_NETS):
        rng = ts.numerics.component_rng(seed, 7, i)
        net = ts.network.build_network(
            STANDIN_DIMS, STANDIN_CLASSES, ts.neuron.NeuronConfig(kind=kinds[i % 3]), STANDIN_T, rng, init_scale=1.2
        )
        for layer in net.layers:
            if layer.omega is not None:
                layer.omega.set_vector(rng.normal(0.0, 0.7, size=3))
        seq = [rng.normal(0.0, 1.0, size=(STANDIN_B, STANDIN_DIMS[0])) for _ in range(STANDIN_T)]
        cases.append((net, seq, rng.integers(0, STANDIN_CLASSES, size=STANDIN_B)))
    return cases


def _standin_pass(ts, cases, train: bool, outcome: Outcome) -> float:
    """Samples per second of one pass over the stand-ins: smooth forward (eval)
    or forward plus exact backward (train)."""
    t0 = time.perf_counter()
    ok = True
    for net, seq, labels in cases:
        if train:
            logits, cache = ts.network.forward(net, seq)
            mode = "ctsn" if net.cfg.is_ctsn else "ternary"
            grads = ts.bptt.backward_exact(cache, ts.loss.avg_ce_grad(logits, labels), net, mode)
            ok = ok and all(np.all(np.isfinite(g)) for _, g in grads.named())
        else:
            logits, _ = ts.network.forward(net, seq, smooth=True)
            ok = ok and all(np.all(np.isfinite(o)) for o in logits)
    elapsed = time.perf_counter() - t0
    if ok:
        outcome.ok(len(cases))
    else:
        outcome.fail(f"non-finite stand-in {'gradient' if train else 'logits'}")
    return len(cases) * STANDIN_B / elapsed


def run_gradcheck(ts, spec, seed, seconds, trace, out_dir: Path, outcome: Outcome):
    cfg, _, setup_s = _setup(ts, spec, seed, outcome)
    outcome.info["gradcheck_seed"] = cfg["seed"]
    cases = _standins(ts, seed)
    dims = STANDIN_DIMS + [STANDIN_CLASSES]
    outcome.info["computed"] = {
        "standin_forward_mflop_per_call": tracing.forward_flops(dims, STANDIN_T, STANDIN_B) / 1e6,
        "standin_backward_mflop_per_call": tracing.backward_flops(dims, STANDIN_T, STANDIN_B) / 1e6,
        "dims": dims,
    }
    warm = _gradcheck_once(ts, cfg, outcome)
    ref = warm[1] if warm else None
    started = time.perf_counter()
    if trace:
        tracer = tracing.Tracer()
        traced_run = []
        with tracing.instrument(tracer, ts):
            for rep in _reps(TRACE_SHARE * seconds, 2):
                if len(tracer.spans) > MAX_SPANS:
                    break
                tracer.run = rep + 1
                got = _gradcheck_once(ts, cfg, outcome, tracer)
                if got is not None:
                    traced_run.append(got[0])
                    _same(outcome, ref, got[1], "traced gradcheck")
    # Untraced runs of the command fill the rest of the budget.  After each,
    # a short slice of stand-in passes of each kind, so those samples spread
    # over the whole run like the training workloads' batches do.
    for train in (True, False):
        _standin_pass(ts, cases, train, outcome)  # warm-up pass
    for _ in _reps(seconds - (time.perf_counter() - started), 3):
        got = _gradcheck_once(ts, cfg, outcome)
        if got is not None:
            outcome.sample("run_s", got[0])
            _same(outcome, ref, got[1], "gradcheck")
        for train, name in ((True, "train_samples_per_s"), (False, "eval_samples_per_s")):
            for _ in _reps(STANDIN_SLICE, 1):
                outcome.sample(name, _standin_pass(ts, cases, train, outcome))
    if trace:
        _finish_trace(tracer, "gradcheck", traced_run, outcome, out_dir, {
            "trainer.sgd_step.computed_params": 0.0,
            "trainer.final_eval_acc": 0.0,
        })
    return setup_s


def run_workload(ts, spec: dict, seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    """Run one workload; a failing operation of the program is counted, never raised."""
    outcome = Outcome()
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = run_train if spec["kind"] == "train" else run_gradcheck
    try:
        outcome.info["setup_median_s"] = runner(ts, spec, seed, seconds, trace, out_dir, outcome)
    except Exception:  # set-up itself failed: report it as a failed operation
        outcome.fail("workload raised:\n" + traceback.format_exc())
    return outcome
