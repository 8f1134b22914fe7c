"""Spans recorded from outside the package, around the calls into each layer.

A span is opened by wrapping the module attribute a caller looks up, so a
name imported with ``from x import y`` is patched in the importing module,
not where it is defined.  Spans stay in memory and are written out when
the run ends.  The context of a span is inherited from its root:
``train`` under ``trainer.train_epoch``, ``eval`` under ``trainer.evaluate``,
``gradcheck`` under ``cli.cmd_gradcheck`` and ``setup`` elsewhere, so the
forwards inside ``evaluate`` are never counted as training.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, RUN, CTX, CHILD, EXCLUDED = range(8)

_ROOT_CONTEXT = {
    "trainer.train_epoch": "train",
    "trainer.evaluate": "eval",
    "cli.cmd_gradcheck": "gradcheck",
}


def forward_flops(dims, n_steps: int, batch: int) -> int:
    """Required forward GEMM flops: 2*T*B*sum(D_in*D_out), readout included."""
    return 2 * n_steps * batch * sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def backward_flops(dims, n_steps: int, batch: int) -> int:
    """Required backward GEMM flops: dW for every map, input adjoints for all but layer 0."""
    pairs = [a * b for a, b in zip(dims[:-1], dims[1:])]
    return 2 * n_steps * batch * (sum(pairs) + sum(pairs[1:]))


def net_dims(net) -> list[int]:
    return [net.input_dim] + [layer.w.shape[1] for layer in net.layers] + [net.n_classes]


def param_count(net) -> int:
    """Parameters updated by one SGD step: weights, biases and omega triples."""
    total = net.readout.w.size + net.readout.b.size
    for layer in net.layers:
        total += layer.w.size + layer.b.size + (3 if layer.omega is not None else 0)
    return total


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries.

    A span is a list: name, start and end (ns), parent index, run id,
    context, time covered by its children, and time excluded as the
    benchmark's own counting.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = 0
        self.counts: dict[tuple[str, str], float] = {}

    def add(self, ctx: str, key: str, value: float) -> None:
        self.counts[(ctx, key)] = self.counts.get((ctx, key), 0.0) + value

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        ctx = _ROOT_CONTEXT.get(name) or (self.spans[parent][CTX] if parent >= 0 else "setup")
        rec = [name, 0, 0, parent, self.run, ctx, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self.stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START] - rec[EXCLUDED]

    @contextmanager
    def span(self, name: str):
        """Open a span around a block."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, observe=None):
        """Callable that records a span per call.  ``observe(ctx, args, kwargs,
        result)`` counts after the span has closed; its time is taken out of
        every enclosing span, so the benchmark's counting is not charged to
        the program."""

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                t0 = time.perf_counter_ns()
                observe(rec[CTX], args, kwargs, result)
                spent = time.perf_counter_ns() - t0
                for i in self.stack:
                    self.spans[i][EXCLUDED] += spent
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("name,start_ns,end_ns,parent,run,context,excluded_ns\n")
            for s in self.spans:
                f.write(f"{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[RUN]},{s[CTX]},{s[EXCLUDED]}\n")


@contextmanager
def patched(targets):
    """Temporarily replace module attributes: ``targets`` is (module, attr, new)."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, new in targets:
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)


@contextmanager
def instrument(tracer: Tracer, ts):
    """Install every layer wrapper on the package modules ``ts``."""
    def seen_input(ctx, args, kwargs, result):
        if ctx == "eval":
            return
        xs_seq, _ = result
        tracer.add(ctx, "input_nonzero", sum(int(np.count_nonzero(x)) for x in xs_seq))
        tracer.add(ctx, "input_values", sum(x.size for x in xs_seq))

    def seen_forward(ctx, args, kwargs, result):
        net, input_seq = args[0], args[1]
        batch = np.shape(input_seq[0])[0]
        tracer.add(ctx, "forward_flops", forward_flops(net_dims(net), net.n_steps, batch))
        if ctx != "eval" and not kwargs.get("smooth", False):
            _, cache = result
            for row in cache.entries:
                for e in row:
                    tracer.add(ctx, "spikes_nonzero", int(np.count_nonzero(e.o)))
                    tracer.add(ctx, "spikes_total", e.o.size)

    def seen_backward(ctx, args, kwargs, result):
        cache, _, net = args[0], args[1], args[2]
        batch = cache.entries[0][0].u.shape[0]
        tracer.add(ctx, "backward_flops", backward_flops(net_dims(net), net.n_steps, batch))
        for row in cache.entries:
            for e in row:
                tracer.add(ctx, "window_inside", float(e.surrogate.sum()))
                tracer.add(ctx, "window_total", e.surrogate.size)

    def at(mod, attr: str, name: str, observe=None):
        return mod, attr, tracer.wrap(name, getattr(mod, attr), observe)

    cli, network, neuron, loss, bptt, trainer, gradcheck = (
        ts.cli, ts.network, ts.neuron, ts.loss, ts.bptt, ts.trainer, ts.gradcheck,
    )
    targets = [
        at(cli, "build_datasets", "cli.build_datasets"),
        at(network, "build_network", "network.build_network"),
        at(trainer, "encode_batch", "data.encode_batch", seen_input),
        at(network, "forward", "network.forward", seen_forward),
        at(network, "ctsn_step", "neuron.step"),
        at(network, "ternary_step", "neuron.step"),
        at(network, "ternary_step_soft", "neuron.step"),
        at(network, "surrogate", "neuron.surrogate"),
        at(neuron, "effective_params", "neuron.effective_params"),
        at(bptt, "effective_params", "neuron.effective_params"),
        at(loss, "avg_ce_loss", "loss.avg_ce_loss"),
        at(loss, "avg_ce_grad", "loss.avg_ce_grad"),
        at(loss, "tmpr_loss", "loss.tmpr_loss"),
        at(loss, "tmpr_grad", "loss.tmpr_grad"),
        at(bptt, "backward_exact", "bptt.backward_exact", seen_backward),
        at(bptt, "backward_recursion", "bptt.backward_recursion"),
        at(bptt, "finite_difference", "bptt.finite_difference"),
        at(bptt, "max_relative_error", "bptt.max_relative_error"),
        at(bptt, "surrogate_smooth_forward", "bptt.surrogate_smooth_forward"),
        at(trainer, "sgd_step", "trainer.sgd_step"),
        at(trainer, "train_epoch", "trainer.train_epoch"),
        at(trainer, "evaluate", "trainer.evaluate"),
        at(gradcheck, "suite_recursion_vs_exact", "gradcheck.suite_recursion_vs_exact"),
        at(gradcheck, "suite_fd", "gradcheck.suite_fd"),
        at(gradcheck, "suite_tmpr_fd", "gradcheck.suite_tmpr_fd"),
        at(gradcheck, "_smooth_case", "gradcheck.smooth_case"),
        at(gradcheck, "random_network", "gradcheck.random_network"),
    ]
    with patched(targets):
        yield


_TRAIN_TOP = ("data.encode_batch", "network.forward", "bptt.backward_exact", "trainer.sgd_step")


def layer_metrics(tracer: Tracer, primary: str, n_runs: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    ``primary`` is the context the workload's user-visible command runs in
    (``train`` or ``gradcheck``); ``n_runs`` is how many traced runs of that
    command were made.  A layer the workload never calls reports 0.
    """
    spans = tracer.spans
    busy: dict[tuple[str, str], int] = {}
    calls: dict[tuple[str, str], int] = {}
    self_ns: dict[tuple[str, str], int] = {}
    top_train_ns = 0
    accepted = drawn = fd_evals = 0
    for s in spans:
        key = (s[CTX], s[NAME])
        dur = s[END] - s[START] - s[EXCLUDED]
        busy[key] = busy.get(key, 0) + dur
        calls[key] = calls.get(key, 0) + 1
        self_ns[key] = self_ns.get(key, 0) + dur - s[CHILD]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if parent == "trainer.train_epoch" and (s[NAME] in _TRAIN_TOP or s[NAME].startswith("loss.")):
            top_train_ns += dur
        if s[NAME] == "gradcheck.smooth_case":
            accepted += 1
        elif s[NAME] == "gradcheck.random_network" and parent == "gradcheck.smooth_case":
            drawn += 1
        elif s[NAME] == "bptt.surrogate_smooth_forward" and parent == "bptt.finite_difference":
            fd_evals += 1

    def ms(name, ctx=primary):
        return busy.get((ctx, name), 0) / 1e6

    def n(name, ctx=primary):
        return calls.get((ctx, name), 0)

    def per(num, den):
        return num / den if den else 0.0

    def count(key, ctx=primary):
        return tracer.counts.get((ctx, key), 0.0)

    root = {"train": "trainer.train_epoch", "gradcheck": "cli.cmd_gradcheck"}[primary]
    total_ms = ms(root)
    batches = n("trainer.sgd_step")
    loss_names = ("loss.avg_ce_loss", "loss.avg_ce_grad", "loss.tmpr_loss", "loss.tmpr_grad")
    ce_ms = ms("loss.avg_ce_loss") + ms("loss.avg_ce_grad")
    tmpr_ms = ms("loss.tmpr_loss") + ms("loss.tmpr_grad")
    fwd_calls, bwd_calls = n("network.forward"), n("bptt.backward_exact")
    return {
        "cli.build_datasets.ms": per(ms("cli.build_datasets", "setup"), n("cli.build_datasets", "setup")),
        "network.build_network.ms": per(ms("network.build_network", "setup"), n("network.build_network", "setup")),
        "data.encode_batch.ms_per_call": per(ms("data.encode_batch"), n("data.encode_batch")),
        "data.encode_batch.share": per(ms("data.encode_batch"), total_ms),
        "data.input_density": per(count("input_nonzero"), count("input_values")),
        "network.forward.ms_per_call": per(ms("network.forward"), fwd_calls),
        "network.forward.self_ms_per_call": per(self_ns.get((primary, "network.forward"), 0) / 1e6, fwd_calls),
        "network.forward.share": per(ms("network.forward"), total_ms),
        "network.forward.gflops_per_s": per(count("forward_flops"), ms("network.forward") * 1e6),
        "network.forward.computed_mflop_per_call": per(count("forward_flops") / 1e6, fwd_calls),
        "network.spike_rate": per(count("spikes_nonzero"), count("spikes_total")),
        "neuron.step.calls_per_batch": per(n("neuron.step"), batches),
        "neuron.step.ms_per_call": per(ms("neuron.step"), n("neuron.step")),
        "neuron.step.share": per(ms("neuron.step"), total_ms),
        "neuron.effective_params.calls_per_batch": per(n("neuron.effective_params"), batches),
        "loss.ce.ms_per_batch": per(ce_ms, batches),
        "loss.tmpr.ms_per_batch": per(tmpr_ms, batches),
        "loss.tmpr_grad.calls_per_batch": per(n("loss.tmpr_grad"), batches),
        "loss.share": per(sum(ms(name) for name in loss_names), total_ms),
        "bptt.backward_exact.ms_per_call": per(ms("bptt.backward_exact"), bwd_calls),
        "bptt.backward_exact.share": per(ms("bptt.backward_exact"), total_ms),
        "bptt.backward_exact.gflops_per_s": per(count("backward_flops"), ms("bptt.backward_exact") * 1e6),
        "bptt.backward_exact.computed_mflop_per_call": per(count("backward_flops") / 1e6, bwd_calls),
        "bptt.surrogate_occupancy": per(count("window_inside"), count("window_total")),
        "bptt.backward_recursion.ms_per_call": per(ms("bptt.backward_recursion"), n("bptt.backward_recursion")),
        "bptt.finite_difference.share": per(ms("bptt.finite_difference"), total_ms),
        "bptt.fd_loss_evals_per_s": per(fd_evals, ms("bptt.finite_difference") / 1e3),
        "bptt.max_relative_error.ms_per_call": per(ms("bptt.max_relative_error"), n("bptt.max_relative_error")),
        "trainer.sgd_step.ms_per_call": per(ms("trainer.sgd_step"), batches),
        "trainer.sgd_step.share": per(ms("trainer.sgd_step"), total_ms),
        "trainer.evaluate.ms_per_call": per(ms("trainer.evaluate", "eval"), n("trainer.evaluate", "eval")),
        "gradcheck.suite_recursion_vs_exact.s": per(ms("gradcheck.suite_recursion_vs_exact") / 1e3, n_runs),
        "gradcheck.suite_fd.s": per(ms("gradcheck.suite_fd") / 1e3, n_runs),
        "gradcheck.suite_tmpr_fd.s": per(ms("gradcheck.suite_tmpr_fd") / 1e3, n_runs),
        "gradcheck.case_accept_ratio": per(accepted, drawn),
        "bench.train_span_coverage": per(top_train_ns / 1e6, total_ms) if primary == "train" else 0.0,
    }


LAYER_UNITS = {
    "cli.build_datasets.ms": "ms",
    "network.build_network.ms": "ms",
    "data.encode_batch.ms_per_call": "ms",
    "data.encode_batch.share": "ratio",
    "data.input_density": "ratio",
    "network.forward.ms_per_call": "ms",
    "network.forward.self_ms_per_call": "ms",
    "network.forward.share": "ratio",
    "network.forward.gflops_per_s": "GFLOP/s",
    "network.forward.computed_mflop_per_call": "MFLOP",
    "network.spike_rate": "ratio",
    "neuron.step.calls_per_batch": "count",
    "neuron.step.ms_per_call": "ms",
    "neuron.step.share": "ratio",
    "neuron.effective_params.calls_per_batch": "count",
    "loss.ce.ms_per_batch": "ms",
    "loss.tmpr.ms_per_batch": "ms",
    "loss.tmpr_grad.calls_per_batch": "count",
    "loss.share": "ratio",
    "bptt.backward_exact.ms_per_call": "ms",
    "bptt.backward_exact.share": "ratio",
    "bptt.backward_exact.gflops_per_s": "GFLOP/s",
    "bptt.backward_exact.computed_mflop_per_call": "MFLOP",
    "bptt.surrogate_occupancy": "ratio",
    "bptt.backward_recursion.ms_per_call": "ms",
    "bptt.finite_difference.share": "ratio",
    "bptt.fd_loss_evals_per_s": "1/s",
    "bptt.max_relative_error.ms_per_call": "ms",
    "trainer.sgd_step.ms_per_call": "ms",
    "trainer.sgd_step.share": "ratio",
    "trainer.sgd_step.computed_params": "count",
    "trainer.evaluate.ms_per_call": "ms",
    "trainer.final_eval_acc": "ratio",
    "gradcheck.suite_recursion_vs_exact.s": "s",
    "gradcheck.suite_fd.s": "s",
    "gradcheck.suite_tmpr_fd.s": "s",
    "gradcheck.case_accept_ratio": "ratio",
    "bench.train_span_coverage": "ratio",
    "bench.trace_overhead": "ratio",
}
