"""The per-batch path of desk training: its bits and its Python call budget.

The loss head, ``network.predict`` and the regularizer call numpy's reductions
directly and skip its Python wrappers; they must give the bits of the forms in
``reference.py`` exactly, at the edges too (one sample, one step, tied logits,
logits near exp's overflow).  The trainer counts a batch's correct predictions
from the loss head's time average instead of averaging again.  And one default
desk training batch may not grow in Python frames of the package.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from reference import ce_head_reference, copy_network, predict_reference, tmpr_grad_reference, tmpr_loss_reference

from ternspike import bptt, cli, network, trainer
from ternspike.loss import TMPRConfig, avg_ce_loss_and_grad, tmpr_grad, tmpr_loss
from ternspike.numerics import component_rng

PACKAGE = str(Path(network.__file__).resolve().parent)

# Python frames of the package in one default desk ctsn_static+TMPR training batch: encode_batch,
# loss_and_grads, sgd_step and the accuracy count, as train_epoch runs them.  The lean per-batch
# path reaches 86 (111 before it), one of them ``Network.views`` taking the gradient's views by
# name; a change that adds frames per batch must raise this on purpose.
DESK_BATCH_FRAMES = 86


def _logit_cases():
    rng = component_rng(71)
    yield "one sample", rng.normal(size=(4, 1, 5)), np.array([3])
    yield "one step", rng.normal(size=(1, 32, 4)), rng.integers(0, 4, size=32)
    yield "one sample, one step", rng.normal(size=(1, 1, 3)), np.array([0])
    tied = np.repeat(rng.normal(size=(3, 6, 1)), 4, axis=2)  # every class ties in every row
    tied[:, ::2, 2] += 1.0  # and in every other row two classes tie above the rest
    tied[:, ::2, 3] += 1.0
    yield "tied logits", tied, rng.integers(0, 4, size=6)
    yield "near 700", 700.0 + rng.normal(0.0, 1e-3, size=(4, 8, 5)), rng.integers(0, 5, size=8)
    yield "700 apart", rng.choice([-700.0, 0.0, 700.0], size=(3, 8, 4)), rng.integers(0, 4, size=8)
    for n_steps, batch, n_classes, scale in ((4, 32, 4, 1.0), (6, 3, 10, 30.0), (2, 17, 7, 3000.0)):
        yield f"random {scale}", rng.normal(0.0, scale, size=(n_steps, batch, n_classes)), rng.integers(0, n_classes, size=batch)


@pytest.mark.parametrize("case", list(_logit_cases()), ids=lambda case: case[0])
def test_loss_head_and_predict_give_the_reference_bits(case):
    _, logits, labels = case
    ce, grad, avg = avg_ce_loss_and_grad(logits, labels)
    want_ce, want_grad = ce_head_reference(logits, labels)
    assert ce == want_ce
    assert grad.dtype == want_grad.dtype and np.array_equal(grad, want_grad)
    want_pred = predict_reference(logits)
    assert np.array_equal(network.predict(logits), want_pred)
    assert np.array_equal(network.predict(list(logits)), want_pred)
    assert np.array_equal(avg.argmax(axis=1), want_pred)  # the trainer's count reads this average


@pytest.mark.parametrize("n_steps", [1, 4, 7])
@pytest.mark.parametrize("batch", [1, 32])
def test_regularizer_gives_the_reference_bits(n_steps, batch):
    rng = component_rng(72, n_steps, batch)
    pots = [rng.normal(0.0, scale, size=(n_steps, batch, width)) for scale, width in ((1.0, 12), (30.0, 5), (1e-3, 1))]
    for lam in (0.05, 0.01, 1.7):
        assert tmpr_loss(pots, TMPRConfig(lam=lam)) == tmpr_loss_reference(pots, lam)
        assert tmpr_loss([list(u) for u in pots], TMPRConfig(lam=lam)) == tmpr_loss_reference(pots, lam)
        for u in pots:
            assert np.array_equal(tmpr_grad(u, lam, len(pots)), tmpr_grad_reference(u, lam, len(pots)))


def _desk():
    """The default desk ctsn_static+TMPR training set, network and settings, as ``ternspike train`` builds them."""
    cfg = cli.resolve_config(cli.build_parser().parse_args(["train", "--neuron", "ctsn_static"]))
    train_ds, _, _ = cli.build_datasets(cfg)
    tc = cli._train_config(cfg)
    assert tc.tmpr.active
    return train_ds, cli._build_net(cfg, train_ds.feature_dim, train_ds.num_classes), tc


def test_each_batch_counts_what_predict_counts(monkeypatch):
    # one-batch epochs, so each batch's count is its epoch's train_acc times the batch size
    train_ds, net, tc = _desk()
    seen, encode, forward = [], trainer.encode_batch, network.forward

    def recorded_encode(data, idx, n_steps):
        xs, labels = encode(data, idx, n_steps)
        seen.append(labels)
        return xs, labels

    def recorded_forward(*args, **kwargs):
        logits, cache = forward(*args, **kwargs)
        seen.append(logits)
        return logits, cache

    monkeypatch.setattr(trainer, "encode_batch", recorded_encode)
    monkeypatch.setattr(network, "forward", recorded_forward)
    vel = bptt.GradSet.zeros_like(net)
    for start in range(0, 8 * tc.batch_size, tc.batch_size):
        seen.clear()
        batch = train_ds.subset(np.arange(start, start + tc.batch_size))
        acc = trainer.train_epoch(net, batch, tc, 0, vel)["train_acc"]
        labels, logits = seen
        assert acc == int((network.predict(logits) == labels).sum()) / tc.batch_size
    # and over a whole epoch of batches, the counts add up
    seen.clear()
    n = 4 * tc.batch_size
    acc = trainer.train_epoch(copy_network(net), train_ds.subset(np.arange(n)), tc, 1, vel)["train_acc"]
    assert acc == sum(int((network.predict(logits) == labels).sum()) for labels, logits in zip(seen[::2], seen[1::2])) / n


def _package_frames(fn) -> list[str]:
    """Names of the package's Python frames that ``fn()`` enters, comprehensions left out
    (Python 3.12 inlines them, so 3.10 and 3.12 count alike)."""
    names = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE) and not code.co_name.startswith("<"):
            names.append(code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return names


def test_a_desk_training_batch_keeps_its_call_budget():
    # the second batch of an epoch costs the frames of one batch: encode_batch,
    # loss_and_grads, sgd_step and the accuracy count, with the loop around them
    train_ds, net, tc = _desk()
    vel = bptt.GradSet.zeros_like(net)
    one, two = (_package_frames(lambda: trainer.train_epoch(net, train_ds.subset(np.arange(k * tc.batch_size)), tc, 0, vel))
                for k in (1, 2))
    per_batch = len(two) - len(one)
    assert per_batch <= DESK_BATCH_FRAMES, f"{per_batch} package frames per desk batch, budget {DESK_BATCH_FRAMES}"
