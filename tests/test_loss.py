import numpy as np
import pytest

from ternspike.errors import StateError
from ternspike.loss import (
    TMPRConfig,
    avg_ce_grad,
    avg_ce_loss,
    avg_ce_loss_and_grad,
    tmpr_grad,
    tmpr_loss,
)


class TestAvgCE:
    def test_uniform_logits_give_log_classes(self):
        for n_classes in (2, 5, 10):
            logits = [np.zeros((3, n_classes))]
            assert avg_ce_loss(logits, np.zeros(3, dtype=int)) == pytest.approx(np.log(n_classes))

    def test_averaging_idempotent_on_identical_steps(self):
        rng = np.random.default_rng(0)
        o = rng.normal(size=(4, 3))
        labels = np.array([0, 1, 2, 1])
        single = avg_ce_loss([o], labels)
        repeated = avg_ce_loss([o] * 5, labels)
        assert repeated == pytest.approx(single, abs=1e-12)

    def test_two_step_hand_average(self):
        logits = [np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]])]
        assert avg_ce_loss(logits, np.array([0])) == pytest.approx(np.log(2.0))

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        o = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        base = avg_ce_loss([o], labels)
        shifted = avg_ce_loss([o + 123.456], labels)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_confident_wrong_prediction_stays_finite(self):
        # log of a softmax probability underflows to log(0) = inf here
        assert avg_ce_loss([np.array([[2000.0, -2000.0]])] * 2, np.array([1])) == 4000.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            avg_ce_loss([np.zeros((0, 3))], np.zeros(0, dtype=int))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            avg_ce_loss([np.zeros((1, 3))], np.array([3]))

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        outputs = [rng.normal(size=(2, 3)) for _ in range(4)]
        labels = np.array([0, 2])
        grads = avg_ce_grad(outputs, labels)
        step = 1e-6
        for t in range(4):
            for i in range(outputs[t].size):
                orig = outputs[t].flat[i]
                outputs[t].flat[i] = orig + step
                f_plus = avg_ce_loss(outputs, labels)
                outputs[t].flat[i] = orig - step
                f_minus = avg_ce_loss(outputs, labels)
                outputs[t].flat[i] = orig
                fd = (f_plus - f_minus) / (2 * step)
                assert grads[t].flat[i] == pytest.approx(fd, abs=1e-9)

    def test_softmax_rows_sum_to_one(self):
        # every step's gradient is (softmax - onehot) / (B * T)
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 7, size=6)
        _, grad = avg_ce_loss_and_grad(rng.normal(size=(2, 6, 7)) * 50, labels)
        p = grad[0] * (6 * 2)
        p[np.arange(6), labels] += 1.0
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p >= 0)


def _reference_ce(outputs, labels):
    """Loss and per-step gradient, restacking the per-step list for each as
    two separate functions did."""
    rows = np.arange(len(labels))
    avg = np.stack([np.asarray(o, dtype=np.float64) for o in outputs]).mean(axis=0)
    shifted = avg - avg.max(axis=-1, keepdims=True)
    ce = float(np.mean(np.log(np.exp(shifted).sum(axis=-1)) - shifted[rows, labels]))
    avg = np.stack([np.asarray(o, dtype=np.float64) for o in outputs]).mean(axis=0)
    e = np.exp(avg - avg.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    p[rows, labels] -= 1.0
    return ce, [p / (len(labels) * len(outputs)) for _ in outputs]


class TestLossHead:
    @pytest.mark.parametrize("scale", [1.0, 30.0, 3000.0])
    def test_bit_equal_to_reference_and_per_step_functions(self, scale):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n_steps, batch, n_classes = rng.integers(1, 7), rng.integers(1, 40), rng.integers(2, 11)
            logits = rng.normal(0.0, scale, size=(n_steps, batch, n_classes))
            labels = rng.integers(0, n_classes, size=batch)
            ce, grad = avg_ce_loss_and_grad(logits, labels)
            want_ce, want_grad = _reference_ce(list(logits), labels)
            assert grad.shape == logits.shape
            assert ce == want_ce == avg_ce_loss(list(logits), labels)
            for got, ref, per_step in zip(grad, want_grad, avg_ce_grad(list(logits), labels)):
                assert got.tobytes() == ref.tobytes() == per_step.tobytes()

    def test_margin_beyond_exp_underflow(self):
        # a margin above ~745 underflows exp to 0: the loss is the margin, the gradient finite
        logits = np.array([[[2000.0, -2000.0], [0.0, 800.0]]] * 3)
        labels = np.array([1, 0])
        ce, grad = avg_ce_loss_and_grad(logits, labels)
        want_ce, want_grad = _reference_ce(list(logits), labels)
        assert ce == want_ce == (4000.0 + 800.0) / 2
        assert np.all(np.isfinite(grad))
        for got, ref in zip(grad, want_grad):
            assert got.tobytes() == ref.tobytes()


class TestTMPRLoss:
    def test_hand_value(self):
        # one layer, one step, batch 1, two features of value 1, lam 0.05
        pots = [[np.array([[1.0, 1.0]])]]
        assert tmpr_loss(pots, TMPRConfig(lam=0.05)) == pytest.approx(0.05)

    def test_zero_potentials(self):
        pots = [[np.zeros((2, 3))] * 4]
        assert tmpr_loss(pots, TMPRConfig(lam=0.05)) == 0.0

    def test_time_weight_is_inverse_t(self):
        u = np.array([[1.0, -2.0]])
        z = np.zeros_like(u)
        cfg = TMPRConfig(lam=0.3)
        early = tmpr_loss([[u, z]], cfg)
        late = tmpr_loss([[z, u]], cfg)
        assert early == pytest.approx(2.0 * late)

    def test_nonnegative_and_zero_iff_silent(self):
        rng = np.random.default_rng(4)
        pots = [[rng.normal(size=(2, 3)) for _ in range(3)] for _ in range(2)]
        assert tmpr_loss(pots, TMPRConfig(lam=0.05)) > 0.0

    def test_disabled_returns_zero(self):
        pots = [[np.ones((1, 1))]]
        assert tmpr_loss(pots, TMPRConfig(lam=0.05, enabled=False)) == 0.0

    def test_missing_record_rejected(self):
        with pytest.raises(StateError):
            tmpr_loss([[np.ones((1, 1)), None]], TMPRConfig(lam=0.05))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            TMPRConfig(lam=-0.1)


class TestTMPRGrad:
    def test_hand_value(self):
        g = tmpr_grad(np.array([[[1.0, 1.0]]]), lam=0.05, n_layers=1)
        assert g[0, 0, 0] == pytest.approx(0.05)

    def test_zero_potential_zero_grad(self):
        for u in (np.zeros((5, 2, 4)), np.zeros((5, 2, 3))):
            np.testing.assert_array_equal(tmpr_grad(u, lam=0.05, n_layers=2), 0.0)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        step = 1e-3  # quadratic: central differences exact up to roundoff
        for _ in range(100):
            n_layers = int(rng.integers(1, 4))
            n_steps = int(rng.integers(1, 6))
            widths = [int(rng.integers(1, 5)) for _ in range(n_layers)]
            batch = int(rng.integers(1, 4))
            lam = float(rng.uniform(0.01, 0.5))
            cfg = TMPRConfig(lam=lam)
            pots = [rng.normal(size=(n_steps, batch, widths[l])) for l in range(n_layers)]
            l = int(rng.integers(0, n_layers))
            t = int(rng.integers(0, n_steps))
            analytic = tmpr_grad(pots[l], lam, n_layers)[t]
            i = int(rng.integers(0, pots[l][t].size))
            orig = pots[l][t].flat[i]
            pots[l][t].flat[i] = orig + step
            f_plus = tmpr_loss(pots, cfg)
            pots[l][t].flat[i] = orig - step
            f_minus = tmpr_loss(pots, cfg)
            pots[l][t].flat[i] = orig
            fd = (f_plus - f_minus) / (2 * step)
            assert analytic.flat[i] == pytest.approx(fd, abs=1e-8)

    def test_bit_equal_to_per_step_formula(self):
        rng = np.random.default_rng(9)
        pots = [rng.normal(size=(4, 3, d)) for d in (5, 2)]
        lam = 0.05
        g = [tmpr_grad(u, lam, len(pots)) for u in pots]
        for l, u in enumerate(pots):
            assert g[l].shape == u.shape
            for t in range(4):
                want = 2 * lam / ((t + 1) * 4 * 2 * 3 * u.shape[2]) * u[t]
                assert g[l][t].tobytes() == want.tobytes()
