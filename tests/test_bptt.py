import math
import tracemalloc

import numpy as np
import pytest
from reference import literal_pair_count, literal_recursion_ctsn

from ternspike import bptt, data as data_mod, loss as loss_mod, network as net_mod
from ternspike.bptt import (
    GradSet,
    backward_exact,
    backward_recursion,
    central_diff,
    epsilon,
    finite_difference,
    kappa,
    loss_and_grads,
    max_relative_error,
    relative_errors,
    surrogate_smooth_forward,
    xi,
)
from ternspike.errors import NumericError, StateError
from ternspike.gradcheck import random_network
from ternspike.loss import TMPRConfig
from ternspike.network import Network, forward, smooth_spike
from ternspike.neuron import CTSNParams, NeuronConfig, blend_rule, effective_params, rate, surrogate, ternary_fire
from ternspike.numerics import component_rng


class TestEpsilon:
    def test_silent_neuron_gives_tau(self):
        assert epsilon(7.3, 0.0, 1.0, 0.25) == pytest.approx(0.25)

    def test_firing_in_window(self):
        assert epsilon(0.6, 1.0, 1.0, 0.25) == pytest.approx(-0.15)

    def test_dead_surrogate_zeroes_reset_path(self):
        assert epsilon(1.2, 1.0, 0.0, 0.25) == pytest.approx(0.0)

    def test_magnitude_bound(self):
        rng = np.random.default_rng(0)
        u = rng.normal(0, 2, size=5000)
        o = np.sign(u) * (np.abs(u) >= 0.5)
        H = (np.abs(u) - 0.5 < 0.5).astype(float)
        eps = epsilon(u, o, H, 0.25)
        assert np.all(np.abs(eps) <= 0.25 * (1.0 + np.abs(u) * H) + 1e-15)

    @pytest.mark.parametrize("v_th,a", [(0.5, 0.5), (0.3, 0.2)])
    def test_engine_factor_vanishes_only_past_the_window(self, v_th, a):
        # o and H as the engine forms them: tau below threshold, -tau |u~| in the window,
        # exactly 0 only from |u~| >= v_th + a (kappa is already 0 from 1.5 v_th)
        tau = 0.25
        u = np.concatenate([np.linspace(-3.0, 3.0, 6001), [v_th, -v_th, v_th + a, -(v_th + a)]])
        eps = epsilon(u, ternary_fire(u, v_th), surrogate(u, v_th, a), tau)
        mag = np.abs(u)
        below, window = mag < v_th, (v_th <= mag) & (mag < v_th + a)
        np.testing.assert_array_equal(eps[below], tau)
        np.testing.assert_array_equal(eps[window], -tau * mag[window])
        np.testing.assert_array_equal(eps[~below & ~window], 0.0)
        assert min(below.sum(), window.sum(), (~below & ~window).sum()) >= 400
        assert eps[-4:].tolist() == [-tau * v_th] * 2 + [0.0] * 2
        if v_th == a == 0.5:
            assert epsilon(0.8, 1.0, 1.0, tau) == pytest.approx(-0.2) and kappa(0.8, tau, v_th) == 0.0


class TestKappa:
    def test_positive_inner_branch(self):
        assert kappa(0.25, 0.25, 0.5) == pytest.approx(0.1875)

    def test_negative_inner_branch(self):
        assert kappa(-0.25, 0.25, 0.5) == pytest.approx(0.1875)

    def test_beyond_cutoff_is_zero(self):
        assert kappa(0.8, 0.25, 0.5) == 0.0

    def test_dead_zone_sweep(self):
        u = np.linspace(0.75, 50.0, 5000)
        assert np.all(kappa(u, 0.25, 0.5) == 0.0)
        assert np.all(kappa(-u, 0.25, 0.5) == 0.0)

    def test_outer_branches(self):
        assert kappa(-0.6, 0.25, 0.5) == pytest.approx(0.25 * -0.6)
        assert kappa(0.6, 0.25, 0.5) == pytest.approx(0.25 * (-1.0 + 0.6))


class TestChoice:
    TABLE = np.array((7.0, 5.0))  # (below 0, at or above 0)

    def test_above(self):
        assert rate(self.TABLE, 0.3) == 5.0

    def test_below(self):
        assert rate(self.TABLE, -0.3) == 7.0

    def test_pivot_inclusive(self):
        assert rate(self.TABLE, 0.0) == 5.0


class TestGradHG:
    # the blend's h-derivative is the rate of h(t-1): (alpha, beta, gamma) = (0.3, 0.8, 0.6)
    def test_static_uses_sign_of_memory(self):
        r_h, _ = blend_rule("ctsn_static", (0.3, 0.8, 0.6))
        assert rate(r_h, 0.2) == pytest.approx(0.3)
        assert rate(r_h, -0.2) == pytest.approx(0.8)

    def test_neuromorphic_is_constant_alpha(self):
        r_h, _ = blend_rule("ctsn_neuromorphic", (0.3, 0.8, 0.6))
        for h in (-2.0, 0.0, 3.0):
            assert rate(r_h, h) == pytest.approx(0.3)


class TestXi:
    def _params_half(self):
        return CTSNParams()  # alpha = beta = gamma = 0.5

    def test_silent_neuron_keeps_blend_term_only(self):
        val = xi(0.1, 0.0, 0.3, 1.0, self._params_half(), "ctsn_static", 0.25)
        assert float(val) == pytest.approx(0.5)

    def test_firing_neuron_hand_value(self):
        val = xi(0.0, 1.0, 0.6, 1.0, self._params_half(), "ctsn_static", 0.25)
        assert float(val) == pytest.approx(0.5 + 0.5 * (-0.25 * 0.6))

    def test_dead_surrogate_leaves_blend_term(self):
        val = xi(0.0, 1.0, 1.2, 0.0, self._params_half(), "ctsn_static", 0.25)
        assert float(val) == pytest.approx(0.5)

    def test_neuromorphic_branches_on_next_potential(self):
        p = CTSNParams(omega_beta=1.0, omega_gamma=-1.0)
        _, beta, gamma = effective_params(p)
        up = xi(0.4, 0.0, 0.3, 1.0, p, "ctsn_neuromorphic", 0.25)
        down = xi(-0.4, 0.0, 0.3, 1.0, p, "ctsn_neuromorphic", 0.25)
        assert float(up) == pytest.approx(beta)
        assert float(down) == pytest.approx(gamma)


def _tiny_identity_net(kind="ternary", n_steps=1, fan=1):
    """One hidden unit with unit weight and an identity readout."""
    net = Network((fan, fan), fan, NeuronConfig(kind=kind), n_steps)
    net.layers[0].w[...] = np.eye(fan)
    net.readout.w[...] = np.eye(fan)
    return net


class TestBackwardExact:
    def test_single_step_single_weight_chain(self):
        # T=1, w=1, input 0.3, u~=0.3, H=1, upstream dL/do=1 -> dL/dw = 0.3
        net = _tiny_identity_net()
        _, cache = forward(net, [np.array([[0.3]])])
        grads = backward_exact(cache, [np.array([[1.0]])], net, "ternary")
        assert grads["layer0.w"][0, 0] == pytest.approx(0.3)

    def test_dead_masks_zero_hidden_grads(self):
        # inputs far outside the surrogate window kill every hidden path
        net = _tiny_identity_net(n_steps=2)
        _, cache = forward(net, [np.array([[5.0]]), np.array([[5.0]])])
        assert all(e.surrogate[0, 0] == 0.0 for e in cache.entries[0])
        grads = backward_exact(cache, [np.array([[1.0]])] * 2, net, "ternary")
        assert grads["layer0.w"][0, 0] == 0.0
        assert grads["layer0.b"][0] == 0.0

    def test_incomplete_cache_rejected(self):
        # a trace is built whole by forward; the only incomplete one is empty
        net = _tiny_identity_net()
        with pytest.raises(StateError):
            net_mod.Trace(layers=[], x=np.zeros((1, 1)), cfg=net.cfg)
        no_steps = net_mod.LayerTrace(u_tilde=np.zeros((0, 1, 1)), o=np.zeros((0, 1, 1)))
        with pytest.raises(StateError):
            net_mod.Trace(layers=[no_steps], x=np.zeros((1, 1)), cfg=net.cfg)

    def test_mode_network_mismatch_rejected(self):
        net = _tiny_identity_net()
        _, cache = forward(net, [np.array([[0.3]])])
        with pytest.raises(ValueError):
            backward_exact(cache, [np.array([[1.0]])], net, "ctsn")


class TestRecursionAgainstExact:
    def test_two_step_identity(self):
        net = _tiny_identity_net(n_steps=2)
        seq = [np.array([[0.3]]), np.array([[0.2]])]
        _, cache = forward(net, seq)
        dL = [np.array([[1.0]]), np.array([[0.5]])]
        g_rec = backward_recursion(cache, dL, net, "ternary")
        g_ex = backward_exact(cache, dL, net, "ternary")
        err, _ = max_relative_error(g_rec, g_ex)
        assert err <= 1e-12

    def test_random_networks_agree(self):
        worst = 0.0
        for i in range(30):
            rng = component_rng(42, i)
            net, seq, labels = random_network(rng, kind="ternary")
            logits, cache = forward(net, seq)
            dL = loss_mod.avg_ce_grad(logits, labels)
            g_ex = backward_exact(cache, dL, net, "ternary")
            g_rec = backward_recursion(cache, dL, net, "ternary")
            err, _ = max_relative_error(g_ex, g_rec)
            worst = max(worst, err)
        assert worst <= 1e-10

    def test_recursion_with_injection_agrees(self):
        for i in range(10):
            rng = component_rng(43, i)
            net, seq, labels = random_network(rng, kind="ternary")
            logits, cache = forward(net, seq)
            dL = loss_mod.avg_ce_grad(logits, labels)
            tmpr = TMPRConfig(lam=0.05)
            g_ex = backward_exact(cache, dL, net, "ternary", tmpr)
            g_rec = backward_recursion(cache, dL, net, "ternary", tmpr)
            err, _ = max_relative_error(g_ex, g_rec)
            assert err <= 1e-10

    def test_t1_exact_equality_all_kinds(self):
        for kind, mode in (("ternary", "ternary"), ("ctsn_static", "ctsn"), ("ctsn_neuromorphic", "ctsn")):
            rng = component_rng(44)
            net, _, labels = random_network(rng, kind=kind, max_steps=1)
            seq = [rng.normal(size=(3, net.input_dim))]
            net.n_steps = 1
            logits, cache = forward(net, seq)
            dL = loss_mod.avg_ce_grad(logits, labels)
            g_ex = backward_exact(cache, dL, net, mode)
            g_rec = backward_recursion(cache, dL, net, mode)
            err, _ = max_relative_error(g_ex, g_rec)
            assert err <= 1e-12, kind


class TestComplementalFactorCounter:
    @pytest.mark.parametrize("n_steps,expect_zero", [(1, True), (2, True), (3, False), (4, False)])
    def test_counter_by_horizon(self, n_steps, expect_zero):
        rng = component_rng(45, n_steps)
        cfg = NeuronConfig(kind="ctsn_static")
        net = net_mod.build_network([4, 5], 3, cfg, n_steps, rng, init_scale=1.2)
        seq = [rng.normal(size=(2, 4)) for _ in range(n_steps)]
        labels = rng.integers(0, 3, size=2)
        logits, cache = forward(net, seq)
        dL = loss_mod.avg_ce_grad(logits, labels)
        pairs = literal_pair_count(cache, dL, net)
        if expect_zero:
            assert pairs == 0
        else:
            assert pairs > 0


def _literal_recursion_ternary(cache, l, direct, H):
    """The O(T^3) factor-product sum: every product rebuilt from one."""
    eps = epsilon(cache.layers[l].u_tilde, cache.layers[l].o, H, cache.cfg.tau)
    dx = direct.copy()
    for t in range(len(direct)):
        for t_next in range(t + 1, len(direct)):
            prod = np.ones_like(dx[t])
            for k in range(1, t_next - t + 1):
                prod = prod * eps[t_next - k]
            dx[t] += direct[t_next] * prod
    return dx


class TestRecursionAgainstLiteralLoops:
    @staticmethod
    def _case(kind, n_steps):
        rng = component_rng(51, n_steps)
        cfg = NeuronConfig(kind=kind)
        net = net_mod.build_network([6, 7, 5], 3, cfg, n_steps, rng, init_scale=1.5)
        for layer in net.layers:
            if layer.omega is not None:
                layer.omega.set_vector(rng.normal(0.0, 0.7, size=3))
        _, cache = forward(net, [rng.normal(size=(4, 6)) for _ in range(n_steps)])
        for l in range(len(cache.layers)):
            H = cache.surrogate(l)
            yield net, cache, l, H, rng.normal(size=H.shape) * (rng.random(H.shape) < 0.8)

    @pytest.mark.parametrize("kind", ("ternary", "ctsn_static", "ctsn_neuromorphic"))
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 6, 9])
    def test_same_bits_and_factor_count(self, kind, n_steps):
        for net, cache, l, H, direct in self._case(kind, n_steps):
            got = bptt._recursion(cache, l, direct, H, net.layers[l].omega)
            if kind == "ternary":
                assert got[1] is None
                assert got[0].tobytes() == _literal_recursion_ternary(cache, l, direct, H).tobytes()
            else:
                want = literal_recursion_ctsn(cache, l, direct, H, net.layers[l].omega)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
                # a product reaching t' from t holds t' - t - 1 pairs: C(T, 3) in all
                assert want[2] == math.comb(n_steps, 3)

    @pytest.mark.parametrize("kind", ("ctsn_static", "ctsn_neuromorphic"))
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 6])
    def test_paper_xi_same_bits(self, kind, n_steps):
        for net, cache, l, H, direct in self._case(kind, n_steps):
            got = bptt._recursion(cache, l, direct, H, net.layers[l].omega, paper_xi=True)
            want = literal_recursion_ctsn(cache, l, direct, H, net.layers[l].omega, paper_xi=True)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


def _per_array_max_relative_error(a, b, min_abs=0.0):
    """The per-array search: a later array's worst replaces the current one only if larger."""
    worst, where = 0.0, "none"
    for name, idx, _, _, rel in relative_errors(a, b, min_abs):
        if rel.size and rel.max() > worst:
            k = int(np.argmax(rel))
            worst, where = float(rel[k]), f"{name}[{idx[k]}]"
    return worst, where


class TestMaxRelativeErrorAgainstPerArrayLoop:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_worst_entry(self, seed):
        rng = component_rng(52, seed)
        net, _, _ = random_network(rng, kind=KINDS[seed % 3])
        a = GradSet(net, rng.normal(size=net.params.size) * (rng.random(net.params.size) < 0.7))
        b = GradSet(net, a.vector * (1.0 + rng.normal(0.0, 1e-3, size=a.vector.size)))
        if seed % 4 == 1:  # ties between arrays: the same error planted in two of them
            a.vector[[3, -1]], b.vector[[3, -1]] = 1.0, 0.5
        if seed % 4 == 2:  # infinite errors: non-finite entries in several arrays
            a.vector[[5, -2]] = [np.inf, np.nan]
        if seed % 4 == 3:  # a floor that skips most entries
            b.vector[::2] = 1e-9
        for min_abs in (0.0, 1e-8, 0.5):
            assert max_relative_error(a, b, min_abs) == _per_array_max_relative_error(a, b, min_abs)

    def test_all_skipped_and_all_equal_give_none(self):
        net, _, _ = random_network(component_rng(53), kind="ternary")
        a, b = GradSet.zeros_like(net), GradSet.zeros_like(net)
        b.vector[:] = 1e-9
        assert max_relative_error(a, b, 1e-8) == (0.0, "none") == _per_array_max_relative_error(a, b, 1e-8)
        assert max_relative_error(b, b) == (0.0, "none") == _per_array_max_relative_error(b, b)


KINDS = ("ternary", "ctsn_static", "ctsn_neuromorphic")


def _reference_finite_difference(net, input_seq, labels, tmpr, step):
    """The literal oracle: perturb one entry at a time in place, differentiate the
    stand-in loss through ``network.forward(smooth=True)``, restore the entry."""

    def loss():
        logits, cache = forward(net, input_seq, smooth=True)
        total = loss_mod.avg_ce_loss_and_grad(logits, labels)[0]
        if tmpr is not None and tmpr.active:
            total = total + loss_mod.tmpr_loss(cache.potentials(), tmpr)
        return total

    grads = GradSet.zeros_like(net)
    for (_, param), (_, out) in zip(GradSet.of(net).named(), grads.named()):
        values, out = param.ravel(), out.ravel()  # views, so writes reach the network
        for i in range(values.size):
            orig = values[i]

            def loss_at(x: float) -> float:
                values[i] = x
                return loss()

            try:
                out[i] = central_diff(loss_at, orig, step)
            finally:
                values[i] = orig
    return grads


def _param_bytes(net):
    return [arr.tobytes() for _, arr in GradSet.of(net).named()]


def _assert_bit_equal(got: GradSet, want: GradSet):
    for (name, g), (_, w) in zip(got.named(), want.named()):
        assert g.tobytes() == w.tobytes(), name


# seed 3 case 0 has one hidden layer and seed 7 case 0 has T=1 for every kind
FD_CASES = [(seed, kind, lam) for seed in (2, 3, 7) for kind in KINDS for lam in (None, 0.05)]


class TestFiniteDifferenceOracle:
    def test_scalar_square(self):
        assert central_diff(lambda p: p * p, 3.0, 1e-6) == pytest.approx(6.0, abs=1e-6)

    def test_scalar_constant(self):
        assert central_diff(lambda p: 42.0, 1.0, 1e-6) == 0.0

    def test_smooth_standin_flat_in_dead_zone(self):
        # deep in the clamp region the stand-in output ignores small input shifts
        v_th = a = 0.5
        assert smooth_spike(np.array([3.0]), v_th, a)[0] == smooth_spike(np.array([3.001]), v_th, a)[0]

    def test_smooth_standin_continuous_at_threshold(self):
        v_th = a = 0.5
        eps = 1e-9
        lo = smooth_spike(np.array([v_th + a - eps]), v_th, a)[0]
        hi = smooth_spike(np.array([v_th + a + eps]), v_th, a)[0]
        assert hi - lo == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("kind,mode", [("ternary", "ternary"), ("ctsn_static", "ctsn"), ("ctsn_neuromorphic", "ctsn")])
    def test_exact_backward_matches_fd_on_standin(self, kind, mode):
        from ternspike.gradcheck import _smooth_case

        net, seq, labels = _smooth_case(7, 0, kind)
        _, _, _, g_exact = loss_and_grads(net, seq, labels, smooth=True)
        g_fd = finite_difference(net, seq, labels, None, 1e-6)
        err, where = max_relative_error(g_exact, g_fd, min_abs=1e-8)
        assert err <= 1e-5, where

    def test_fd_with_regularized_loss(self):
        from ternspike.gradcheck import _smooth_case

        tmpr = TMPRConfig(lam=0.05)
        net, seq, labels = _smooth_case(8, 1, "ctsn_static")
        _, _, _, g_exact = loss_and_grads(net, seq, labels, tmpr, smooth=True)
        g_fd = finite_difference(net, seq, labels, tmpr, 1e-6)
        err, where = max_relative_error(g_exact, g_fd, min_abs=1e-8)
        assert err <= 1e-5, where

    @pytest.mark.parametrize("seed,kind,lam", FD_CASES)
    def test_bit_equal_to_one_entry_at_a_time(self, seed, kind, lam):
        from ternspike.gradcheck import _smooth_case

        tmpr = None if lam is None else TMPRConfig(lam=lam)
        net, seq, labels = _smooth_case(seed, 0, kind)
        if seed == 7:
            assert net.n_steps == 1
        if seed == 3:
            assert len(net.layers) == 1
        want = _reference_finite_difference(net, seq, labels, tmpr, 1e-6)
        _assert_bit_equal(finite_difference(net, seq, labels, tmpr, 1e-6), want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_equal_with_input_shared_over_time(self, kind):
        from ternspike.gradcheck import _smooth_case

        net, seq, labels = _smooth_case(2, 1, kind)
        seq = np.asarray(seq[0])[None]  # one (1, B, D) input for every step: layer 0's input current is shared
        tmpr = TMPRConfig(lam=0.05)
        want = _reference_finite_difference(net, seq, labels, tmpr, 1e-6)
        _assert_bit_equal(finite_difference(net, seq, labels, tmpr, 1e-6), want)

    def test_independent_of_the_engine_forward(self, monkeypatch):
        from ternspike import neuron as neuron_mod
        from ternspike.gradcheck import _smooth_case

        tmpr = TMPRConfig(lam=0.05)
        cases = [_smooth_case(2, 0, kind) for kind in KINDS]
        want = [_reference_finite_difference(net, seq, labels, tmpr, 1e-6) for net, seq, labels in cases]
        losses = [surrogate_smooth_forward(net, seq, labels, tmpr) for net, seq, labels in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the engine")

        for mod, names in (
            (net_mod, ("forward", "_run_layer", "_affine", "decay", "blend", "blend_rule")),
            (neuron_mod, ("decay", "reset_keep", "blend", "blend_rule", "rate")),
            (loss_mod, ("avg_ce_loss_and_grad", "tmpr_loss")),
            (bptt, ("reset_keep", "blend_rule", "rate")),
        ):
            for name in names:
                monkeypatch.setattr(mod, name, refuse)
        for (net, seq, labels), g_ref, loss in zip(cases, want, losses):
            _assert_bit_equal(finite_difference(net, seq, labels, tmpr, 1e-6), g_ref)
            assert surrogate_smooth_forward(net, seq, labels, tmpr) == loss

    def test_fd_restores_parameters(self):
        # the oracle never writes the network: it runs with every parameter array read-only
        from ternspike.gradcheck import _smooth_case

        net, seq, labels = _smooth_case(2, 0, "ctsn_static")
        before = _param_bytes(net)
        for _, arr in GradSet.of(net).named():
            arr.flags.writeable = False
        finite_difference(net, seq, labels, TMPRConfig(lam=0.05), 1e-6)
        assert _param_bytes(net) == before

    def test_fd_nonfinite_loss_raises_and_restores(self):
        # a readout of 1e308 on two saturated units makes every logit infinite
        net = _tiny_identity_net(kind="ctsn_static", fan=2)
        net.layers[0].omega.set_vector([0.3, -0.2, 0.1])
        net.readout.w[:] = 1e308
        before = _param_bytes(net)
        with pytest.raises(NumericError, match="non-finite loss during finite differencing"):
            finite_difference(net, [np.array([[2.0, 2.0]])], [0], None, 1e-6)
        assert _param_bytes(net) == before

    def test_nonpositive_step_rejected(self):
        net = _tiny_identity_net()
        for step in (0.0, -1e-6):
            with pytest.raises(ValueError, match="step must be positive"):
                finite_difference(net, [np.array([[0.3]])], [0], None, step)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("lam", [None, 0.05])
    def test_standin_loss_equals_engine_loss(self, kind, lam):
        from ternspike.gradcheck import _smooth_case

        tmpr = None if lam is None else TMPRConfig(lam=lam)
        for seed in (2, 3, 7):
            net, seq, labels = _smooth_case(seed, 0, kind)
            ce, tmpr_val, _, _ = loss_and_grads(net, seq, labels, tmpr, smooth=True)
            assert surrogate_smooth_forward(net, seq, labels, tmpr) == ce + tmpr_val


class TestCtsnRecursionGap:
    def test_documented_gap_is_reported_not_hidden(self):
        from ternspike.gradcheck import ctsn_recursion_report

        report = ctsn_recursion_report(seed=1, n_networks=6)
        assert report["agree_at_T1"]
        assert "note" in report and report["note"]

    def test_no_t1_network_is_not_agreement(self):
        # none of seed 2's ten stream-4 draws has T=1, so there is nothing to agree at T=1
        from ternspike.gradcheck import ctsn_recursion_report

        report = ctsn_recursion_report(seed=2)
        assert report["n_T1"] == 0
        assert report["agree_at_T1"] is None
        assert ctsn_recursion_report(seed=1, n_networks=6)["n_T1"] == 2

    @pytest.mark.parametrize("kind", ("ctsn_static", "ctsn_neuromorphic"))
    def test_default_recursion_closes_the_gap(self, kind):
        # the paper's xi lacks tau * (1 - |o|); the default first factor g_u * epsilon keeps it
        from ternspike.gradcheck import _recursion_gaps

        paper = max(err for _, _, err, _ in _recursion_gaps(kind, 2, 4, 10, paper_xi=True))
        exact = max(err for _, _, err, _ in _recursion_gaps(kind, 2, 4, 10))
        assert paper > 1.0
        assert exact <= 1e-10

    def test_gap_vanishes_when_factors_match(self):
        # with T=1 there is no temporal term at all, so the paper's missing
        # tau*(1-|o|) factor cannot show and the recursion equals the exact graph
        rng = component_rng(46)
        net, _, labels = random_network(rng, kind="ctsn_static", max_steps=1)
        net.n_steps = 1
        seq = [rng.normal(size=(3, net.input_dim))]
        logits, cache = forward(net, seq)
        dL = loss_mod.avg_ce_grad(logits, labels)
        err, _ = max_relative_error(
            backward_exact(cache, dL, net, "ctsn"), backward_recursion(cache, dL, net, "ctsn")
        )
        assert err <= 1e-12


class TestSaturatedLimit:
    """Omegas of +-800 and 40 put the effective factors at exactly 0 and 1, where each blend
    is h(t) = u(t): the complemented net is then the ternary net with the same weights."""

    OMEGAS = {"ctsn_static": (-800.0, -800.0, 40.0), "ctsn_neuromorphic": (-800.0, 40.0, 40.0)}

    @staticmethod
    def _pair(kind, dims, n_steps, seed):
        rng = component_rng(52, seed)
        comp = net_mod.build_network(dims[:-1], dims[-1], NeuronConfig(kind=kind), n_steps, rng, init_scale=1.5)
        tern = net_mod.build_network(dims[:-1], dims[-1], NeuronConfig(), n_steps, rng)
        comp_params, tern_params = GradSet.of(comp), GradSet.of(tern)
        for name, arr in tern_params.named():
            arr[...] = comp_params[name]
        for layer in comp.layers:
            layer.omega.set_vector(TestSaturatedLimit.OMEGAS[kind])
        seq = [rng.normal(size=(5, dims[0])) for _ in range(n_steps)]
        return comp, tern, seq, rng.integers(0, dims[-1], size=5)

    @staticmethod
    def _assert_same_grads(comp_grads, tern_grads):
        for name, arr in comp_grads.named():
            if name.endswith(".omega"):
                assert np.all(arr == 0.0), name  # the sigmoid is flat at the limit
            else:
                assert arr.tobytes() == tern_grads[name].tobytes(), name

    @pytest.mark.parametrize("kind", ("ctsn_static", "ctsn_neuromorphic"))
    @pytest.mark.parametrize("dims,n_steps", [([6, 7, 5, 3], 6), ([16, 12, 12, 4], 4), ([5, 4, 2], 3), ([4, 6, 3], 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_complemented_net_is_the_ternary_net(self, kind, dims, n_steps, seed):
        comp, tern, seq, labels = self._pair(kind, dims, n_steps, seed)
        for layer in comp.layers:
            assert effective_params(layer.omega) == tuple(float(w > 0.0) for w in self.OMEGAS[kind])
        for smooth in (False, True):
            comp_logits, _ = forward(comp, seq, smooth=smooth)
            tern_logits, _ = forward(tern, seq, smooth=smooth)
            assert comp_logits.tobytes() == tern_logits.tobytes()
        for tmpr in (None, TMPRConfig(lam=0.3)):
            comp_grads = loss_and_grads(comp, seq, labels, tmpr)[3]
            self._assert_same_grads(comp_grads, loss_and_grads(tern, seq, labels, tmpr)[3])
        grads = []
        for net, mode in ((comp, "ctsn"), (tern, "ternary")):
            logits, cache = forward(net, seq)
            grads.append(backward_recursion(cache, loss_mod.avg_ce_grad(logits, labels), net, mode))
        self._assert_same_grads(*grads)


class TestGradSet:
    def test_named_order_is_stable(self):
        rng = component_rng(47)
        net, _, _ = random_network(rng, kind="ctsn_static")
        names = [name for name, _ in GradSet.zeros_like(net).named()]
        assert names[0] == "layer0.w"
        assert names[-2:] == ["readout.w", "readout.b"]
        assert any(n.endswith(".omega") for n in names)

    def test_relative_errors_skip_floor_and_flag_nonfinite(self):
        rng = component_rng(49)
        net, _, _ = random_network(rng, kind="ternary")
        a, b = GradSet.zeros_like(net), GradSet.zeros_like(net)
        a["layer0.w"].flat[:3] = [1.0, 2.0, 1e-9]
        b["layer0.w"].flat[:3] = [1.5, 2.0, 0.0]
        a["readout.b"][0] = np.nan
        errs = {name: (idx.tolist(), rel.tolist()) for name, idx, _, _, rel in relative_errors(a, b, 1e-8)}
        assert errs["layer0.w"] == ([0, 1], [0.5 / 1.5, 0.0])
        assert errs["readout.b"] == ([0], [np.inf])
        assert max_relative_error(a, b, 1e-8) == (np.inf, "readout.b[0]")

    def test_max_relative_error_tie_goes_to_first_entry(self):
        rng = component_rng(50)
        net, _, _ = random_network(rng, kind="ternary")
        a, b = GradSet.zeros_like(net), GradSet.zeros_like(net)
        a["layer0.w"].flat[[1, 2]] = 1.0
        a["readout.w"].flat[0] = 1.0
        b["layer0.w"].flat[[1, 2]] = 0.5
        b["readout.w"].flat[0] = 0.5
        assert max_relative_error(a, b) == (0.5, "layer0.w[1]")
        assert max_relative_error(a, a) == (0.0, "none")

    def test_of_returns_the_network_arrays_in_the_named_layout(self):
        net, _, _ = random_network(component_rng(53), kind="ctsn_static")
        params = GradSet.of(net)
        assert [n for n, _ in params.named()] == [n for n, _ in GradSet.zeros_like(net).named()]
        assert params.vector is net.params
        np.testing.assert_array_equal(params["layer0.omega"], net.layers[0].omega.vector)
        params["layer0.omega"][1] = 0.75  # a view, not a copy
        assert net.layers[0].omega.vector[1] == 0.75

    def test_check_finite_flags_offender(self):
        rng = component_rng(48)
        net, _, _ = random_network(rng, kind="ternary")
        g = GradSet.zeros_like(net)
        g["layer0.b"][0] = np.nan
        with pytest.raises(Exception, match="layer0.b"):
            g.check_finite()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_check_finite_names_every_parameter(self, bad):
        rng = component_rng(51)
        net, _, _ = random_network(rng, kind="ctsn_static")
        names = [name for name, _ in GradSet.zeros_like(net).named()]
        for name in names:
            g = GradSet.zeros_like(net)
            dict(g.named())[name].flat[-1] = bad
            with pytest.raises(NumericError, match=f"in {name}$"):
                g.check_finite()

    def test_check_finite_accepts_overflowing_sum(self):
        # the sum of two finite entries is inf; no entry is, so nothing is raised
        rng = component_rng(52)
        net, _, _ = random_network(rng, kind="ternary")
        g = GradSet.zeros_like(net)
        g["layer0.w"].flat[:2] = 1e308
        with np.errstate(over="ignore"):
            assert np.isinf(g["layer0.w"].sum())
        g.check_finite()


class TestRerunDeterminism:
    @pytest.mark.parametrize("kind,shared", [("ternary", True), ("ctsn_neuromorphic", False)])
    def test_wide_batch_gradients_bit_identical(self, kind, shared):
        # 784-800-800 is wide enough for the BLAS to split its products over
        # threads; reruns on one machine with one thread count must still agree
        rng = component_rng(12, int(shared))
        net = net_mod.build_network((784, 800, 800), 10, NeuronConfig(kind=kind), 4, rng)
        x = rng.normal(size=(64, 784))
        seq = x[None] if shared else [rng.normal(size=(64, 784)) for _ in range(4)]
        labels = rng.integers(0, 10, size=64)
        runs = [bptt.loss_and_grads(net, seq, labels, TMPRConfig(lam=0.05)) for _ in range(3)]
        for ce, tmpr_val, _, grads in runs[1:]:
            assert (ce, tmpr_val) == runs[0][:2]
            for (name, a), (_, b) in zip(grads.named(), runs[0][3].named()):
                assert a.tobytes() == b.tobytes(), name


class TestBatchSplit:
    """Metamorphic: one batch of 32 against its parts of 20 and 12, TMPR on."""

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("kind", ["ternary", "ctsn_static", "ctsn_neuromorphic"])
    def test_split_batch_matches_whole(self, kind, shared):
        rng = component_rng(54, int(shared))
        net = net_mod.build_network((16, 12, 12), 4, NeuronConfig(kind=kind), 4, rng, init_scale=2.0)
        for layer in net.layers:
            if layer.omega is not None:
                layer.omega.set_vector(rng.normal(0.0, 0.7, size=3))
        x = rng.normal(size=(32, 16)) if shared else rng.normal(size=(4, 32, 16))
        seq = lambda rows: x[None, rows] if shared else list(x[:, rows])  # shared: direct encoding
        labels = rng.integers(0, 4, size=32)
        tmpr = TMPRConfig(lam=0.05)
        _, _, avg, whole = loss_and_grads(net, seq(slice(None)), labels, tmpr)
        parts = [loss_and_grads(net, seq(rows), labels[rows], tmpr) for rows in (slice(0, 20), slice(20, 32))]
        assert np.concatenate([parts[0][2], parts[1][2]]).tobytes() == avg.tobytes()
        # the per-step logits too, not only their time average
        logits = forward(net, seq(slice(None)))[0]
        halves = [forward(net, seq(rows))[0] for rows in (slice(0, 20), slice(20, 32))]
        assert np.concatenate(halves, axis=1).tobytes() == logits.tobytes()
        for (name, g), (_, g20), (_, g12) in zip(whole.named(), parts[0][3].named(), parts[1][3].named()):
            np.testing.assert_allclose(g, (20 * g20 + 12 * g12) / 32, rtol=0, atol=1e-12, err_msg=name)


class TestLayerwiseInjection:
    """The backward forms the regularizer's injection one layer at a time, as it reaches
    the layer: ``loss.tmpr_grad`` of that layer's stack, which is what ``loss_and_grads``
    differentiates, bit for bit."""

    @pytest.mark.parametrize("n_hidden", [1, 3])
    @pytest.mark.parametrize("n_steps", [1, 4])
    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("kind", ["ternary", "ctsn_static", "ctsn_neuromorphic"])
    def test_same_bits_as_stacked_injection(self, kind, smooth, n_steps, n_hidden, monkeypatch):
        rng = component_rng(57, n_steps, n_hidden)
        cfg = NeuronConfig(kind=kind)
        net = net_mod.build_network([6] + [7] * n_hidden, 3, cfg, n_steps, rng, init_scale=1.5)
        for layer in net.layers:
            if layer.omega is not None:
                layer.omega.set_vector(rng.normal(0.0, 0.7, size=3))
        seq = [rng.normal(size=(5, 6)) for _ in range(n_steps)]
        labels = rng.integers(0, 3, size=5)
        tmpr = TMPRConfig(lam=0.05)
        formed, tmpr_grad = [], loss_mod.tmpr_grad

        def recorded(u, lam, n_layers):
            formed.append((u, lam, n_layers))
            return tmpr_grad(u, lam, n_layers)

        monkeypatch.setattr(loss_mod, "tmpr_grad", recorded)
        ran, net_forward = [], net_mod.forward

        def recorded_forward(*args, **kwargs):
            out = net_forward(*args, **kwargs)
            ran.append(out[0])  # the per-step logits the loss head reads
            return out

        monkeypatch.setattr(net_mod, "forward", recorded_forward)
        ce, tmpr_val, avg, grads = loss_and_grads(net, seq, labels, tmpr, smooth=smooth)
        want_logits, cache = forward(net, seq, smooth=smooth)
        want_ce, dL_dO, want_avg = loss_mod.avg_ce_loss_and_grad(want_logits, labels)
        pots = cache.potentials()
        # one stack per layer, top layer first, each formed from that layer's potentials
        assert [u.tobytes() for u, _, _ in formed] == [u.tobytes() for u in reversed(pots)]
        assert {(lam, n_layers) for _, lam, n_layers in formed} == {(tmpr.lam, n_hidden)}
        mode = "ctsn" if cfg.is_ctsn else "ternary"
        want = backward_exact(cache, dL_dO, net, mode, tmpr)
        assert (ce, tmpr_val) == (want_ce, loss_mod.tmpr_loss(pots, tmpr))
        assert [logits.tobytes() for logits in ran] == [want_logits.tobytes()]
        assert avg.tobytes() == want_avg.tobytes() == want_logits.mean(axis=0).tobytes()
        assert grads.vector.tobytes() == want.vector.tobytes()
        without = backward_exact(cache, dL_dO, net, mode)
        assert without.vector.tobytes() != want.vector.tobytes()  # the injection reaches the gradients


class TestBackwardMemory:
    # The backward's own arrays, in (T, B, D) layer arrays, at its peak in a complemented
    # layer's sweep: the direct adjoint, the surrogate window (its first T - 1 rows hold the
    # reset product, then the sign-keyed rate), the memory adjoint and two (T - 1)-row factor
    # buffers (keep/carry, tau * u~ / u(t+1)), 4.5 in all, plus the loop's (B, D) scratch and
    # the small readout arrays.
    K_LAYER_ARRAYS = 5

    def test_step_holds_trace_gradients_and_a_few_layer_arrays(self):
        rng = component_rng(58)
        data = data_mod.synth_event_frames(64, 64, 4, 0.05, rng, classes=10)
        net = net_mod.build_network((64, 256, 256), 10, NeuronConfig(kind="ctsn_neuromorphic"), 4, rng)
        xs_seq, labels = data_mod.encode_batch(data, np.arange(64), 4)
        tmpr = TMPRConfig(lam=0.01)
        _, cache = forward(net, xs_seq)
        trace = sum(a.nbytes for tr in cache.layers for a in (tr.u_tilde, tr.o, tr.h))
        layer = cache.layers[0].u_tilde.nbytes
        del cache
        loss_and_grads(net, xs_seq, labels, tmpr)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grads = loss_and_grads(net, xs_seq, labels, tmpr)[3]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= trace + grads.vector.nbytes + self.K_LAYER_ARRAYS * layer, (
            f"{(peak - trace - grads.vector.nbytes) / layer:.2f} layer arrays above the trace and gradients")
