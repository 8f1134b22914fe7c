import numpy as np
import pytest

from ternspike import bptt, loss as loss_mod, network as net_mod
from ternspike.bptt import (
    GradSet,
    backward_exact,
    backward_recursion,
    central_diff,
    choice,
    epsilon,
    finite_difference,
    grad_h_G,
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
from ternspike.network import Layer, Network, forward, smooth_spike
from ternspike.neuron import CTSNParams, NeuronConfig
from ternspike.numerics import component_rng, seeded_rng


class TestEpsilon:
    def test_silent_neuron_gives_tau(self):
        assert epsilon(7.3, 0.0, 1.0, 0.25) == pytest.approx(0.25)

    def test_firing_in_window(self):
        assert epsilon(0.6, 1.0, 1.0, 0.25) == pytest.approx(-0.15)

    def test_dead_surrogate_zeroes_reset_path(self):
        assert epsilon(1.2, 1.0, 0.0, 0.25) == pytest.approx(0.0)

    def test_magnitude_bound(self):
        rng = seeded_rng(0)
        u = rng.normal(0, 2, size=5000)
        o = np.sign(u) * (np.abs(u) >= 0.5)
        H = (np.abs(u) - 0.5 < 0.5).astype(float)
        eps = epsilon(u, o, H, 0.25)
        assert np.all(np.abs(eps) <= 0.25 * (1.0 + np.abs(u) * H) + 1e-15)


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
    def test_above(self):
        assert choice(0.3, 0.0, 5.0, 7.0) == 5.0

    def test_below(self):
        assert choice(-0.3, 0.0, 5.0, 7.0) == 7.0

    def test_pivot_inclusive(self):
        assert choice(0.0, 0.0, 5.0, 7.0) == 5.0


class TestGradHG:
    def test_static_uses_sign_of_memory(self):
        assert grad_h_G(0.2, "ctsn_static", 0.3, 0.8) == pytest.approx(0.3)
        assert grad_h_G(-0.2, "ctsn_static", 0.3, 0.8) == pytest.approx(0.8)

    def test_neuromorphic_is_constant_alpha(self):
        for h in (-2.0, 0.0, 3.0):
            assert grad_h_G(h, "ctsn_neuromorphic", 0.3, 0.8) == pytest.approx(0.3)


class TestXi:
    def _params_half(self):
        return CTSNParams()  # alpha = beta = gamma = 0.5

    def test_silent_neuron_keeps_blend_term_only(self):
        val = xi((0.0, 0.1), 0.0, 0.3, 1.0, self._params_half(), "ctsn_static", 0.25)
        assert float(val) == pytest.approx(0.5)

    def test_firing_neuron_hand_value(self):
        val = xi((0.0, 0.0), 1.0, 0.6, 1.0, self._params_half(), "ctsn_static", 0.25)
        assert float(val) == pytest.approx(0.5 + 0.5 * (-0.25 * 0.6))

    def test_dead_surrogate_leaves_blend_term(self):
        val = xi((0.0, 0.0), 1.0, 1.2, 0.0, self._params_half(), "ctsn_static", 0.25)
        assert float(val) == pytest.approx(0.5)

    def test_neuromorphic_branches_on_next_potential(self):
        p = CTSNParams(omega_beta=1.0, omega_gamma=-1.0)
        from ternspike.neuron import effective_params

        _, beta, gamma = effective_params(p)
        up = xi((0.0, 0.4), 0.0, 0.3, 1.0, p, "ctsn_neuromorphic", 0.25)
        down = xi((0.0, -0.4), 0.0, 0.3, 1.0, p, "ctsn_neuromorphic", 0.25)
        assert float(up) == pytest.approx(beta)
        assert float(down) == pytest.approx(gamma)


def _tiny_identity_net(kind="ternary", n_steps=1, fan=1):
    """One hidden unit with unit weight and an identity readout."""
    cfg = NeuronConfig(kind=kind)
    omega = CTSNParams() if cfg.is_ctsn else None
    return Network(
        layers=[Layer(w=np.eye(fan), b=np.zeros(fan), omega=omega)],
        readout=Layer(w=np.eye(fan), b=np.zeros(fan)),
        cfg=cfg,
        n_steps=n_steps,
    )


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

    def test_soft_reset_rejected(self):
        net = _tiny_identity_net()
        net.cfg = NeuronConfig(reset="soft")
        _, cache = forward(net, [np.array([[0.3]])])
        with pytest.raises(ValueError, match="soft"):
            backward_exact(cache, [np.array([[1.0]])], net, "ternary")


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
            inj = loss_mod.tmpr_grad(cache.potentials(), 0.05)
            g_ex = backward_exact(cache, dL, net, "ternary", du_extra=inj)
            g_rec = backward_recursion(cache, dL, net, "ternary", du_extra=inj)
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
        stats = {}
        backward_recursion(cache, dL, net, "ctsn", stats=stats)
        if expect_zero:
            assert stats["comp_grad_factors"] == 0
        else:
            assert stats["comp_grad_factors"] > 0


KINDS = ("ternary", "ctsn_static", "ctsn_neuromorphic")


def _reference_finite_difference(net, input_seq, labels, tmpr, step):
    """The literal oracle: perturb one entry at a time in place, differentiate the
    stand-in loss through ``network.forward(smooth=True)``, restore the entry."""

    def loss():
        logits, cache = forward(net, input_seq, smooth=True)
        total, _ = loss_mod.avg_ce_loss_and_grad(logits, labels)
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
        seq = [seq[0]] * len(seq)  # one array object at every step: layer 0's input current is shared
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
            (net_mod, ("forward", "_run_layer", "_affine", "decay", "g_static", "g_neuromorphic")),
            (neuron_mod, ("decay", "reset_keep", "g_static", "g_neuromorphic")),
            (loss_mod, ("avg_ce_loss_and_grad", "tmpr_loss")),
            (bptt, ("reset_keep", "choice")),
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

    def test_gap_vanishes_when_factors_match(self):
        # on a network whose spikes never fire and whose potentials never
        # reset, the closed form's missing tau*(1-|o|) factor is the whole
        # difference; with T=1 there is no temporal term at all
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
        seq = [x] * 4 if shared else [rng.normal(size=(64, 784)) for _ in range(4)]
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
        seq = lambda rows: [x[rows]] * 4 if shared else list(x[:, rows])  # shared: direct encoding
        labels = rng.integers(0, 4, size=32)
        tmpr = TMPRConfig(lam=0.05)
        _, _, logits, whole = loss_and_grads(net, seq(slice(None)), labels, tmpr)
        parts = [loss_and_grads(net, seq(rows), labels[rows], tmpr) for rows in (slice(0, 20), slice(20, 32))]
        assert np.concatenate([parts[0][2], parts[1][2]], axis=1).tobytes() == logits.tobytes()
        for (name, g), (_, g20), (_, g12) in zip(whole.named(), parts[0][3].named(), parts[1][3].named()):
            np.testing.assert_allclose(g, (20 * g20 + 12 * g12) / 32, rtol=0, atol=1e-12, err_msg=name)
