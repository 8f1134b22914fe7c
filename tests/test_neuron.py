import numpy as np
import pytest
from reference import closed_form_potential

from ternspike.errors import DimensionError
from ternspike.neuron import (
    CTSNParams,
    NeuronConfig,
    NeuronState,
    blend,
    blend_rule,
    ctsn_step,
    effective_params,
    surrogate,
    ternary_fire,
    ternary_step,
    ternary_step_soft,
)


def _state(u=0.0, h=0.0, u_tilde=None, o=0.0, shape=(1,)):
    mk = lambda v: np.full(shape, float(v))
    return NeuronState(u=mk(u), h=mk(h), u_tilde=mk(u if u_tilde is None else u_tilde), o_prev=mk(o))


class TestFire:
    def test_boundary_positive(self):
        assert ternary_fire(np.array([0.5]), 0.5)[0] == 1.0

    def test_boundary_negative(self):
        assert ternary_fire(np.array([-0.5]), 0.5)[0] == -1.0

    def test_subthreshold(self):
        assert ternary_fire(np.array([0.49]), 0.5)[0] == 0.0

    def test_spike_space_closure(self):
        rng = np.random.default_rng(3)
        out = ternary_fire(rng.normal(0, 2, size=1000), 0.5)
        assert set(np.unique(out)) <= {-1.0, 0.0, 1.0}

    def test_bytes_match_nested_select(self):
        # including NaN, infinities, signed zeros and both thresholds exactly
        rng = np.random.default_rng(4)
        u = np.concatenate([rng.normal(0, 1, size=997), [np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, -0.5]])
        want = np.where(u >= 0.5, 1.0, np.where(u <= -0.5, -1.0, 0.0))
        assert ternary_fire(u, 0.5).tobytes() == want.tobytes()
        out = np.full_like(u, 7.0)
        assert ternary_fire(u, 0.5, out=out) is out
        assert out.tobytes() == want.tobytes()


class TestSurrogate:
    @pytest.mark.parametrize(
        "u,expect",
        [(0.2, 1.0), (1.2, 0.0), (-0.9, 1.0)],
    )
    def test_hand_values(self, u, expect):
        assert surrogate(np.array([u]), 0.5, 0.5)[0] == expect

    def test_window_is_strict(self):
        # |u| - v_th < a is strict: |u| = 1.0 exactly lands outside
        assert surrogate(np.array([1.0]), 0.5, 0.5)[0] == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        u = rng.normal(0, 2, size=500)
        np.testing.assert_array_equal(surrogate(u, 0.5, 0.5), surrogate(-u, 0.5, 0.5))


class TestTernaryStep:
    def test_reset_annihilates_history(self):
        o, new = ternary_step(_state(u=0.8, o=1.0), np.array([0.3]), NeuronConfig())
        assert new.u[0] == pytest.approx(0.3)
        assert o[0] == 0.0

    def test_leak_and_boundary_fire(self):
        o, new = ternary_step(_state(u=0.8, o=0.0), np.array([0.3]), NeuronConfig())
        assert new.u[0] == pytest.approx(0.5)
        assert o[0] == 1.0

    def test_full_reset_zero_input(self):
        o, new = ternary_step(_state(u=123.0, o=-1.0), np.array([0.0]), NeuronConfig())
        assert new.u[0] == 0.0
        assert o[0] == 0.0

    def test_hard_reset_independence(self):
        # whenever |o(t-1)| = 1, perturbing u(t-1) changes nothing
        cfg = NeuronConfig()
        x = np.array([0.7])
        _, a = ternary_step(_state(u=5.0, o=1.0), x, cfg)
        _, b = ternary_step(_state(u=-3.0, o=1.0), x, cfg)
        np.testing.assert_array_equal(a.u, b.u)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ternary_step(_state(shape=(2,)), np.zeros(3), NeuronConfig())

    def test_u_tilde_aliases_u(self):
        _, new = ternary_step(_state(u=0.2), np.array([0.1]), NeuronConfig())
        np.testing.assert_array_equal(new.u, new.u_tilde)


class TestSoftReset:
    def test_residual_potential(self):
        # residual before leak: 2.5 - 0.5 = 2.0, then times tau with zero input
        cfg = NeuronConfig()
        o, new = ternary_step_soft(_state(u=2.5, o=1.0), np.array([0.0]), cfg)
        assert new.u[0] == pytest.approx(0.25 * 2.0)
        assert o[0] == 1.0

    def test_silent_step(self):
        cfg = NeuronConfig()
        o, new = ternary_step_soft(_state(u=0.3, o=0.0), np.array([0.1]), cfg)
        assert new.u[0] == pytest.approx(0.175)
        assert o[0] == 0.0

    def test_soft_reset_rejected_for_ctsn(self):
        # no kind admits the soft reset: the hard reset is the only one
        for kind in ("ternary", "ctsn_static"):
            with pytest.raises(ValueError, match="unknown reset mode"):
                NeuronConfig(reset="soft", kind=kind)


class TestEffectiveParams:
    def test_zero_defaults_give_half(self):
        assert effective_params(CTSNParams()) == (0.5, 0.5, 0.5)

    def test_sigmoid_limits(self):
        alpha, beta, _ = effective_params(CTSNParams(omega_alpha=30.0, omega_beta=-30.0))
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert beta == pytest.approx(0.0, abs=1e-12)

    def test_always_in_open_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = CTSNParams(*rng.normal(0, 5, size=3))
            for val in effective_params(p):
                assert 0.0 < val < 1.0


def _blend(kind, h_prev, u, alpha, beta, gamma):
    """One unit's blend under ``kind``'s rule at the given factors."""
    return blend(blend_rule(kind, (alpha, beta, gamma)), np.array([h_prev]), np.array([u]))[0]


class TestBlendRules:
    def test_static_positive_memory(self):
        assert _blend("ctsn_static", 0.4, 0.2, 0.5, 0.9, 0.5) == pytest.approx(0.3)

    def test_static_negative_memory(self):
        assert _blend("ctsn_static", -0.4, 0.2, 0.9, 0.25, 0.5) == pytest.approx(0.0)

    def test_static_zero_fixed_point(self):
        assert _blend("ctsn_static", 0.0, 0.0, 0.3, 0.7, 0.9) == 0.0

    def test_neuromorphic_positive_potential(self):
        assert _blend("ctsn_neuromorphic", 0.4, 0.2, 0.5, 0.5, 0.9) == pytest.approx(0.3)

    def test_neuromorphic_negative_potential(self):
        assert _blend("ctsn_neuromorphic", 0.4, -0.2, 0.5, 0.9, 0.25) == pytest.approx(0.15)

    def test_neuromorphic_zero_fixed_point(self):
        assert _blend("ctsn_neuromorphic", 0.0, 0.0, 0.3, 0.7, 0.9) == 0.0

    @pytest.mark.parametrize("kind", ["ctsn_static", "ctsn_neuromorphic"])
    def test_branch_continuity_at_zero(self, kind):
        # value approaching the branch point from both sides converges
        eps = 1e-12
        hi = _blend(kind, eps, eps, 0.3, 0.8, 0.6)
        lo = _blend(kind, -eps, -eps, 0.3, 0.8, 0.6)
        assert hi == pytest.approx(lo, abs=1e-11)

    @pytest.mark.parametrize("kind", ["ctsn_static", "ctsn_neuromorphic"])
    def test_shape_mismatch(self, kind):
        with pytest.raises(DimensionError, match="blend shapes disagree"):
            blend(blend_rule(kind, (0.3, 0.8, 0.6)), np.zeros(2), np.zeros(3))


class TestCtsnStep:
    def test_first_step_passes_input_through(self):
        cfg = NeuronConfig(kind="ctsn_static")
        o, new = ctsn_step(_state(), np.array([0.6]), CTSNParams(), cfg)
        assert new.u[0] == 0.0
        assert new.h[0] == 0.0
        assert new.u_tilde[0] == pytest.approx(0.6)
        assert o[0] == 1.0

    def test_two_step_trace(self):
        cfg = NeuronConfig(kind="ctsn_static")
        p = CTSNParams()
        state = NeuronState.zeros((1,))
        o, state = ctsn_step(state, np.array([0.2]), p, cfg)
        assert state.u_tilde[0] == pytest.approx(0.2)
        assert o[0] == 0.0
        o, state = ctsn_step(state, np.array([0.0]), p, cfg)
        assert state.u[0] == pytest.approx(0.05)
        assert state.h[0] == pytest.approx(0.025)
        assert state.u_tilde[0] == pytest.approx(0.025)
        assert o[0] == 0.0

    def test_zero_input_stays_zero(self):
        cfg = NeuronConfig(kind="ctsn_neuromorphic")
        state = NeuronState.zeros((2,))
        for _ in range(7):
            o, state = ctsn_step(state, np.zeros(2), CTSNParams(), cfg)
            assert np.all(o == 0.0)
            assert np.all(state.u_tilde == 0.0)

    def test_gamma_to_zero_is_memoryless(self):
        # with gamma ~ 0 and zero initial memory, u~(t) = x(t) for all t
        cfg = NeuronConfig(kind="ctsn_static")
        p = CTSNParams(omega_gamma=-40.0)
        state = NeuronState.zeros((1,))
        rng = np.random.default_rng(6)
        for _ in range(6):
            x = rng.normal(size=1)
            _, state = ctsn_step(state, x, p, cfg)
            assert state.u_tilde[0] == pytest.approx(x[0], abs=1e-12)


class TestClosedForm:
    def test_no_spikes_is_geometric_sum(self):
        tau = 0.25
        xs = [np.array([1.0]), np.array([1.0]), np.array([1.0])]
        os_ = [np.array([0.0]), np.array([0.0]), np.array([0.0])]
        out = closed_form_potential(xs, os_, tau, 3)
        assert out[0] == pytest.approx(1.0 + tau + tau**2)

    def test_recent_spike_wipes_history(self):
        xs = [np.array([5.0]), np.array([-2.0]), np.array([0.7])]
        os_ = [np.array([0.0]), np.array([1.0]), np.array([0.0])]
        out = closed_form_potential(xs, os_, 0.25, 3)
        assert out[0] == pytest.approx(0.7)

    def test_matches_iterated_steps(self):
        rng = np.random.default_rng(7)
        cfg = NeuronConfig()
        for _ in range(50):
            n_steps = int(rng.integers(1, 9))
            xs = [rng.normal(0, 1, size=(3,)) for _ in range(n_steps)]
            state = NeuronState.zeros((3,))
            spikes, potentials = [], []
            for t in range(n_steps):
                o, state = ternary_step(state, xs[t], cfg)
                spikes.append(o)
                potentials.append(state.u)
            for t in range(1, n_steps + 1):
                np.testing.assert_allclose(
                    closed_form_potential(xs, spikes, cfg.tau, t), potentials[t - 1], atol=1e-12
                )

    def test_short_history_rejected(self):
        with pytest.raises(ValueError):
            closed_form_potential([np.zeros(1)], [], 0.25, 2)


class TestConfigValidation:
    def test_defaults(self):
        cfg = NeuronConfig()
        assert (cfg.tau, cfg.v_th, cfg.a) == (0.25, 0.5, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(tau=0.0), dict(tau=1.5), dict(v_th=0.0), dict(a=-1.0), dict(reset="bounce"), dict(kind="binary")],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            NeuronConfig(**kwargs)
