"""Bit equality of the neuron kernels against literal references.

The engine picks blend rates from a two-entry table indexed by a sign mask and
resets through the float factor 1 - |o| on every pass; it fires through
one int8 difference of two bool masks, clamps the stand-in with one maximum
and one minimum, maps the mixing factors on Python floats and runs each layer
through buffers allocated once.  Each reference here is the plain formula
(``np.where`` on the mask, ``1 - |o|``, the two-cast fire, ``np.clip``,
``numerics.sigmoid``, the per-step neuron functions), written out in the test.  The inputs are wide (64 x 256, so numpy's vector loops run) and
carry adversarial values among random ones: signed zeros, NaN, infinities,
subnormals and potentials exactly at +-v_th.
"""

import numpy as np
import pytest

from ternspike import network as net_mod
from ternspike.bptt import _blend_partials, _chain_omega, _exact_sweep, epsilon
from ternspike.network import LayerTrace, Trace, _run_layer, smooth_spike
from ternspike.neuron import (
    CTSNParams,
    NeuronConfig,
    NeuronState,
    blend,
    blend_rule,
    ctsn_step,
    decay,
    effective_params,
    fire_scratch,
    rate,
    reset_keep,
    ternary_fire,
    ternary_step,
    ternary_step_soft,
)
from ternspike.numerics import component_rng, sigmoid

SHAPE = (64, 256)
V_TH = 0.5
CTSN_KINDS = ("ctsn_static", "ctsn_neuromorphic")
SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, V_TH, -V_TH,
                     5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308])
FACTORS = (0.3, 0.7, 0.55)  # (alpha, beta, gamma), all distinct


@pytest.fixture(autouse=True)
def _quiet_floating_point():
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and the like are part of the inputs
        yield


def _adversarial(seed: int, shape=SHAPE, finite: bool = False) -> np.ndarray:
    """Random signs and magnitudes with every special value planted many times."""
    rng = component_rng(seed, 41)
    x = rng.normal(0.0, 1.0, size=shape)
    specials = SPECIALS[np.isfinite(SPECIALS)] if finite else SPECIALS
    flat = x.reshape(-1)
    pos = rng.choice(flat.size, size=flat.size // 4, replace=False)
    flat[pos] = np.resize(specials, pos.size)
    return x


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBlend:
    def test_static_matches_where(self):
        alpha, beta, gamma = FACTORS
        h, u = _adversarial(1), _adversarial(2)
        want = np.where(h >= 0.0, alpha * h, beta * h) + gamma * u
        rule = blend_rule("ctsn_static", FACTORS)
        _same_bits(blend(rule, h, u), want)
        out = np.empty(SHAPE)
        assert blend(rule, h, u, out=out) is out
        _same_bits(out, want)

    def test_neuromorphic_matches_where(self):
        alpha, beta, gamma = FACTORS
        h, u = _adversarial(3), _adversarial(4)
        want = alpha * h + np.where(u >= 0.0, beta * u, gamma * u)
        rule = blend_rule("ctsn_neuromorphic", FACTORS)
        _same_bits(blend(rule, h, u), want)
        out = np.empty(SHAPE)
        assert blend(rule, h, u, out=out) is out
        _same_bits(out, want)


class TestChoice:
    @pytest.mark.parametrize("pivot", [0.0, V_TH, -V_TH])
    def test_matches_where(self, pivot):
        # shifting by the pivot puts the planted +-v_th and 0 values exactly on rate's pivot, 0
        x = _adversarial(5) - pivot
        _same_bits(rate(np.array((0.75, 0.25)), x), np.where(x >= 0.0, 0.25, 0.75))
        assert rate(0.25, x) == 0.25


# The paper's two blend equations, written out.
PAPER_BLENDS = {
    "ctsn_static": lambda h, u, a, b, g: a * np.maximum(h, 0.0) + b * np.minimum(h, 0.0) + g * u,
    "ctsn_neuromorphic": lambda h, u, a, b, g: a * h + b * np.maximum(u, 0.0) + g * np.minimum(u, 0.0),
}


class TestBlendFactorMapping:
    @pytest.mark.parametrize("kind", CTSN_KINDS)
    def test_blend_and_partials_follow_the_paper(self, kind):
        paper = PAPER_BLENDS[kind]
        h_prev = np.array([0.8, 0.6, -0.9, -0.4])  # sign quadrants of (h(t-1), u(t)):
        u = np.array([0.5, -0.7, 0.3, -0.2])  # (+, +), (+, -), (-, +), (-, -)
        np.testing.assert_allclose(blend(blend_rule(kind, FACTORS), h_prev, u), paper(h_prev, u, *FACTORS),
                                   rtol=1e-15)
        dh_next = np.array([1.3, -0.6, 0.9, 2.1])
        h = np.stack([h_prev, np.zeros(4)])[:, None]  # (T=2, B=1, D=4); only h[0] feeds a blend
        dh = np.stack([np.zeros(4), dh_next])[:, None]
        got = _blend_partials(dh, h, u[None, None], kind)
        step = 1e-3  # the blend is linear in each factor, so central differences are exact to roundoff
        for i in range(3):
            up, down = list(FACTORS), list(FACTORS)
            up[i] += step
            down[i] -= step
            want = dh_next @ (paper(h_prev, u, *up) - paper(h_prev, u, *down)) / (2.0 * step)
            assert got[i] == pytest.approx(want, rel=1e-9)


class TestResetFactor:
    def test_spiking_reset_matches_one_minus_abs(self):
        u = _adversarial(6)
        o = ternary_fire(u, V_TH)
        assert set(np.unique(o)) == {-1.0, 0.0, 1.0}
        _same_bits(u * reset_keep(o), u * (1.0 - np.abs(o)))
        _same_bits(decay(u, o, 0.25), 0.25 * u * (1.0 - np.abs(o)))

    def test_smooth_reset_keeps_one_minus_abs(self):
        u = _adversarial(7)
        o = smooth_spike(u, V_TH, 0.5)
        _same_bits(reset_keep(o), 1.0 - np.abs(o))
        _same_bits(decay(u, o, 0.25), 0.25 * u * (1.0 - np.abs(o)))
        out = np.full_like(o, 7.0)
        assert reset_keep(o, out=out) is out
        _same_bits(out, 1.0 - np.abs(o))


def _trace(kind: str, smooth: bool, n_steps: int = 5, tau: float = 0.25) -> Trace:
    """One layer whose potentials (and a complemented layer's memory) hold the adversarial values."""
    u_tilde = _adversarial(8, (n_steps,) + SHAPE)
    u_tilde[1] = np.where(np.abs(u_tilde[1]) < 0.3, 0.0, u_tilde[1])  # more exact pivots
    o = smooth_spike(u_tilde, V_TH, 0.5) if smooth else ternary_fire(u_tilde, V_TH)
    cfg = NeuronConfig(kind=kind, v_th=V_TH, tau=tau)
    if not cfg.is_ctsn:
        return Trace([LayerTrace(u_tilde=u_tilde, o=o)], np.zeros((SHAPE[0], 3)), cfg)
    h = _adversarial(9, (n_steps,) + SHAPE)
    h[0] = 0.0
    return Trace([LayerTrace(u_tilde=u_tilde, o=o, h=h, factors=FACTORS)], np.zeros((SHAPE[0], 3)), cfg)


def _reference_sweep(cache: Trace, du_tilde, H):
    """The adjoint sweep with literal 1 - |o|, np.where and np.full_like rates, for every
    kind: a ternary layer's rows are g_u = 1 and g_h = 0 (the engine forms neither)."""
    tr, cfg = cache.layers[0], cache.cfg
    o, ut = tr.o[:-1], tr.u_tilde[:-1]
    carry = cfg.tau * (1.0 - np.abs(o)) - cfg.tau * ut * np.sign(o) * H[:-1]
    u = cfg.tau * ut * (1.0 - np.abs(o))
    alpha, beta, gamma = tr.factors or (None, None, None)
    if cfg.kind == "ternary":
        gu, gh = np.full_like(u, 1.0), np.full_like(u, 0.0)
    elif cfg.kind == "ctsn_static":
        gu, gh = np.full_like(u, gamma), np.where(tr.h[:-1] >= 0.0, alpha, beta)
    else:
        gu, gh = np.where(u >= 0.0, beta, gamma), np.full_like(u, alpha)
    dh = np.empty_like(du_tilde)
    dh[-1] = du_tilde[-1]
    for t in reversed(range(len(du_tilde) - 1)):
        du_tilde[t] += dh[t + 1] * gu[t] * carry[t]
        dh[t] = du_tilde[t] + dh[t + 1] * gh[t]
    if not cfg.is_ctsn:
        return du_tilde, None
    partials = _blend_partials(dh, tr.h, u, cfg.kind)
    return du_tilde, _chain_omega(tr.factors, partials)


class TestExactSweep:
    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("kind", ("ternary",) + CTSN_KINDS)
    def test_matches_reference(self, kind, smooth):
        cache = _trace(kind, smooth)
        H = cache.surrogate(0)
        du = _adversarial(10, cache.layers[0].u_tilde.shape, finite=True)
        got_dx, got_domega = _exact_sweep(cache, 0, du.copy(), H.copy(), None)  # the sweep overwrites H
        want_dx, want_domega = _reference_sweep(cache, du.copy(), H)
        _same_bits(got_dx, want_dx)
        if kind == "ternary":
            assert got_domega is None and want_domega is None
        else:
            _same_bits(got_domega, want_domega)

    @pytest.mark.parametrize("smooth,tau", [(False, 0.25), (False, 0.3), (False, 0.6), (False, 1.0),
                                            (True, 0.25), (True, 1.0)])
    def test_ternary_matches_the_epsilon_loop(self, smooth, tau):
        # the ternary loop the engine ran before it had one sweep: du(t) += du(t+1) * epsilon(t).  Its factor
        # tau * (keep - sign(o) * u~ * H) rounds like the carry where tau is a power of two or
        # o is a spike; on a smooth trace at other tau the two differ in the last bits.
        cache = _trace("ternary", smooth, tau=tau)
        tr, H = cache.layers[0], cache.surrogate(0)
        du = _adversarial(10, tr.u_tilde.shape, finite=True)
        want = du.copy()
        eps = epsilon(tr.u_tilde[:-1], tr.o[:-1], H[:-1], tau)
        for t in reversed(range(len(want) - 1)):
            want[t] += want[t + 1] * eps[t]
        _same_bits(_exact_sweep(cache, 0, du, H, None)[0], want)

    @pytest.mark.parametrize("kind", CTSN_KINDS)
    def test_decayed_potential_follows_the_trace_kind(self, kind):
        for smooth in (False, True):
            cache = _trace(kind, smooth)
            tr = cache.layers[0]
            want = np.zeros_like(tr.u_tilde)
            want[1:] = cache.cfg.tau * tr.u_tilde[:-1] * (1.0 - np.abs(tr.o[:-1]))
            _same_bits(cache.decayed(0), want)


def _reference_forward_layer(pre, cfg: NeuronConfig, factors, smooth: bool):
    """(u~, o, h) of one layer, step by step, with the literal blend and reset."""
    alpha, beta, gamma = factors if factors is not None else (None, None, None)
    fire = (lambda u: np.clip(u, -(cfg.v_th + cfg.a), cfg.v_th + cfg.a)) if smooth else (
        lambda u: (u >= cfg.v_th).astype(np.float64) - (u <= -cfg.v_th))
    ut, o, h = np.empty_like(pre), np.empty_like(pre), np.zeros_like(pre)
    for t in range(len(pre)):
        if t == 0:
            ut[0] = pre[0]
        else:
            u = cfg.tau * ut[t - 1] * (1.0 - np.abs(o[t - 1]))
            if cfg.kind == "ternary":
                ut[t] = u + pre[t]
            else:
                if cfg.kind == "ctsn_static":
                    h[t] = np.where(h[t - 1] >= 0.0, alpha * h[t - 1], beta * h[t - 1]) + gamma * u
                else:
                    h[t] = alpha * h[t - 1] + np.where(u >= 0.0, beta * u, gamma * u)
                ut[t] = h[t] + pre[t]
        o[t] = fire(ut[t])
    return ut, o, h


@pytest.mark.parametrize("smooth", [False, True])
@pytest.mark.parametrize("kind", ("ternary",) + CTSN_KINDS)
def test_forward_recurrence_matches_reference(kind, smooth):
    # events at every step, so the first layer's input current is stacked
    rng = component_rng(3, 42)
    cfg = NeuronConfig(kind=kind)
    net = net_mod.build_network([32, 256], 4, cfg, 5, rng, init_scale=3.0)
    if cfg.is_ctsn:
        net.layers[0].omega.set_vector([0.4, -0.9, 1.3])
    seq = np.sign(rng.normal(size=(5, 64, 32))) * (rng.random((5, 64, 32)) < 0.3)
    _, cache = net_mod.forward(net, seq, smooth=smooth)
    tr = cache.layers[0]
    pre = (seq.reshape(-1, 32) @ net.layers[0].w + net.layers[0].b).reshape(5, 64, 256)
    ut, o, h = _reference_forward_layer(pre, cfg, tr.factors, smooth)
    _same_bits(tr.u_tilde, ut)
    _same_bits(tr.o, o)
    if cfg.is_ctsn:
        _same_bits(tr.h, h)


class TestFire:
    @pytest.mark.parametrize("shape", [SHAPE, (3, 8), (5,) + SHAPE])
    def test_matches_the_two_cast_formula(self, shape):
        u = _adversarial(11, shape)
        want = np.empty_like(u)
        np.greater_equal(u, V_TH, out=want)  # the float64 cast of one mask, minus the other's
        want -= u <= -V_TH
        _same_bits(ternary_fire(u, V_TH), want)
        out = np.full_like(u, 7.0)
        assert ternary_fire(u, V_TH, out=out, scratch=fire_scratch(shape)) is out
        _same_bits(out, want)

    def test_out_may_alias_the_input(self):
        u = np.array([-1.0, 1.0, 0.2, -0.7])
        assert ternary_fire(u, 0.5, out=u) is u
        assert u.tolist() == [-1.0, 1.0, 0.0, -1.0]
        u = _adversarial(12)
        want = ternary_fire(u, V_TH)
        _same_bits(ternary_fire(u, V_TH, out=u), want)


class TestSmoothSpike:
    @pytest.mark.parametrize("shape", [SHAPE, (3, 8)])
    def test_matches_clip(self, shape):
        u = _adversarial(13, shape)
        want = np.clip(u, -(V_TH + 0.5), V_TH + 0.5)
        _same_bits(smooth_spike(u, V_TH, 0.5), want)
        out = np.full_like(u, 7.0)
        assert smooth_spike(u, V_TH, 0.5, out=out) is out
        _same_bits(out, want)

    def test_out_may_alias_the_input(self):
        u = _adversarial(14)
        want = np.clip(u, -(V_TH + 0.5), V_TH + 0.5)
        assert smooth_spike(u, V_TH, 0.5, out=u) is u
        _same_bits(u, want)


class TestSoftStep:
    """``ternary_step_soft`` keeps its formula inline: tau * (u - o * v_th) + x, in that order."""

    @pytest.mark.parametrize("shape", [SHAPE, (3, 8), (1, 1)])
    @pytest.mark.parametrize("smooth", [False, True])
    def test_matches_the_literal_formula(self, smooth, shape):
        cfg = NeuronConfig(v_th=V_TH)
        u, x, v = _adversarial(16, shape), _adversarial(17, shape), _adversarial(18, shape)
        o_prev = smooth_spike(v, V_TH, 0.5) if smooth else ternary_fire(v, V_TH)
        fire = (lambda w: smooth_spike(w, V_TH, 0.5)) if smooth else None
        o, new = ternary_step_soft(NeuronState(u=u, h=np.zeros_like(u), u_tilde=u, o_prev=o_prev),
                                   x, cfg, fire=fire)
        want_u = cfg.tau * (u - o_prev * V_TH) + x
        if smooth:
            want_o = np.clip(want_u, -(V_TH + 0.5), V_TH + 0.5)
        else:
            want_o = (want_u >= V_TH).astype(np.float64) - (want_u <= -V_TH)
        _same_bits(new.u, want_u)
        _same_bits(new.u_tilde, want_u)
        _same_bits(o, want_o)
        _same_bits(new.o_prev, want_o)
        _same_bits(new.h, np.zeros(shape))

    @pytest.mark.parametrize("kind", CTSN_KINDS)
    def test_complemented_kinds_rejected(self, kind):
        u = np.zeros((3, 8))
        state = NeuronState(u=u, h=u, u_tilde=u, o_prev=u)
        with pytest.raises(ValueError, match="requires kind='ternary'"):
            ternary_step_soft(state, u, NeuronConfig(kind=kind))


class TestEffectiveParams:
    def test_matches_sigmoid_bit_for_bit(self):
        specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-300, -1e-300,
                    36.7, -36.7, 709.0, -709.0, 745.2, -745.2, 1e308, -1e308]
        values = np.concatenate([specials, component_rng(15, 41).normal(0.0, 4.0, size=3000)])
        for omega in values.reshape(-1, 3):
            got = np.array(effective_params(CTSNParams(*omega)))
            _same_bits(got, sigmoid(omega))


def _reference_layer(pre, omega, cfg: NeuronConfig, smooth: bool):
    """(u~, o, h) of one layer from a chain of the per-step neuron functions.

    The layer's first step is its definition, u~(1) = x(1) and h(1) = 0: a step
    function forms it as 0 + x(1), which would turn an input -0.0 into +0.0.
    """
    fire = (lambda u: smooth_spike(u, cfg.v_th, cfg.a)) if smooth else None
    first, zero = pre[0].copy(), np.zeros(pre.shape[-2:])
    o = smooth_spike(first, cfg.v_th, cfg.a) if smooth else ternary_fire(first, cfg.v_th)
    state = NeuronState(u=zero if cfg.is_ctsn else first, h=zero, u_tilde=first, o_prev=o)
    rows = [(first, o, zero)]
    for t in range(1, len(pre)):
        if cfg.is_ctsn:
            o, state = ctsn_step(state, pre[t], omega, cfg, fire=fire)
        else:
            o, state = ternary_step(state, pre[t], cfg, fire=fire)
        rows.append((state.u_tilde, o, state.h))
    return tuple(np.stack(arrays) for arrays in zip(*rows))


LAYER_CONFIGS = [("ternary", "hard"), ("ctsn_static", "hard"), ("ctsn_neuromorphic", "hard")]


@pytest.mark.parametrize("shape", [(3, 8), (1, 1), SHAPE])
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("smooth", [False, True])
@pytest.mark.parametrize("kind,reset", LAYER_CONFIGS)
def test_run_layer_matches_the_step_functions(kind, reset, smooth, stacked, shape):
    n_steps = 5
    cfg = NeuronConfig(kind=kind, reset=reset, v_th=V_TH)
    omega = CTSNParams(0.4, -0.9, 1.3) if cfg.is_ctsn else None
    pre = 2.0 * _adversarial(16, ((n_steps,) if stacked else (1,)) + shape)
    seq = pre if stacked else np.broadcast_to(pre, (n_steps,) + shape)
    want_ut, want_o, want_h = _reference_layer(seq, omega, cfg, smooth)
    tr = _run_layer(pre.copy(), omega, cfg, n_steps, smooth)
    _same_bits(tr.u_tilde, want_ut)
    _same_bits(tr.o, want_o)
    if cfg.is_ctsn:
        _same_bits(tr.h, want_h)
    else:
        assert tr.h is None
