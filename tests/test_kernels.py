"""Bit equality of the branch-free complemented-neuron kernels against literal references.

The engine picks blend rates from a two-entry table indexed by a sign mask and
uses ``o == 0`` as the reset factor of exactly ternary spikes.  Each reference
here is the plain formula (``np.where`` on the mask, ``1 - |o|``), written out
in the test.  The inputs are wide (64 x 256, so numpy's vector loops run) and
carry adversarial values among random ones: signed zeros, NaN, infinities,
subnormals and potentials exactly at +-v_th.
"""

import numpy as np
import pytest

from ternspike import network as net_mod
from ternspike.bptt import _blend_partials, _chain_omega, _exact_sweep_ctsn, choice
from ternspike.network import LayerTrace, Trace, smooth_spike
from ternspike.neuron import NeuronConfig, decay, g_neuromorphic, g_static, reset_keep, ternary_fire
from ternspike.numerics import component_rng

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
        _same_bits(g_static(h, u, alpha, beta, gamma), want)
        out = np.empty(SHAPE)
        assert g_static(h, u, alpha, beta, gamma, out=out) is out
        _same_bits(out, want)

    def test_neuromorphic_matches_where(self):
        alpha, beta, gamma = FACTORS
        h, u = _adversarial(3), _adversarial(4)
        want = alpha * h + np.where(u >= 0.0, beta * u, gamma * u)
        _same_bits(g_neuromorphic(h, u, alpha, beta, gamma), want)
        out = np.empty(SHAPE)
        assert g_neuromorphic(h, u, alpha, beta, gamma, out=out) is out
        _same_bits(out, want)


class TestChoice:
    @pytest.mark.parametrize("pivot", [0.0, V_TH, -V_TH])
    def test_matches_where(self, pivot):
        x = _adversarial(5)
        _same_bits(choice(x, pivot, 0.25, 0.75), np.where(x >= pivot, 0.25, 0.75))


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
        _same_bits(reset_keep(o, smooth=True), 1.0 - np.abs(o))
        _same_bits(decay(u, o, 0.25, smooth=True), 0.25 * u * (1.0 - np.abs(o)))
        # o == 0 would be wrong here: the stand-in's o is continuous
        assert not np.array_equal(decay(u, o, 0.25), decay(u, o, 0.25, smooth=True), equal_nan=True)


def _ctsn_trace(kind: str, smooth: bool, n_steps: int = 5) -> Trace:
    """One complemented layer whose potentials and memory hold the adversarial values."""
    u_tilde = _adversarial(8, (n_steps,) + SHAPE)
    u_tilde[1] = np.where(np.abs(u_tilde[1]) < 0.3, 0.0, u_tilde[1])  # more exact pivots
    o = smooth_spike(u_tilde, V_TH, 0.5) if smooth else ternary_fire(u_tilde, V_TH)
    h = _adversarial(9, (n_steps,) + SHAPE)
    h[0] = 0.0
    cfg = NeuronConfig(kind=kind, v_th=V_TH)
    return Trace([LayerTrace(u_tilde=u_tilde, o=o, h=h, factors=FACTORS)], np.zeros((SHAPE[0], 3)), cfg, smooth)


def _reference_sweep_ctsn(cache: Trace, du_tilde, H):
    """The adjoint sweep with literal 1 - |o|, np.where and np.full_like factors."""
    tr, cfg = cache.layers[0], cache.cfg
    alpha, beta, gamma = tr.factors
    o, ut = tr.o[:-1], tr.u_tilde[:-1]
    carry = cfg.tau * (1.0 - np.abs(o)) - cfg.tau * ut * np.sign(o) * H[:-1]
    u = cfg.tau * ut * (1.0 - np.abs(o))
    if cfg.kind == "ctsn_static":
        gu, gh = np.full_like(u, gamma), np.where(tr.h[:-1] >= 0.0, alpha, beta)
    else:
        gu, gh = np.where(u >= 0.0, beta, gamma), np.full_like(u, alpha)
    dh = np.empty_like(du_tilde)
    dh[-1] = du_tilde[-1]
    for t in reversed(range(len(du_tilde) - 1)):
        du_tilde[t] += dh[t + 1] * gu[t] * carry[t]
        dh[t] = du_tilde[t] + dh[t + 1] * gh[t]
    partials = _blend_partials(dh, tr.h, u, cfg.kind == "ctsn_static")
    return du_tilde, _chain_omega(tr.factors, partials)


class TestExactSweepCtsn:
    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("kind", CTSN_KINDS)
    def test_matches_reference(self, kind, smooth):
        cache = _ctsn_trace(kind, smooth)
        H = cache.surrogate(0)
        du = _adversarial(10, cache.layers[0].u_tilde.shape, finite=True)
        got_dx, got_domega = _exact_sweep_ctsn(cache, 0, du.copy(), H, None)
        want_dx, want_domega = _reference_sweep_ctsn(cache, du.copy(), H)
        _same_bits(got_dx, want_dx)
        _same_bits(got_domega, want_domega)

    @pytest.mark.parametrize("kind", CTSN_KINDS)
    def test_decayed_potential_follows_the_trace_kind(self, kind):
        for smooth in (False, True):
            cache = _ctsn_trace(kind, smooth)
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
