"""Gradient verification suites.

Three oracle suites back the ``gradcheck`` command and the acceptance tests:

* recursion vs. exact: the closed-form factor-product gradients must agree
  with the exact graph traversal on random small ternary networks.
* finite differences: on the continuous stand-in network, the exact
  traversal must match central differences for every parameter.
* regularizer gradient: the analytic potential-regularizer derivative must
  match finite differences of the regularizer value.

Every suite is a pure function of its seed.  Stand-in networks are resampled
(deterministically) until no cached value sits near a derivative kink, since
finite differences are meaningless across a kink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bptt, loss as loss_mod, network as net_mod
from .loss import TMPRConfig
from .neuron import NeuronConfig
from .numerics import component_rng

FD_STEP_DEFAULT = 1e-6
FD_ADVISORY_STEP = 1e-5  # coarser steps degrade the oracle; report, don't gate
TOL_RECURSION = 1e-10
TOL_FD = 1e-5
FD_GRAD_FLOOR = 1e-8
TOL_TMPR = 1e-8
_KINK_MARGIN = 1e-3


@dataclass
class SuiteResult:
    name: str
    max_rel_err: float
    worst: str
    tolerance: float
    passed: bool
    advisory: bool = False
    detail: str = ""


def random_network(
    rng: np.random.Generator,
    kind: str = "ternary",
    max_layers: int = 3,
    max_units: int = 8,
    max_steps: int = 6,
    batch: int = 3,
    init_scale: float = 1.2,
):
    """Small random network plus a matching input sequence and labels.

    Complemented layers get non-trivial mixing parameters so both branch
    sides of the blend rules are exercised.
    """
    n_hidden = int(rng.integers(1, max_layers + 1))
    dims = [int(rng.integers(2, max_units + 1)) for _ in range(n_hidden + 1)]
    n_classes = int(rng.integers(2, 5))
    n_steps = int(rng.integers(1, max_steps + 1))
    cfg = NeuronConfig(kind=kind)
    net = net_mod.build_network(dims, n_classes, cfg, n_steps, rng, init_scale=init_scale)
    for layer in net.layers:
        if layer.omega is not None:
            layer.omega.set_vector(rng.normal(0.0, 0.7, size=3))
    input_seq = [rng.normal(0.0, 1.0, size=(batch, dims[0])) for _ in range(n_steps)]
    labels = rng.integers(0, n_classes, size=batch)
    return net, input_seq, labels


def _kink_distance(cache: net_mod.Trace, cfg: NeuronConfig) -> float:
    """Distance of the nearest cached value to a derivative kink.

    Exact zeros are ignored: they are structural constants (first-step
    potentials), not values that move under a parameter perturbation.
    """
    edge = cfg.v_th + cfg.a
    dist = np.inf
    for l, tr in enumerate(cache.layers):
        dist = min(dist, float(np.abs(np.abs(tr.u_tilde) - edge).min()))
        if cfg.is_ctsn:  # the blend branches on h (static) or on u (neuromorphic)
            vals = tr.h if cfg.kind == "ctsn_static" else cache.decayed(l)
            vals = np.abs(vals[vals != 0.0])
            if vals.size:
                dist = min(dist, float(vals.min()))
    return dist


def _smooth_case(seed: int, case: int, kind: str):
    """Deterministically find a stand-in case with kink clearance."""
    for attempt in range(200):
        rng = component_rng(seed, 2, case, attempt)
        net, input_seq, labels = random_network(rng, kind=kind)
        _, cache = net_mod.forward(net, input_seq, smooth=True)
        if _kink_distance(cache, net.cfg) > _KINK_MARGIN:
            return net, input_seq, labels
    raise RuntimeError(f"no kink-free stand-in case found for seed {seed}, case {case}")


def _recursion_gaps(kind: str, seed: int, stream: int, n_networks: int):
    """Closed-form recursion against exact traversal on the CE gradient of random network i,
    drawn from ``component_rng(seed, stream, i)``: yields (i, net, worst relative error, where)."""
    mode = "ternary" if kind == "ternary" else "ctsn"
    for i in range(n_networks):
        net, input_seq, labels = random_network(component_rng(seed, stream, i), kind=kind)
        logits, cache = net_mod.forward(net, input_seq)
        _, dL_dO = loss_mod.avg_ce_loss_and_grad(logits, labels)
        g_exact = bptt.backward_exact(cache, dL_dO, net, mode)
        g_rec = bptt.backward_recursion(cache, dL_dO, net, mode)
        yield (i, net, *bptt.max_relative_error(g_exact, g_rec))


def _worst(pairs) -> tuple[float, str]:
    """The first largest error of (error, where) pairs and its place ("none" if no error
    exceeds 0); NaN, so no tolerance passes, at the first NaN error or if there is no pair."""
    worst_err, worst_where, compared = 0.0, "none", False
    for err, where in pairs:
        compared = True
        if np.isnan(err):
            return err, where
        if err > worst_err:
            worst_err, worst_where = err, where
    return (worst_err if compared else np.nan), worst_where


def suite_recursion_vs_exact(seed: int = 0, n_networks: int = 100, tol: float = TOL_RECURSION) -> SuiteResult:
    """Closed-form recursion against exact traversal on random ternary nets."""
    worst_err, worst_where = _worst(
        (err, f"net {i}: {where}") for i, _, err, where in _recursion_gaps("ternary", seed, 1, n_networks)
    )
    return SuiteResult("recursion-vs-exact (ternary)", worst_err, worst_where, tol, passed=worst_err <= tol)


def suite_fd(
    kind: str,
    seed: int = 0,
    n_networks: int = 4,
    step: float = FD_STEP_DEFAULT,
    tol: float = TOL_FD,
    with_tmpr: bool = False,
) -> SuiteResult:
    """Exact backward on the stand-in graph against central differences.

    Only parameters whose analytic gradient magnitude exceeds the floor are
    compared (below it, difference quotients are dominated by roundoff).  A
    coarse step makes the suite advisory, but it still fails on NaN or when
    it compared nothing.
    """
    tmpr = TMPRConfig(lam=0.05) if with_tmpr else None
    gaps = []
    for i in range(n_networks):
        net, input_seq, labels = _smooth_case(seed, i, kind)
        _, _, _, g_exact = bptt.loss_and_grads(net, input_seq, labels, tmpr, smooth=True)
        g_fd = bptt.finite_difference(
            lambda: bptt.surrogate_smooth_forward(net, input_seq, labels, tmpr), net, step
        )
        err, where = bptt.max_relative_error(g_exact, g_fd, min_abs=FD_GRAD_FLOOR)
        gaps.append((err, f"net {i}: {where}"))
    worst_err, worst_where = _worst(gaps)
    advisory = step > FD_ADVISORY_STEP
    detail = ""
    if advisory:
        detail = (
            f"fd step {step:g} is coarser than {FD_ADVISORY_STEP:g}; "
            "difference-quotient truncation dominates, suite is advisory"
        )
    return SuiteResult(
        f"finite-difference ({kind}{', tmpr' if with_tmpr else ''})", worst_err, worst_where, tol,
        passed=worst_err <= tol or (advisory and not np.isnan(worst_err)), advisory=advisory, detail=detail,
    )


def suite_tmpr_fd(seed: int = 0, n_configs: int = 100, tol: float = TOL_TMPR) -> SuiteResult:
    """Analytic regularizer gradient against finite differences of its value.

    The regularizer is quadratic, so central differences are exact up to
    roundoff; a relatively coarse step (1e-3) keeps roundoff negligible.
    """
    step = 1e-3
    gaps = []
    for i in range(n_configs):
        rng = component_rng(seed, 3, i)
        n_layers = int(rng.integers(1, 4))
        n_steps = int(rng.integers(1, 6))
        batch = int(rng.integers(1, 4))
        lam = float(rng.uniform(0.005, 0.5))
        cfg = TMPRConfig(lam=lam)
        widths = [int(rng.integers(1, 6)) for _ in range(n_layers)]
        pots = [
            np.stack([rng.normal(0.0, 1.0, size=(batch, widths[l])) for _ in range(n_steps)])
            for l in range(n_layers)
        ]
        l = int(rng.integers(0, n_layers))
        t = int(rng.integers(0, n_steps))
        analytic = loss_mod.tmpr_grad(pots, lam)[l][t].ravel()
        flat = pots[l][t].ravel()  # a view, so writes move the stacked potential
        for probe in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[probe]

            def loss_at(x: float) -> float:
                flat[probe] = x
                return loss_mod.tmpr_loss(pots, cfg)

            fd = bptt.central_diff(loss_at, orig, step)
            flat[probe] = orig
            gaps.append((abs(fd - analytic[probe]), f"config {i}: layer {l}, step {t + 1}, entry {probe}"))
    worst_err, worst_where = _worst(gaps)
    return SuiteResult("tmpr-gradient-vs-fd", worst_err, worst_where, tol, passed=worst_err <= tol)


def ctsn_recursion_report(kind: str = "ctsn_static", seed: int = 0, n_networks: int = 10) -> dict:
    """Documented gap between the closed-form recursion and the exact graph.

    The closed form's potential-to-memory derivative uses the blend
    coefficient alone, dropping the decay-and-reset factor of the
    u(t+1) = tau * u~(t) * (1 - |o(t)|) chain, so beyond T=1 the two
    implementations legitimately disagree.  This report quantifies the gap;
    it is informational, not a failure.
    """
    gaps = list(_recursion_gaps(kind, seed, 4, n_networks))
    worst_err, worst_where = _worst((err, f"net {i} (T={net.n_steps}): {where}") for i, net, err, where in gaps)
    agree_t1 = all(err <= 1e-12 for _, net, err, _ in gaps if net.n_steps == 1)
    return {
        "kind": kind,
        "max_rel_err": worst_err,
        "worst": worst_where,
        "agree_at_T1": agree_t1,
        "note": (
            "closed-form recursion evaluates the potential-to-memory derivative "
            "as the bare blend coefficient, omitting the decay-and-reset factor "
            "of the carried potential; the exact graph keeps it"
        ),
    }


def format_suite(result: SuiteResult) -> str:
    status = "FAIL" if not result.passed else ("ADVISORY" if result.advisory else "PASS")
    line = (
        f"[{status}] {result.name}: max err {result.max_rel_err:.3e} "
        f"(tolerance {result.tolerance:.0e}, worst at {result.worst})"
    )
    if result.detail:
        line += f"\n         {result.detail}"
    return line
