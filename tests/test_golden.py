"""Golden losses and gradients of the training and gradcheck loss paths.

The values in ``golden_grads.json`` pin the classifier loss, the regularizer
loss and every parameter gradient for fixed seeds, one small batch per
neuron kind, with the regularizer on and off, on the spiking network and on
its smooth stand-in.  A refactor of the gradient path must reproduce them to
1e-12 relative.  Re-record only for a change that is meant to move the
numbers:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ternspike import bptt, network as net_mod
from ternspike.loss import TMPRConfig
from ternspike.neuron import NeuronConfig
from ternspike.numerics import component_rng

GOLDEN = Path(__file__).with_name("golden_grads.json")
RTOL = 1e-12
KINDS = ("ternary", "ctsn_static", "ctsn_neuromorphic")
CASES = [(kind, tmpr, smooth) for kind in KINDS for tmpr in (False, True) for smooth in (False, True)]


def _case_id(kind, tmpr, smooth):
    return f"{kind}-{'tmpr' if tmpr else 'ce'}-{'smooth' if smooth else 'spiking'}"


def _case(kind):
    """Network 5-4-3 -> 3 classes, T=4, batch 3, with non-trivial mixing factors."""
    rng = component_rng(31, KINDS.index(kind))
    net = net_mod.build_network((5, 4, 3), 3, NeuronConfig(kind=kind), 4, rng, init_scale=2.0)
    for layer in net.layers:
        layer.b[:] = rng.normal(0.0, 0.3, size=layer.b.shape)
        if layer.omega is not None:
            layer.omega.set_vector(rng.normal(0.0, 0.7, size=3))
    seq = [rng.normal(0.0, 1.0, size=(3, 5)) for _ in range(4)]
    labels = rng.integers(0, 3, size=3)
    return net, seq, labels


def _measure(kind, tmpr_on, smooth):
    net, seq, labels = _case(kind)
    tmpr = TMPRConfig(lam=0.05, enabled=tmpr_on)
    ce, tmpr_val, _, grads = bptt.loss_and_grads(net, seq, labels, tmpr, smooth=smooth)
    out = {
        "ce": ce,
        "tmpr": tmpr_val,
        "grads": {name: arr.tolist() for name, arr in grads.named()},
    }
    if smooth:
        out["standin_loss"] = bptt.surrogate_smooth_forward(net, seq, labels, tmpr)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind,tmpr_on,smooth", CASES, ids=[_case_id(*c) for c in CASES])
def test_matches_golden(golden, kind, tmpr_on, smooth):
    want = golden[_case_id(kind, tmpr_on, smooth)]
    got = _measure(kind, tmpr_on, smooth)
    assert set(got) == set(want)
    for key in ("ce", "tmpr", "standin_loss"):
        if key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=RTOL, atol=0.0, err_msg=key)
    assert list(got["grads"]) == list(want["grads"])
    for name, arr in want["grads"].items():
        np.testing.assert_allclose(np.array(got["grads"][name]), np.array(arr), rtol=RTOL, atol=0.0, err_msg=name)


def test_cases_exercise_every_path(golden):
    """The pinned cases carry a live regularizer and nonzero hidden gradients."""
    for kind in KINDS:
        for smooth in (False, True):
            case = golden[_case_id(kind, True, smooth)]
            assert case["tmpr"] > 0.0
            assert np.any(np.array(case["grads"]["layer0.w"]) != 0.0)
            assert golden[_case_id(kind, False, smooth)]["tmpr"] == 0.0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record = {_case_id(*c): _measure(*c) for c in CASES}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(record)} cases)")
