import numpy as np
import pytest

from ternspike import gradcheck, loss as loss_mod
from ternspike.gradcheck import _worst, format_suite, suite_fd, suite_recursion_vs_exact, suite_tmpr_fd


class TestWorst:
    def test_first_largest_error_wins(self):
        assert _worst([(1.0, "a"), (3.0, "b"), (3.0, "c"), (2.0, "d")]) == (3.0, "b")

    def test_no_error_above_zero_is_none(self):
        assert _worst([(0.0, "a"), (0.0, "b")]) == (0.0, "none")

    def test_nothing_compared_is_nan(self):
        err, where = _worst([])
        assert np.isnan(err) and where == "none"

    def test_first_nan_wins(self):
        err, where = _worst([(5.0, "a"), (np.nan, "b"), (9.0, "c"), (np.nan, "d")])
        assert np.isnan(err) and where == "b"


class TestNoVacuousPass:
    @pytest.mark.parametrize(
        "run",
        [
            lambda: suite_recursion_vs_exact(n_networks=0),
            lambda: suite_fd("ternary", n_networks=0),
            lambda: suite_fd("ternary", n_networks=0, step=1e-2),  # advisory, still fails
            lambda: suite_tmpr_fd(n_configs=0),
        ],
        ids=["recursion", "fd", "fd-advisory", "tmpr"],
    )
    def test_empty_suite_fails(self, run):
        result = run()
        assert not result.passed
        assert format_suite(result).startswith("[FAIL]")
        assert "worst at none" in format_suite(result)

    def test_nan_tmpr_gradient_fails(self, monkeypatch):
        monkeypatch.setattr(loss_mod, "tmpr_grad", lambda u, lam, n_layers: np.full_like(u, np.nan))
        result = suite_tmpr_fd(n_configs=3)
        assert not result.passed
        assert np.isnan(result.max_rel_err)
        assert result.worst.startswith("config 0:")

    def test_empty_report_has_nan_gap(self):
        assert np.isnan(gradcheck.ctsn_recursion_report(n_networks=0)["max_rel_err"])
