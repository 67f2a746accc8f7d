"""Unit tests for :mod:`repro.model.sensitivity` (closed form vs FD)."""

from __future__ import annotations

import pytest

from repro.model import ModelParameters, dS_dx_prtr, finite_difference


def params(**kw) -> ModelParameters:
    defaults = dict(x_task=0.3, x_prtr=0.15, hit_ratio=0.4,
                    x_control=0.02, x_decision=0.01)
    defaults.update(kw)
    return ModelParameters(**defaults)


#: Parameter points safely away from the max() kink, where the analytic
#: derivative is well-defined and must match finite differences.
SMOOTH_POINTS = [
    dict(x_task=0.3, x_prtr=0.15, hit_ratio=0.4),       # right branch
    dict(x_task=0.02, x_prtr=0.3, hit_ratio=0.4),       # left branch
    dict(x_task=2.0, x_prtr=0.05, hit_ratio=0.0),       # large tasks
    dict(x_task=0.05, x_prtr=0.5, hit_ratio=0.9,
         x_control=0.03, x_decision=0.02),
]


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("point", SMOOTH_POINTS)
    @pytest.mark.parametrize("field,fn", [("x_prtr", dS_dx_prtr)])
    def test_partial_matches_fd(self, point, field, fn):
        p = params(**point)
        analytic = float(fn(p))
        numeric = float(finite_difference(p, field, eps=1e-8))
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-6)


class TestSigns:
    def test_shrinking_prtr_helps_only_left_branch(self):
        left = params(x_task=0.02, x_prtr=0.3, hit_ratio=0.2)
        right = params(x_task=0.5, x_prtr=0.1)
        assert float(dS_dx_prtr(left)) < 0.0
        assert float(dS_dx_prtr(right)) == 0.0
