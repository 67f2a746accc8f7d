"""Unit tests for :mod:`repro.model.bounds` (closed forms vs brute force)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model import (
    ModelParameters,
    asymptotic_speedup,
    large_task_bound,
    left_branch_increasing,
    min_calls_for_speedup,
    peak_speedup,
    peak_x_task,
    speedup,
)


def params(**kw) -> ModelParameters:
    defaults = dict(x_task=0.5, x_prtr=0.1, hit_ratio=0.0,
                    x_control=0.0, x_decision=0.0)
    defaults.update(kw)
    return ModelParameters(**defaults)


class TestLargeTaskBound:
    def test_bound_is_tight_on_right_branch(self):
        """With Xc=0 and task >= config the speedup equals 1 + 1/X_task."""
        for x in (1.0, 2.0, 17.0):
            p = params(x_task=x)
            assert float(asymptotic_speedup(p)) == pytest.approx(
                float(large_task_bound(p))
            )

    def test_never_reaches_two(self):
        x = np.logspace(0.0001, 3, 200)
        p = params(x_task=x)
        assert np.all(asymptotic_speedup(p) < 2.0)
        assert np.all(large_task_bound(p) < 2.0)


class TestPeak:
    def test_peak_at_kink_for_h0(self):
        p = params(x_task=1.0, x_prtr=0.17)  # x_task irrelevant for locus
        assert float(peak_x_task(p)) == pytest.approx(0.17)

    def test_peak_value_h0(self):
        p = params(x_task=1.0, x_prtr=0.17)
        assert float(peak_speedup(p)) == pytest.approx(1.17 / 0.17)

    def test_peak_matches_brute_force(self):
        """The closed-form peak equals a dense numeric maximization."""
        rng = np.random.default_rng(3)
        for _ in range(25):
            xp = float(rng.uniform(0.01, 1.0))
            h = float(rng.uniform(0.0, 0.95))
            xc = float(rng.uniform(0.0, 0.05))
            xd = float(rng.uniform(0.0, xp * 0.5))
            base = params(x_task=1.0, x_prtr=xp, hit_ratio=h,
                          x_control=xc, x_decision=xd)
            grid = np.unique(np.concatenate([
                np.logspace(-5, 2, 4001),
                [max(xp - xd, 1e-6)],
            ]))
            s = asymptotic_speedup(base.with_(x_task=grid))
            brute = float(np.max(s))
            closed = float(peak_speedup(base))
            # The supremum may sit at x -> 0+, which the grid approaches.
            assert closed >= brute - 1e-9
            assert closed <= brute * 1.02 + 1e-9

    def test_decision_shifts_kink(self):
        p = params(x_task=1.0, x_prtr=0.2, x_decision=0.05)
        assert float(peak_x_task(p)) == pytest.approx(0.15)

    def test_decision_beyond_prtr_gives_zero_locus(self):
        p = params(x_task=1.0, x_prtr=0.1, x_decision=0.2)
        assert float(peak_x_task(p)) == 0.0
        # Supremum is the x->0 limit of the right branch: (1+Xc)/(Xc+Xd).
        assert float(peak_speedup(p)) == pytest.approx(1.0 / 0.2)

    def test_left_branch_flag(self):
        assert bool(left_branch_increasing(params(hit_ratio=0.0)))
        # Perfect prefetch with no overheads: left branch decreasing.
        assert not bool(
            left_branch_increasing(params(hit_ratio=1.0))
        )

    def test_perfect_prefetch_unbounded_supremum(self):
        p = params(hit_ratio=1.0)
        assert float(peak_speedup(p)) == np.inf


class TestMinCalls:
    def test_definition(self):
        p = params(x_task=0.1, x_prtr=0.1)
        target = 5.0
        n = float(min_calls_for_speedup(p, target))
        assert np.isfinite(n)
        assert float(speedup(p, n)) >= target - 1e-12
        if n > 1:
            assert float(speedup(p, n - 1)) < target

    def test_unreachable_target_returns_inf(self):
        p = params(x_task=2.0)
        # asymptote < 2, so 3x is impossible.
        assert float(min_calls_for_speedup(p, 3.0)) == np.inf

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            min_calls_for_speedup(params(), 0.0)
