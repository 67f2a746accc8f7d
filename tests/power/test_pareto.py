"""Unit tests: Pareto dominance filter and Nornir-shaped contracts."""

from __future__ import annotations

import pytest

from repro.power.contracts import (
    max_throughput_under_cap,
    min_energy_under_deadline,
)
from repro.power.pareto import (
    PowerSweepPoint,
    dominates,
    pareto_front,
    power_pareto_front,
)


def _point(
    n_prrs=2, hit=0.5, prtr_time=1.0, prtr_energy=5.0, mean_w=2.0
) -> PowerSweepPoint:
    return PowerSweepPoint(
        n_prrs=n_prrs,
        target_hit_ratio=hit,
        hit_ratio=hit,
        frtr_time=prtr_time * 2,
        prtr_time=prtr_time,
        speedup=2.0,
        frtr_energy_j=prtr_energy * 2,
        prtr_energy_j=prtr_energy,
        prtr_static_j=prtr_energy / 2,
        prtr_task_j=prtr_energy / 4,
        prtr_config_full_j=prtr_energy / 8,
        prtr_config_partial_j=prtr_energy / 8,
        prtr_mean_w=mean_w,
        n_configs=10,
    )


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))

    def test_better_in_one_equal_in_other(self):
        assert dominates((1.0, 2.0), (2.0, 2.0))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_trade_off_does_not_dominate_either_way(self):
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (1.0, 3.0))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))


class TestParetoFront:
    def test_dominated_points_drop(self):
        pts = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (3.0, 3.0)]
        assert pareto_front(pts, lambda p: p) == [
            (1.0, 3.0), (2.0, 2.0), (3.0, 1.0)
        ]

    def test_ties_survive_as_co_frontier_points(self):
        pts = [(1.0, 1.0), (1.0, 1.0)]
        assert pareto_front(pts, lambda p: p) == pts

    def test_empty_input(self):
        assert pareto_front([], lambda p: p) == []

    def test_input_order_preserved(self):
        pts = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)]
        assert pareto_front(pts, lambda p: p) == pts

    def test_power_front_uses_prtr_time_and_energy(self):
        fast_hot = _point(prtr_time=1.0, prtr_energy=9.0)
        slow_cool = _point(prtr_time=3.0, prtr_energy=3.0)
        dominated = _point(prtr_time=3.0, prtr_energy=9.5)
        front = power_pareto_front([fast_hot, slow_cool, dominated])
        assert front == [fast_hot, slow_cool]


class TestDeadlineContract:
    def test_minimizes_energy_among_feasible(self):
        cheap_slow = _point(n_prrs=1, prtr_time=5.0, prtr_energy=2.0)
        fast_hot = _point(n_prrs=4, prtr_time=1.0, prtr_energy=8.0)
        out = min_energy_under_deadline([cheap_slow, fast_hot], 6.0)
        assert out.feasible and out.chosen is cheap_slow
        assert out.contract == "min_energy_deadline"

    def test_tight_deadline_excludes_the_cheap_point(self):
        cheap_slow = _point(n_prrs=1, prtr_time=5.0, prtr_energy=2.0)
        fast_hot = _point(n_prrs=4, prtr_time=1.0, prtr_energy=8.0)
        out = min_energy_under_deadline([cheap_slow, fast_hot], 2.0)
        assert out.chosen is fast_hot
        assert "1/2" in out.reason

    def test_infeasible_reports_the_fastest(self):
        out = min_energy_under_deadline([_point(prtr_time=4.0)], 1.0)
        assert not out.feasible and out.chosen is None
        assert "4.0000s" in out.reason
        assert "INFEASIBLE" in out.summary_line()

    def test_tiebreak_prefers_fewer_prrs(self):
        a = _point(n_prrs=3, prtr_time=1.0, prtr_energy=5.0)
        b = _point(n_prrs=1, prtr_time=1.0, prtr_energy=5.0)
        out = min_energy_under_deadline([a, b], 2.0)
        assert out.chosen is b

    def test_nonpositive_deadline_raises(self):
        with pytest.raises(ValueError):
            min_energy_under_deadline([], 0.0)


class TestCapContract:
    def test_picks_fastest_under_cap(self):
        fast_hot = _point(prtr_time=1.0, mean_w=5.0)
        slow_cool = _point(prtr_time=3.0, mean_w=1.5)
        out = max_throughput_under_cap([fast_hot, slow_cool], 2.0)
        assert out.feasible and out.chosen is slow_cool
        assert out.contract == "max_throughput_cap"

    def test_loose_cap_admits_the_fast_point(self):
        fast_hot = _point(prtr_time=1.0, mean_w=5.0)
        slow_cool = _point(prtr_time=3.0, mean_w=1.5)
        out = max_throughput_under_cap([fast_hot, slow_cool], 10.0)
        assert out.chosen is fast_hot

    def test_infeasible_reports_the_coolest(self):
        out = max_throughput_under_cap([_point(mean_w=3.0)], 0.5)
        assert not out.feasible
        assert "3.0000W" in out.reason

    def test_summary_line_renders_the_choice(self):
        out = max_throughput_under_cap(
            [_point(n_prrs=2, hit=0.9, mean_w=1.0)], 2.5
        )
        line = out.summary_line()
        assert line.startswith("max_throughput_cap(2.5): prrs=2 H=0.9")

    def test_nonpositive_cap_raises(self):
        with pytest.raises(ValueError):
            max_throughput_under_cap([], -1.0)
