"""Scenario-library tests: registry, determinism, validation."""

from __future__ import annotations

import pytest

from repro.chaos import SCENARIOS, ChaosSpec, build_scenario, scenario_names
from repro.hardware import DomainTopology

BUILD_KW = dict(seed=3, horizon=10.0, prrs=4, blades=2)


class TestRegistry:
    def test_names_are_sorted_and_described(self):
        names = scenario_names()
        assert names == sorted(names)
        assert "none" in names and "compound" in names
        assert all(SCENARIOS[n][0] for n in names)

    def test_none_builds_to_no_spec(self):
        assert build_scenario("none", **BUILD_KW) is None

    def test_unknown_name_lists_the_library(self):
        with pytest.raises(ValueError, match="compound"):
            build_scenario("warp-core-breach", **BUILD_KW)


class TestDeterminism:
    @pytest.mark.parametrize(
        "name", [n for n in scenario_names() if n != "none"]
    )
    def test_same_seed_same_spec(self, name):
        assert build_scenario(name, **BUILD_KW) == build_scenario(
            name, **BUILD_KW
        )

    def test_seed_varies_the_spec(self):
        a = build_scenario("seu-storm", **BUILD_KW)
        b = build_scenario("seu-storm", **{**BUILD_KW, "seed": 4})
        assert a != b


class TestSpecShape:
    @pytest.mark.parametrize(
        "name", [n for n in scenario_names() if n != "none"]
    )
    def test_events_fit_horizon_and_topology(self, name):
        spec = build_scenario(name, **BUILD_KW)
        assert isinstance(spec, ChaosSpec) and not spec.inert
        topo = DomainTopology.build(4, blades=spec.blades)
        for event in spec.events:
            topo.domain(event.domain)  # raises on unknown domains
            assert 0.0 <= event.time < BUILD_KW["horizon"]
            assert event.duration > 0.0

    def test_events_are_time_ordered(self):
        spec = build_scenario("seu-storm", **BUILD_KW)
        times = [e.time for e in spec.events]
        assert times == sorted(times)

    def test_compound_arms_the_brownout(self):
        spec = build_scenario("compound", **BUILD_KW)
        assert spec.brownout_enabled

    def test_build_validation(self):
        with pytest.raises(ValueError):
            build_scenario("compound", seed=0, horizon=0.0, prrs=4, blades=2)
        with pytest.raises(ValueError):
            build_scenario("compound", seed=0, horizon=8.0, prrs=0, blades=1)
        with pytest.raises(ValueError):
            build_scenario("compound", seed=0, horizon=8.0, prrs=2, blades=3)


class TestSpecRoundTrip:
    def test_inert_gating(self):
        assert ChaosSpec(
            breakers_enabled=False, brownout_enabled=False
        ).inert
        assert not ChaosSpec(breakers_enabled=True).inert
