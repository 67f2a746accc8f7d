"""Unit tests for :mod:`repro.obs.metrics`."""

from __future__ import annotations

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    CATALOG,
    NULL,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricSpec,
    MetricsRegistry,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts disabled with an empty global registry."""
    previous = metrics.set_enabled(False)
    metrics.reset()
    yield
    metrics.set_enabled(previous)
    metrics.reset()


class TestCatalog:
    def test_every_spec_well_formed(self):
        for name, spec in CATALOG.items():
            assert name == spec.name
            assert spec.kind in ("counter", "gauge", "histogram")
            assert spec.help
            assert name.startswith("repro_")

    def test_unknown_kind_rejected(self):
        with pytest.raises(MetricError):
            MetricSpec("repro_x", "summary", "nope")

    def test_undeclared_name_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError, match="not declared"):
            reg.counter("repro_undeclared_total")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError, match="is a counter"):
            reg.gauge("repro_calls_total")


class TestCounter:
    def spec(self):
        return MetricSpec("repro_t", "counter", "t", labels=("mode",))

    def test_inc_and_value(self):
        c = Counter(self.spec())
        c.inc(mode="frtr")
        c.inc(2.0, mode="frtr")
        c.inc(mode="prtr")
        assert c.value(mode="frtr") == 3.0
        assert c.total == 4.0
        assert c.series() == {"mode=frtr": 3.0, "mode=prtr": 1.0}

    def test_cannot_decrease(self):
        c = Counter(self.spec())
        with pytest.raises(MetricError):
            c.inc(-1.0, mode="frtr")

    def test_label_set_enforced(self):
        c = Counter(self.spec())
        with pytest.raises(MetricError):
            c.inc()
        with pytest.raises(MetricError):
            c.inc(mode="frtr", lane="x")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge(MetricSpec("repro_g", "gauge", "g"))
        g.set(5.0)
        g.inc(2.0)
        g.dec(3.0)
        assert g.value() == 4.0
        assert g.series() == {"": 4.0}


class TestHistogram:
    def test_observe_buckets_count_sum(self):
        h = Histogram(
            MetricSpec("repro_h", "histogram", "h"), buckets=(0.1, 1.0)
        )
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count() == 3
        assert h.sum() == pytest.approx(5.55)
        series = h.series()[""]
        assert series["buckets"] == {"0.1": 1, "1.0": 1, "+inf": 1}

    def test_needs_buckets(self):
        with pytest.raises(MetricError):
            Histogram(MetricSpec("repro_h", "histogram", "h"), buckets=())


class TestEnableDisable:
    def test_factories_return_null_while_disabled(self):
        assert metrics.counter("repro_calls_total") is NULL
        assert metrics.gauge("repro_compare_speedup") is NULL
        assert metrics.histogram("repro_config_seconds") is NULL

    def test_null_absorbs_everything(self):
        NULL.inc(5.0, any_label="x")
        NULL.set(1.0)
        NULL.observe(0.5)
        NULL.dec()

    def test_disabled_snapshot_empty(self):
        metrics.counter("repro_calls_total").inc(mode="frtr", lane="l")
        assert metrics.snapshot() == {}

    def test_enabled_factories_record(self):
        metrics.set_enabled(True)
        metrics.counter("repro_calls_total").inc(mode="frtr", lane="l")
        snap = metrics.snapshot()
        assert snap["repro_calls_total"]["series"] == {
            "mode=frtr,lane=l": 1.0
        }

    def test_undeclared_name_raises_even_enabled(self):
        metrics.set_enabled(True)
        with pytest.raises(MetricError):
            metrics.counter("repro_nope_total")

    def test_observed_resets_and_restores(self):
        assert not metrics.enabled()
        with metrics.observed():
            assert metrics.enabled()
            metrics.counter("repro_journal_records_total").inc()
            assert metrics.snapshot()
        assert not metrics.enabled()
        with metrics.observed():
            # fresh=True (default) wiped the previous values
            assert metrics.snapshot() == {}

    def test_observed_fresh_false_keeps_values(self):
        with metrics.observed():
            metrics.counter("repro_journal_records_total").inc()
        with metrics.observed(fresh=False):
            snap = metrics.snapshot()
        assert snap["repro_journal_records_total"]["series"] == {"": 1.0}


class TestRender:
    def test_render_empty(self):
        assert metrics.render() == "(no metrics recorded)"

    def test_render_lists_series(self):
        metrics.set_enabled(True)
        metrics.counter("repro_calls_total").inc(mode="prtr", lane="prr")
        metrics.histogram("repro_config_seconds").observe(
            0.02, kind="partial"
        )
        text = metrics.render()
        assert "repro_calls_total" in text
        assert "mode=prtr,lane=prr" in text
        assert "count=1" in text
