"""Fault injector: configuration validation and the determinism contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultConfig, FaultInjector
from repro.model.stochastic import resolve_rng


class TestFaultConfig:
    def test_defaults_are_fault_free(self):
        config = FaultConfig()
        assert config.fault_free
        assert config.transfer_ber == 0.0
        assert config.seed == 0

    def test_any_nonzero_rate_clears_fault_free(self):
        assert not FaultConfig(transfer_ber=1e-9).fault_free
        assert not FaultConfig(chunk_abort_rate=0.1).fault_free
        assert not FaultConfig(port_abort_rate=0.1).fault_free

    def test_seu_rate_draws_nothing_so_stays_fault_free(self):
        assert FaultConfig(seu_rate=1.0).fault_free

    @pytest.mark.parametrize(
        "field", ["transfer_ber", "chunk_abort_rate", "port_abort_rate"]
    )
    def test_probabilities_validated(self, field):
        with pytest.raises(ValueError):
            FaultConfig(**{field: -0.1})
        with pytest.raises(ValueError):
            FaultConfig(**{field: 1.5})

    def test_negative_seu_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(seu_rate=-1.0)

    def test_transfer_corruption_probability(self):
        config = FaultConfig(transfer_ber=1e-6)
        p1 = config.transfer_corruption_probability(1)
        assert p1 == pytest.approx(1e-6, rel=1e-6)
        # 1 - (1-p)^n, monotone in n, saturating at 1
        p_big = config.transfer_corruption_probability(1e8)
        assert p1 < p_big <= 1.0
        assert config.transfer_corruption_probability(0) == 0.0
        assert FaultConfig().transfer_corruption_probability(1e9) == 0.0
        assert (
            FaultConfig(transfer_ber=1.0).transfer_corruption_probability(5)
            == 1.0
        )

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(transfer_ber=0.5).transfer_corruption_probability(-1)

    def test_reseeded_keeps_rates(self):
        config = FaultConfig(transfer_ber=0.25, seed=3)
        other = config.reseeded(99)
        assert other.seed == 99
        assert other.transfer_ber == 0.25
        assert config.seed == 3  # original untouched (frozen)


class TestResolveRng:
    def test_none_means_seed_zero_not_os_entropy(self):
        a = resolve_rng(None).random(8)
        b = resolve_rng(None).random(8)
        c = resolve_rng(0).random(8)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_int_seeds(self):
        assert np.array_equal(
            resolve_rng(7).random(4), resolve_rng(7).random(4)
        )
        assert not np.array_equal(
            resolve_rng(7).random(4), resolve_rng(8).random(4)
        )

    def test_generator_passthrough(self):
        gen = np.random.default_rng(5)
        assert resolve_rng(gen) is gen


class TestInjectorDeterminism:
    def test_same_seed_same_fault_trace(self):
        def trace(seed: int) -> list[bool]:
            inj = FaultInjector(FaultConfig(chunk_abort_rate=0.3, seed=seed))
            return [inj.chunk_aborted() for _ in range(200)]

        assert trace(11) == trace(11)
        assert trace(11) != trace(12)

    def test_zero_rates_consume_no_draws(self):
        inj = FaultInjector(FaultConfig(seed=42))
        assert not inj.transfer_corrupted(1 << 20)
        assert not inj.chunk_aborted()
        assert not inj.span_aborted(100)
        assert not inj.port_aborted()
        # The stream is untouched: next draw equals a fresh stream's first.
        assert inj.rng.random() == resolve_rng(42).random()

    def test_stats_count_injected_faults(self):
        inj = FaultInjector(FaultConfig(chunk_abort_rate=1.0, seed=0))
        assert inj.chunk_aborted()
        assert inj.span_aborted(3)
        assert inj.stats.chunk_aborts == 2
        assert inj.stats.total == 2
        assert inj.stats.as_dict()["chunk_aborts"] == 2

    def test_span_abort_collapses_per_chunk_draws(self):
        config = FaultConfig(chunk_abort_rate=0.01)
        inj = FaultInjector(config)
        # Empirically the collapsed probability tracks 1-(1-p)^n.
        n, trials = 25, 4000
        hits = sum(inj.span_aborted(n) for _ in range(trials))
        expected = 1.0 - (1.0 - 0.01) ** n
        assert hits / trials == pytest.approx(expected, rel=0.15)

    def test_abort_fraction_in_unit_interval(self):
        inj = FaultInjector(FaultConfig(seed=1))
        for _ in range(100):
            assert 0.0 <= inj.abort_fraction() <= 1.0

    def test_explicit_rng_overrides_config_seed(self):
        config = FaultConfig(chunk_abort_rate=0.5, seed=1)
        a = FaultInjector(config, rng=77)
        b = FaultInjector(config, rng=77)
        assert [a.chunk_aborted() for _ in range(50)] == [
            b.chunk_aborted() for _ in range(50)
        ]
