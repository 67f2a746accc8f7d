"""Recovery policies: backoff arithmetic and escalation decisions."""

from __future__ import annotations

import pytest

from repro.faults import (
    FallbackPolicy,
    RecoveryAction,
    RecoveryPolicy,
    TransferCorruption,
    WriteAbort,
)

ABORT = WriteAbort("icap abort")
CORRUPT = TransferCorruption("crc mismatch")


class TestRecoveryAction:
    def test_valid_kinds(self):
        for kind in ("retry", "refetch", "fallback_full", "degrade",
                     "giveup"):
            assert RecoveryAction(kind).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RecoveryAction("reboot")

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            RecoveryAction("retry", delay=-1.0)


class TestBackoff:
    def test_capped_exponential(self):
        policy = RecoveryPolicy(5, backoff=0.01, factor=2.0, cap=0.05)
        assert policy.backoff_delay(1) == pytest.approx(0.01)
        assert policy.backoff_delay(2) == pytest.approx(0.02)
        assert policy.backoff_delay(3) == pytest.approx(0.04)
        assert policy.backoff_delay(4) == pytest.approx(0.05)  # capped
        assert policy.backoff_delay(10) == pytest.approx(0.05)

    def test_zero_backoff_disables_waiting(self):
        policy = RecoveryPolicy(3, backoff=0.0)
        assert policy.backoff_delay(5) == 0.0
        assert policy.on_failure(1, ABORT).delay == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(0)
        with pytest.raises(ValueError):
            RecoveryPolicy(1, backoff=-1.0)
        with pytest.raises(ValueError):
            RecoveryPolicy(1, factor=0.5)
        with pytest.raises(ValueError):
            RecoveryPolicy(1, exhausted="panic")


class TestDecisions:
    def test_write_abort_retries_locally(self):
        action = RecoveryPolicy(3).on_failure(1, ABORT)
        assert action.kind == "retry"

    def test_transfer_corruption_always_refetches(self):
        # The local copy is suspect; even a plain retry policy re-pulls.
        action = RecoveryPolicy(3).on_failure(1, CORRUPT)
        assert action.kind == "refetch"

    def test_refetch_policy_refetches_everything(self):
        policy = RecoveryPolicy(3, refetch=True)
        assert policy.on_failure(1, ABORT).kind == "refetch"

    def test_exhaustion_actions(self):
        assert RecoveryPolicy(2).on_failure(2, ABORT).kind == "giveup"
        assert (
            FallbackPolicy(2).on_failure(2, ABORT).kind == "fallback_full"
        )
        degrade = RecoveryPolicy(2, exhausted="degrade")
        assert degrade.on_failure(2, ABORT).kind == "degrade"

    def test_before_exhaustion_keeps_trying(self):
        policy = FallbackPolicy(3)
        assert policy.on_failure(1, ABORT).kind == "retry"
        assert policy.on_failure(2, ABORT).kind == "retry"
        assert policy.on_failure(3, ABORT).kind == "fallback_full"

    def test_max_attempts_one_escalates_immediately(self):
        degrade = RecoveryPolicy(1, exhausted="degrade")
        assert degrade.on_failure(1, ABORT).kind == "degrade"

    def test_backoff_delay_rides_along(self):
        policy = RecoveryPolicy(5, backoff=0.01, factor=2.0, cap=1.0)
        assert policy.on_failure(2, ABORT).delay == pytest.approx(0.02)
