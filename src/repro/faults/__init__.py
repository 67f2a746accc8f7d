"""Fault injection, detection and recovery for the reconfiguration stack.

The paper's ICAP-controller path sneaks partial bitstreams past a vendor
API that refuses them — exactly where real deployments see transfer
corruption, write aborts and configuration-memory SEUs.  This package
makes those failure modes first-class and *deterministic*:

* :mod:`repro.faults.injector` — seeded fault processes (corrupt
  transfers, abort ICAP/port writes, flip configuration frames);
* :mod:`repro.faults.detection` — per-chunk CRC checking;
* :mod:`repro.faults.recovery` — pluggable policies: retry with capped
  exponential backoff, re-fetch from the bitstream server, fall back to a
  full (FRTR) reconfiguration, or degrade the blade so the cluster
  redistributes its trace;
* :mod:`repro.faults.errors` — the fault exception hierarchy.

With every rate at zero the whole subsystem is inert: runs are
bit-identical to the fault-free baseline (a test pins this).
"""

from .detection import CrcChecker
from .errors import ReconfigurationFault, TransferCorruption, WriteAbort
from .injector import FaultConfig, FaultInjector, FaultStats
from .recovery import FallbackPolicy, RecoveryAction, RecoveryPolicy

__all__ = [
    "CrcChecker",
    "FallbackPolicy",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "ReconfigurationFault",
    "RecoveryAction",
    "RecoveryPolicy",
    "TransferCorruption",
    "WriteAbort",
]
