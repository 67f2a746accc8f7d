"""repro — reproduction of "Performance Bounds of Partial Run-Time
Reconfiguration in High-Performance Reconfigurable Computing"
(El-Araby, Gonzalez & El-Ghazawi, HPRCTA'07 / SC 2007).

Package map
-----------
:mod:`repro.model`
    The paper's analytical execution model (Eqs. 1-7), bounds and sweeps.
:mod:`repro.sim`
    Deterministic discrete-event simulation kernel.
:mod:`repro.hardware`
    The Cray XD1 blade model: FPGA resources, PRR floorplans,
    bitstreams, configuration ports, ICAP controller, link.
:mod:`repro.workloads`
    Hardware-function library (Table 1), call-trace generators, image
    kernels.
:mod:`repro.caching`
    Configuration cache policies and prefetchers (the ``H`` machinery).
:mod:`repro.rtr`
    FRTR and PRTR executors plus the compare and cluster runners.
:mod:`repro.faults`
    Fault injection, CRC/readback detection, recovery policies.
:mod:`repro.runtime`
    Crash-safe journaling, watchdog cancellation, invariant audits.
:mod:`repro.obs`
    Opt-in observability: metrics, Chrome-trace export, profiling,
    utilization rollups (see ``docs/OBSERVABILITY.md``).
:mod:`repro.analysis`
    Model-vs-simulation validation, Table 2 calibration, tables/plots.
:mod:`repro.experiments`
    One module per published table/figure, plus ablations.

Quickstart::

    >>> from repro.model import ModelParameters, asymptotic_speedup
    >>> p = ModelParameters(x_task=0.17, x_prtr=0.17, hit_ratio=0.0)
    >>> round(float(asymptotic_speedup(p)), 2)
    6.88
"""

__version__ = "1.7.0"

from .model import (
    ModelParameters,
    RawParameters,
    asymptotic_speedup,
    peak_speedup,
    speedup,
)
from .rtr import compare

__all__ = [
    "ModelParameters",
    "RawParameters",
    "__version__",
    "asymptotic_speedup",
    "compare",
    "peak_speedup",
    "speedup",
]
