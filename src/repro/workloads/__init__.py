"""Workloads: the hardware-function library, call traces and image kernels.

:mod:`repro.workloads.library` pins the paper's Table 1 core catalog and
the data-size -> task-time model; :mod:`repro.workloads.generators` builds
synthetic call traces with controllable locality;
:mod:`repro.workloads.image_ops` provides functional NumPy implementations
of the median/Sobel/smoothing cores.
"""

from .generators import (
    markov_trace,
    phased_trace,
    pipeline_trace,
    rng_from,
    uniform_trace,
    zipf_trace,
)
from .image_ops import (
    CORE_FUNCTIONS,
    apply_core,
    median_filter,
    smoothing_filter,
    sobel_filter,
    synthetic_image,
)
from .library import (
    STATIC_BLOCKS,
    TABLE1_CORES,
    CoreSpec,
    core_resources,
    library_tasks,
    task_for_data_size,
)
from .task import CallTrace, FunctionCall, HardwareTask

__all__ = [
    "CORE_FUNCTIONS",
    "CallTrace",
    "CoreSpec",
    "FunctionCall",
    "HardwareTask",
    "STATIC_BLOCKS",
    "TABLE1_CORES",
    "apply_core",
    "core_resources",
    "library_tasks",
    "markov_trace",
    "median_filter",
    "phased_trace",
    "pipeline_trace",
    "rng_from",
    "smoothing_filter",
    "sobel_filter",
    "synthetic_image",
    "task_for_data_size",
    "uniform_trace",
    "zipf_trace",
]
