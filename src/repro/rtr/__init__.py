"""Run-time reconfiguration executors (the paper's Figures 3 and 4).

:class:`~repro.rtr.frtr.FrtrExecutor` reconfigures the whole device per
call; :class:`~repro.rtr.prtr.PrtrExecutor` pipelines partial
reconfiguration against execution; :func:`~repro.rtr.runner.compare`
measures the speedup between them.
"""

from .cluster import ClusterResult, compare_cluster, run_cluster
from .events import CallRecord, RunResult
from .frtr import FrtrExecutor
from .multitask import (
    AppResult,
    AppSpec,
    MultitaskFrtrExecutor,
    MultitaskPrtrExecutor,
    MultitaskResult,
    compare_multitask,
)
from .prtr import PrtrExecutor
from .resilience import ConfigOutcome, resilient
from .runner import ComparisonResult, compare, make_node

__all__ = [
    "AppResult",
    "AppSpec",
    "CallRecord",
    "ClusterResult",
    "ComparisonResult",
    "ConfigOutcome",
    "FrtrExecutor",
    "MultitaskFrtrExecutor",
    "MultitaskPrtrExecutor",
    "MultitaskResult",
    "PrtrExecutor",
    "RunResult",
    "compare",
    "compare_cluster",
    "compare_multitask",
    "make_node",
    "resilient",
    "run_cluster",
]
