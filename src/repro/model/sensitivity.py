"""Sensitivity of the asymptotic speedup to the partial configuration time.

The closed-form partial derivative of Eq. (7),

    S_inf = F / D,   F = 1 + X_control + X_task,
    D = X_control + M * mx + H * ht,
    mx = max(X_task + X_decision, X_PRTR),  ht = X_task + X_decision,

with respect to ``X_PRTR`` gives a cheap first-order answer to one of
the paper's design questions: is it worth shrinking the PRRs further?

At the branch kink (``X_task + X_decision = X_PRTR``) the derivative is
discontinuous; the left-branch test is strict, so the kink takes the
right branch's value (0), matching numpy's ``maximum`` tie-breaking used
throughout the model.
"""

from __future__ import annotations

import numpy as np

from .parameters import ModelParameters, as_array
from .prtr import prtr_per_call_normalized

__all__ = [
    "dS_dx_prtr",
    "finite_difference",
]


def _fd(params: ModelParameters) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, D, on_left_branch) helper."""
    f = 1.0 + as_array(params.x_control) + as_array(params.x_task)
    d = prtr_per_call_normalized(params)
    ht = as_array(params.x_task) + as_array(params.x_decision)
    left = ht < as_array(params.x_prtr)
    return f, d, left


def dS_dx_prtr(params: ModelParameters) -> np.ndarray:
    """d S_inf / d X_PRTR = -F * M / D^2 on the left branch, else 0.

    Shrinking partial bitstreams only helps while the task is shorter
    than the partial configuration — the "fine-grained PRR" advice.
    """
    f, d, left = _fd(params)
    m = 1.0 - as_array(params.hit_ratio)
    return np.where(left, -f * m / d**2, 0.0)


# Kept as the numeric oracle for dS_dx_prtr in
# tests/model/test_sensitivity.py (TestFiniteDifferenceAgreement).
def finite_difference(  # reprolint: disable=RL010
    params: ModelParameters, field: str, eps: float = 1e-7
) -> np.ndarray:
    """Central finite-difference check of one partial (used in tests)."""
    from .speedup import asymptotic_speedup

    base = as_array(getattr(params, field))
    up = params.with_(**{field: base + eps})
    down = params.with_(**{field: np.maximum(base - eps, 0.0)})
    denom = as_array(getattr(up, field)) - as_array(getattr(down, field))
    return (asymptotic_speedup(up) - asymptotic_speedup(down)) / denom
