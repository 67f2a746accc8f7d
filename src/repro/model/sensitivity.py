"""Sensitivity of the asymptotic speedup to each model parameter.

Closed-form partial derivatives of Eq. (7),

    S_inf = F / D,   F = 1 + X_control + X_task,
    D = X_control + M * mx + H * ht,
    mx = max(X_task + X_decision, X_PRTR),  ht = X_task + X_decision,

give cheap first-order answers to the paper's design questions: is it
worth shrinking the PRRs further?  does improving the prefetcher pay?  how
much does the decision latency hurt?

At the branch kink (``X_task + X_decision = X_PRTR``) the derivative with
respect to ``x_task``/``x_decision``/``x_prtr`` is discontinuous; we
return the *right* (one-sided) derivative there, matching numpy's
``maximum`` tie-breaking used throughout the model.
"""

from __future__ import annotations

import numpy as np

from .parameters import ModelParameters, as_array
from .prtr import prtr_per_call_normalized

__all__ = [
    "dS_dH",
    "dS_dx_prtr",
    "dS_dx_task",
    "dS_dx_control",
    "dS_dx_decision",
    "gradient",
    "finite_difference",
]


def _fd(params: ModelParameters) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, D, on_left_branch) helper."""
    f = 1.0 + as_array(params.x_control) + as_array(params.x_task)
    d = prtr_per_call_normalized(params)
    ht = as_array(params.x_task) + as_array(params.x_decision)
    left = ht < as_array(params.x_prtr)
    return f, d, left


def dS_dH(params: ModelParameters) -> np.ndarray:
    """d S_inf / d H = -F * (ht - mx) / D^2 = F * (mx - ht) / D^2 >= 0.

    Raising the hit ratio never hurts; the gain is zero on the right
    branch (``X_task + X_decision >= X_PRTR``), which is the formal
    version of "prefetching efficiency only matters for small tasks".
    """
    f, d, _ = _fd(params)
    ht = as_array(params.x_task) + as_array(params.x_decision)
    mx = np.maximum(ht, as_array(params.x_prtr))
    return f * (mx - ht) / d**2


def dS_dx_prtr(params: ModelParameters) -> np.ndarray:
    """d S_inf / d X_PRTR = -F * M / D^2 on the left branch, else 0.

    Shrinking partial bitstreams only helps while the task is shorter
    than the partial configuration — the "fine-grained PRR" advice.
    """
    f, d, left = _fd(params)
    m = 1.0 - as_array(params.hit_ratio)
    return np.where(left, -f * m / d**2, 0.0)


def dS_dx_task(params: ModelParameters) -> np.ndarray:
    """d S_inf / d X_task.

    ``(D - F * w) / D^2`` with ``w`` the weight of ``x_task`` in ``D``:
    ``w = H`` on the left branch, ``w = 1`` on the right.
    """
    f, d, left = _fd(params)
    h = as_array(params.hit_ratio)
    w = np.where(left, h, 1.0)
    return (d - f * w) / d**2


def dS_dx_control(params: ModelParameters) -> np.ndarray:
    """d S_inf / d X_control = (D - F) / D^2 (negative whenever S > 1)."""
    f, d, _ = _fd(params)
    return (d - f) / d**2


def dS_dx_decision(params: ModelParameters) -> np.ndarray:
    """d S_inf / d X_decision = -F * w / D^2, ``w = H`` left, 1 right."""
    f, d, left = _fd(params)
    h = as_array(params.hit_ratio)
    w = np.where(left, h, 1.0)
    return -f * w / d**2


def gradient(params: ModelParameters) -> dict[str, np.ndarray]:
    """All partials in one dict keyed by parameter name."""
    return {
        "hit_ratio": dS_dH(params),
        "x_prtr": dS_dx_prtr(params),
        "x_task": dS_dx_task(params),
        "x_control": dS_dx_control(params),
        "x_decision": dS_dx_decision(params),
    }


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
