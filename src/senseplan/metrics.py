"""Accuracy and uncertainty summaries for posterior beliefs.

Two per-step scalars track planner progress over a set of N evaluation
points: the estimating error ``||mu - truth||_2 / N`` and the estimating
variance ``tr(Sigma) / N``.  Both are reported over the full target set
(suffix ``-V``) and over the targets shared with the candidate set
(suffix ``-I``).  Root-mean-square error is kept as an auxiliary
diagnostic because its normalization (sqrt(N) rather than N) differs.
The planner records each step's values under the keys of run.json's step
objects (``error``, ``variance``, their ``_shared`` forms, ``rmse``); this
module aggregates them.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .gp import _first_index, as_points

#: Metric names that appear in aggregated series output, in column order.
METRIC_NAMES = ("error-V", "variance-V", "error-I", "variance-I")


def intersection_indices(points_a, points_b) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the points of A found in B, in the order of A, and of each
    one's first match in B.  Membership is exact floating-point equality;
    points that should be shared must be constructed once and reused
    bitwise.  An empty intersection raises InvalidInputError."""
    idx_b = _first_index(as_points(points_a), as_points(points_b))
    idx_a = np.flatnonzero(idx_b >= 0)
    if not len(idx_a):
        raise InvalidInputError("the point sets share no exact coordinates")
    return idx_a, idx_b[idx_a]


def aggregate_series(per_trial) -> dict:
    """Collapse a (trials, steps) array to the per-step ``{"mean": [...],
    "sd": [...]}`` lists that run.json prints, None where a value is NaN.

    The standard deviation uses ddof=1 across trials; a single trial
    yields sd 0.0 rather than NaN.
    """
    arr = np.asarray(per_trial, dtype=float)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInputError("per-trial metrics must form a (trials, steps) array")
    mean = arr.mean(axis=0)
    if arr.shape[0] > 1:
        sd = arr.std(axis=0, ddof=1)
    else:
        sd = np.zeros(arr.shape[1])
    return {
        "mean": [None if v != v else v for v in mean.tolist()],
        "sd": [None if v != v else v for v in sd.tolist()],
    }
