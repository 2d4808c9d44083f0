"""Continuous prominence to discrete labels, plus threshold calibration."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass
class Thresholds:
    """Cut-offs theta1 (non-prominent vs prominent) and optional theta2."""

    theta1: float
    theta2: float | None = None

    def __post_init__(self) -> None:
        if self.theta1 < 0:
            raise ValueError("theta1 must be non-negative")
        if self.theta2 is not None and self.theta2 <= self.theta1:
            raise ValueError("theta2 must exceed theta1")


def discretize(values, t: Thresholds, n_classes: int = 3):
    """Map continuous values to {0, 1, 2} labels; None stays None.

    Boundaries are inclusive upward: v == theta maps to the higher class.
    """
    if n_classes not in (2, 3):
        raise ValueError("n_classes must be 2 or 3")
    if n_classes == 3 and t.theta2 is None:
        raise ValueError("3-way discretization requires theta2")
    out = []
    for v in values:
        if v is None:
            out.append(None)
        elif v < t.theta1:
            out.append(0)
        elif n_classes == 2 or v < t.theta2:
            out.append(1)
        else:
            out.append(2)
    return out


def calibrate_binary(values, reference) -> Thresholds:
    """Pick theta1 maximizing agreement with a binary reference labeling.

    Agreement is piecewise constant with breakpoints at the observed values,
    so the midpoints between consecutive sorted distinct values, plus the two
    boundary pieces (threshold at the minimum: everything labeled 1; past the
    maximum: everything labeled 0), cover every achievable labeling.  Ties go
    to the smaller threshold.  One sort and cumulative class counts score
    all candidates, so the cost is O(n log n).
    """
    values = np.asarray(values, dtype=np.float64)
    reference = np.asarray(reference)
    if len(values) != len(reference):
        raise ValueError("values and reference lengths differ")
    if np.isnan(values).any():
        raise ValueError("values contain NaN")
    present = set(int(r) for r in reference)
    if present != {0, 1}:
        raise ValueError(
            "degenerate reference: both classes 0 and 1 must be present"
        )
    distinct, level = np.unique(values, return_inverse=True)
    midpoints = (distinct[:-1] + distinct[1:]) / 2.0
    candidates = np.concatenate(
        [[distinct[0]], midpoints, [distinct[-1] + 1.0]]
    )

    def below(label):
        # [k]: references equal to label among the k smallest distinct values
        counts = np.bincount(level[reference == label], minlength=len(distinct))
        return np.concatenate([[0], np.cumsum(counts)])

    zeros, ones = below(0), below(1)
    # the k distinct values under a candidate are labeled 0, the rest 1
    k = np.searchsorted(distinct, candidates)
    agree = zeros[k] + ones[-1] - ones[k]
    return Thresholds(theta1=float(candidates[np.argmax(agree)]))


def split_prominent(values, theta1: float) -> float:
    """theta2 = median of the values at or above theta1 (even count: midpoint).

    Splits the prominent class into two roughly equal halves.  When the
    median ties with theta1 or with many values, the upper class can come out
    empty or lopsided; that degenerate split is reported as a warning.
    """
    values = np.asarray(values, dtype=np.float64)
    prominent = values[values >= theta1]
    if len(prominent) < 2:
        raise ValueError("fewer than 2 values at or above theta1")
    theta2 = float(np.median(prominent))
    n_upper = int(np.sum(prominent >= theta2))
    n_lower = len(prominent) - n_upper
    if theta2 <= theta1 or n_lower == 0 or n_upper == 0:
        warnings.warn(
            f"degenerate split: theta2={theta2:g} yields class sizes "
            f"{n_lower}/{n_upper}",
            stacklevel=2,
        )
    return theta2
