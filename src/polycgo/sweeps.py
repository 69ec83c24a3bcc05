"""Least-squares slope fitting for h-sweep convergence tables."""

from __future__ import annotations

from math import nan

import numpy as np

DEFAULT_H_SWEEP = (0.2, 0.14, 0.1, 0.07, 0.05)


def fit_loglog_slope(xs, ys) -> float:
    """Slope of log(y) against log(x); nan if fewer than 2 usable points with distinct x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0)
    if np.unique(xs[keep]).size < 2:
        return nan
    return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])
