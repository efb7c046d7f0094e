"""Numeric tolerances used across the package.

Every comparison tolerance scales with the QSPECTRA_TOL environment variable
(default 1.0) so a whole run can be made looser or stricter without touching
call sites. The variable is read once per graph's facts (see
``spectral.GraphFacts``) and once per verify or table call, and that snapshot
is passed down as the ``scale`` keyword of the helpers below; called without
it, a helper reads the variable itself. The helpers take a float or an array
of sizes, and return the same shape. The eigensolver's internal termination
threshold is a fixed design constant and is not scaled.
"""

import math
import os

import numpy as np

GROUPING_REL = 1e-6        # eigenvalue grouping, times max(1, spectral radius)
ZERO_REL = 1e-7            # zero detection, times max(1, spectral radius)
TIGHT_REL = 1e-6           # bound tightness, times max(1, QE)
TRACE_SUM_REL = 1e-8       # eigenvalue sum against 2m, times max(1, n)
TRACE_SQUARE_REL = 1e-7    # squared eigenvalue sum against 2m + M1, times max(1, n)
TABLE_ABS = 5e-4           # printed-table reproduction, absolute


def scale() -> float:
    """Global tolerance multiplier from QSPECTRA_TOL (read on each call), a
    positive finite number."""
    raw = os.environ.get("QSPECTRA_TOL", "1")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"QSPECTRA_TOL must be a number, got {raw!r}") from None
    if not 0 < value < math.inf:
        raise ValueError(f"QSPECTRA_TOL must be positive and finite, got {raw!r}")
    return value


def _scaled(rel: float, size, snapshot: float | None):
    # fmax is max(1.0, abs(size)) bit for bit, NaN included
    tol = rel * np.fmax(1.0, np.abs(size)) * (scale() if snapshot is None else snapshot)
    return tol if isinstance(size, np.ndarray) else float(tol)


def grouping_tol(radius, *, scale: float | None = None):
    return _scaled(GROUPING_REL, radius, scale)


def zero_tol(radius, *, scale: float | None = None):
    return _scaled(ZERO_REL, radius, scale)


def tight_tol(qe, *, scale: float | None = None):
    return _scaled(TIGHT_REL, qe, scale)
