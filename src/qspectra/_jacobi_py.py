"""Pure-Python cyclic Jacobi kernel, the twin of the C kernel ``_jacobi_cy.c``.

Twin contract: given the same C-contiguous float64 matrix, both kernels leave
the same float64 bits in it and return the same (sweeps, converged,
off_frobenius, max_offdiag) tuple.

Identical to the compiled kernel: the rotation order, the ``apq == 0.0`` skip,
the theta, t, c and s expressions, the pivot formulas, and the convergence
test. Scalars are read as Python floats, and the Frobenius and off-diagonal
sums loop over ``tolist()`` in the compiled loop order.

Restructured, to make fewer numpy calls per rotation:

- Rows p and q are rotated together: one multiply of the row pair by
  [[c, -s], [s, c]] into a buffer, then one add of its two halves back into
  the rows. Each entry is c*x + (-s)*y or s*x + c*y. This is the compiled
  c*x - s*y and s*x + c*y bit for bit, because (-s)*y is exactly -(s*y) and
  x + (-z) is exactly x - z in IEEE arithmetic.
- Column q is copied from row q after each rotation, but column p only once,
  at the end of the p-block, and only if some rotation in the block ran.
  Within the block the stale column-p entries are read only at pivot
  positions, and every rotation overwrites its pivot entries. A block with
  no rotation leaves column p as the compiled kernel does, which matters
  for input that is symmetric only to rounding.
- The pivot entries of row q are set before column q is copied from it, so
  the copy also carries them to (p, q) and (q, q).
"""

import math

import numpy as np

MAX_SWEEPS = 50
TERMINATION_REL = 1e-12  # off-diagonal Frobenius norm vs. input Frobenius norm


def _offdiag_sq(rows, n):
    s = 0.0
    for p in range(n - 1):
        row = rows[p]
        for q in range(p + 1, n):
            v = row[q]
            s += 2.0 * (v * v)
    return s


def jacobi_sweeps(a):
    """Diagonalize a symmetric C-contiguous float64 matrix in place.

    Returns (sweeps, converged, off_frobenius, max_offdiag).
    """
    n = a.shape[0]
    if n < 2:
        return 0, True, 0.0, 0.0
    fro_sq = 0.0
    for row in a.tolist():
        for v in row:
            fro_sq += v * v
    threshold_sq = (TERMINATION_REL * TERMINATION_REL) * fro_sq
    off_sq = _offdiag_sq(a.tolist(), n)
    sqrt, multiply, add = math.sqrt, np.multiply, np.add
    rows = list(a)
    cols = list(a.T)
    coef = np.empty(4)
    rotation = coef.reshape(2, 2, 1)     # [[c, -s], [s, c]]
    terms = np.empty((2, 2, n))          # rotation * (row p, row q)
    left, right = terms[:, 0], terms[:, 1]
    sweeps = 0
    while off_sq > threshold_sq and sweeps < MAX_SWEEPS:
        sweeps += 1
        for p in range(n - 1):
            x = rows[p]
            rotated = False
            for q in range(p + 1, n):
                apq = x.item(q)
                if apq == 0.0:
                    continue
                y = rows[q]
                app = x.item(p)
                aqq = y.item(q)
                theta = (aqq - app) / (2.0 * apq)
                if -1.0e150 < theta < 1.0e150:
                    t = 1.0 / (abs(theta) + sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                else:
                    # asymptotic tangent; theta * theta would overflow
                    t = 0.5 / theta
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                coef[0] = c
                coef[1] = -s
                coef[2] = s
                coef[3] = c
                pair = a[p:q + 1:q - p]
                multiply(rotation, pair, out=terms)
                add(left, right, out=pair)
                # pivot block set directly; the diagonal update form
                # app - t*apq is the numerically stable one
                y[p] = 0.0
                y[q] = aqq + t * apq
                cols[q][...] = y
                x[p] = app - t * apq
                rotated = True
            if rotated:
                cols[p][...] = x
        off_sq = _offdiag_sq(a.tolist(), n)
    converged = off_sq <= threshold_sq
    max_off = 0.0
    entries = a.tolist()
    for p in range(n - 1):
        row = entries[p]
        for q in range(p + 1, n):
            v = abs(row[q])
            if v > max_off:
                max_off = v
    return sweeps, converged, math.sqrt(off_sq), max_off
