"""Pure-Python cyclic Jacobi kernel, the twin of the C kernel ``_jacobi_cy.c``.

Twin contract: given the same C-contiguous float64 matrix, both kernels leave
the same float64 bits in it and return the same (sweeps, converged,
off_frobenius, max_offdiag) tuple. The contract extends to ``jacobi_stack``,
which both kernels also provide: given the same (B, n, n) stack, both leave in
each matrix, and return for it, bit for bit what ``jacobi_sweeps`` leaves in
and returns for that matrix alone. Both refuse, with ValueError and before
any write, a buffer that is not float64, C-contiguous, writable and square
(2-D for one matrix, 3-D for a stack).

Identical to the compiled kernel: the rotation order, the ``apq == 0.0`` skip,
the theta, t, c and s expressions, the pivot formulas, and the convergence
test.

Both entry points run one driver, ``_solve``, as the compiled kernel runs
both through its ``solve()``; ``jacobi_sweeps(a)`` is its stack of one,
``a[None]``. The driver alone states the termination bookkeeping, on arrays
with one entry per matrix: the Frobenius threshold, the off-diagonal sums,
the set of matrices still iterating (a matrix leaves it when it converges or
reaches MAX_SWEEPS), the converged flag and the max-offdiag rule. A stack of
more than one matrix that fails ``identity_skips`` is solved one matrix at a
time, each as a stack of one. Otherwise each sweep runs one of two loops on
the matrices still iterating, and each leaves in a matrix the bits that the
compiled sweep leaves:

- ``_lanes_last`` above LANES_FIRST_MAX (16) iterating matrices, as in
  verify's batches of graphs;
- ``_lanes_first`` at most that, as in analyze's A, L and Q of one graph,
  and for every single matrix, as a one-lane stack.

``identity_skips`` holds when the stack is all finite, exactly symmetric
(``a == a.transpose(0, 2, 1)``) and holds no -0.0, as the A, L and Q of every
graph are. Both loops run the matrices in lockstep over the same cyclic
(p, q) order, on a work array of the matrices still iterating. A lane whose
(p, q) entry is zero, which the compiled loop skips, rotates by the identity,
c = 1, s = 0 and step = 0, so every write is plain and each numpy call of a
rotation covers every lane. A rotation that every lane skips is skipped, so
a lone lane never rotates by the identity.

Lanes last, the work array is (n, n, B). It is gathered and scattered as
(n * n, B) rows, one column per matrix; while every matrix still iterates,
the work array of the last sweep (first, one transposed copy of the stack)
holds them all, and no gather runs. In the loop:

- theta, t, c, s and the pivot step t * apq are vectors of the same
  expressions, with the operands in the same order, each written into a
  buffer allocated once per sweep. The sign flip is
  ``copysign(t, theta + 0.0)``: adding 0.0 turns a -0.0 theta into +0.0 and
  leaves every other theta as it is, so t is negated exactly where
  ``theta < 0.0``. The asymptotic branch, which a NaN theta also takes, is a
  ``where=`` divide. A skipped lane's theta is +-inf or NaN, and its t is
  then set to 0.0.
- Rows p and q are rotated as lanes first rotates them, through the strided
  pair view and a (2, 2, 1, B) coefficient array, into a buffer whose pivot
  block is then set. The buffer is written back as rows p and q and, through
  the same pair view on the column axis, as columns p and q. Column p is
  written at every rotation of the lane rather than once per p-block: within
  the block only its pivot entries are read, and each rotation overwrites
  those, so the last write leaves what the block-end copy leaves.

Lanes first, the work array is (B, n, n), so each numpy loop runs along a
row, and each lane's theta, t, c and s are Python floats of the compiled
loop's expressions:

- The driver gathers the work array, and ``_lanes_first_views`` builds its
  row and column lists, its diagonal view and the strided view of every
  (p, q) row pair. The array is held across sweeps, and it is scattered and
  gathered again, with new views, only when lanes leave. No rotation slices
  the array.
- Rows p and q of every lane are rotated together: one multiply of the row
  pairs by a (B, 2, 2, 1) array of [[c, -s], [s, c]] into a buffer, then
  one add of its two halves back into the rows. Each entry is c*x + (-s)*y
  or s*x + c*y. This is the compiled c*x - s*y and s*x + c*y bit for bit,
  because (-s)*y is exactly -(s*y) and x + (-z) is exactly x - z in IEEE
  arithmetic. Column q is then copied from row q.
- Once per p-block, the diagonal is read into Python lists. The pivots app
  and aqq are read from, and their new values written to, those lists. At
  the block's first rotation column p is set to +0.0. At the end of a block
  that rotated, column p is copied from row p, and the lists go back into
  the diagonal; a block without a rotation leaves the matrix as it was.
- The zeroing keeps every bit. Inside a block, column-p entries are read
  only into the new (q, p) and (p, p) entries. Each new (q, p) is
  s * (+0.0) + c * (+0.0), which is +0.0 for either sign of a finite s,
  because c > 0 and (-0.0) + (+0.0) is +0.0; the copy of column q from row
  q carries it to (p, q), where the compiled loop writes the literal 0.0.
  The new (p, p) is stale and is rewritten from the pivot lists, and the
  stale (q, q) entries are not read. Under the rule, a lane that did not
  rotate in a block that rotated gets back its column p, which is its row p.

Why a lone lane keeps the compiled bits on any input, including input that
is symmetric only to rounding or that holds -0.0: it never rotates by the
identity; a matrix that iterates has a finite Frobenius square, so its
entries stay finite, c > 0 and s is finite, and each new (q, p) is +0.0 as
above; and a block with no rotation leaves the matrix as it was.

Why the identity keeps every bit under the rule:

- No rotating lane ever writes -0.0. Since |t| <= 1, c = 1 / sqrt(t * t + 1)
  is at least 1 / sqrt(2), so c * x rounds to zero only when x is zero, and
  keeps its sign; a rounded sum is -0.0 only when both addends are. The
  writes are c * x + (-s) * y, s * x + c * y, app - step, aqq + step and the
  literal 0.0.
- Symmetry is kept exactly: every column written is copied from its row,
  so each lane leaves every p-block exactly symmetric.
- Entries stay finite: an iterating lane has a finite Frobenius square, so
  every entry is below about 1.3e154. A lane whose square overflows never
  iterates, because its threshold is inf.
- So a skipped lane keeps every bit. Its new rows are x + (+-0) = x and
  (+-0) + y = y, and its columns equal its rows. Its pivots are app - (+0)
  and aqq + (+0). Its (p, q) and (q, p) entries are already +0.0, so the
  writes of 0.0 leave them as they are.

Without the rule the identity would move bits: -0.0 - (-0.0) is +0.0, and a
column written from its row loses an entry that is symmetric only to
rounding. In both loops, every write copies bits that the compiled loop's own
operations, in its own order, produce for that lane.

The driver's Frobenius and off-diagonal sums add each matrix's squares from
row 0 of a (terms, matrices) array down, in the compiled loop order: by one
``np.add.accumulate`` call below ROW_ADDS_MIN (256) matrices, as for a single
matrix or analyze's stacks of three with up to 2,016 terms, and by one
in-place add per row from there on, as in verify's batches of 1024. Starting
from row 0 rather than 0.0 gives the same bits, because a square is +0.0 or
more, or NaN.
"""

import math

import numpy as np

MAX_SWEEPS = 50
TERMINATION_REL = 1e-12  # off-diagonal Frobenius norm vs. input Frobenius norm
ROW_ADDS_MIN = 256       # columns from which _sums_in_loop_order adds row by row
LANES_FIRST_MAX = 16     # iterating lanes up to which a sweep runs _lanes_first


def _require_square(a, ndim, error):
    """Raise ValueError(error) unless ``a`` is a float64, C-contiguous and
    writable array of ndim dimensions whose last two are equal."""
    if not (a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable
            and a.ndim == ndim and a.shape[-2] == a.shape[-1]):
        raise ValueError(error)


def jacobi_sweeps(a):
    """Diagonalize a symmetric C-contiguous float64 matrix in place.

    Returns (sweeps, converged, off_frobenius, max_offdiag): the driver's
    entry for the stack of one, which it sweeps as one lane of the
    lanes-first loop.
    """
    _require_square(a, 2, "expected a square 2-D float64 buffer")
    return _solve(a[None])[0]


def jacobi_stack(a):
    """Diagonalize a C-contiguous float64 stack of symmetric matrices, shape
    (B, n, n), in place.

    Returns a list of B (sweeps, converged, off_frobenius, max_offdiag)
    tuples. Entry i, and what is left in a[i], are bit for bit what
    ``jacobi_sweeps(a[i])`` returns and leaves. The driver solves a stack of
    more than one matrix that fails ``identity_skips`` one matrix at a time,
    as ``jacobi_sweeps`` does, and sweeps any other with the lanes-last or
    lanes-first loop.
    """
    _require_square(a, 3, "expected a 3-D float64 buffer of square matrices")
    return _solve(a)


def _sums_in_loop_order(terms):
    """Column sums of a 2-D array of squares, each added top to bottom as the
    compiled loops add them (numpy's sum pairs its terms differently)."""
    if terms.shape[1] < ROW_ADDS_MIN:
        return np.add.accumulate(terms, axis=0)[-1]
    total = terms[0].copy()
    for row in terms[1:]:
        total += row
    return total


def identity_skips(a):
    """True when a lane of the (B, n, n) stack ``a`` that skips a rotation may
    rotate by the identity instead and keep every bit: ``a`` is all finite,
    exactly symmetric and holds no -0.0."""
    return bool(np.isfinite(a).all() and (a == a.transpose(0, 2, 1)).all()
                and not (np.signbit(a) & (a == 0.0)).any())


def _solve(a):
    """Diagonalize every matrix of a checked (B, n, n) stack in place, each
    sweep with the loop that the module docstring names, and return its B
    (sweeps, converged, off_frobenius, max_offdiag) tuples."""
    count, n = a.shape[0], a.shape[-1]
    if n < 2:
        return [(0, True, 0.0, 0.0)] * count
    if count > 1 and not identity_skips(a):
        return [r for i in range(count) for r in _solve(a[i:i + 1])]
    upper = np.triu_indices(n, 1)
    offdiag = upper[0] * n + upper[1]        # the entries above the diagonal, row-major
    flat = a.reshape(count, n * n)           # one row per matrix
    w = flat.T.copy()                        # (n * n, count), one column per matrix

    def offdiag_sq(rows):
        v = rows[offdiag]
        return _sums_in_loop_order(2.0 * (v * v))

    sweeps = np.zeros(count, dtype=np.intp)
    # the square of an entry above about 1.3e154 overflows to inf; theta *
    # theta overflows on the asymptotic branch, whose t is then reset; the
    # lanes that skip divide by their zero apq, and their t is then 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        threshold_sq = (TERMINATION_REL * TERMINATION_REL) * _sums_in_loop_order(w * w)
        off_sq = offdiag_sq(w)
        active = np.flatnonzero(off_sq > threshold_sq)
        held = active[:0]                    # the lanes of the lanes-first work array
        work = a[held]
        while active.size:
            if active.size > LANES_FIRST_MAX:
                # while every lane iterates, w already holds every matrix
                if active.size < count:
                    w = np.ascontiguousarray(flat[active].T)             # (n * n, lanes)
                _lanes_last(w.reshape(n, n, -1))
                flat[active] = w.T
                off_sq[active] = offdiag_sq(w)
            else:
                # held across sweeps, and gathered again when lanes leave
                if held.size != active.size:
                    a[held] = work
                    held = active
                    work = a[active]                                      # (lanes, n, n)
                    views = _lanes_first_views(work)
                _lanes_first(work, views)
                off_sq[active] = offdiag_sq(work.reshape(-1, n * n).T)
            sweeps[active] += 1
            active = active[(off_sq[active] > threshold_sq[active])
                            & (sweeps[active] < MAX_SWEEPS)]
    a[held] = work
    converged = off_sq <= threshold_sq
    v = np.abs(flat[:, offdiag])
    max_off = np.fmax.reduce(v, axis=1, initial=0.0)     # NaN never exceeds
    return list(zip(sweeps.tolist(), converged.tolist(),
                    np.sqrt(off_sq).tolist(), max_off.tolist()))


def _lanes_last(w):
    """One sweep of every matrix of an (n, n, lanes) work array, each numpy
    call covering all lanes, for a stack that meets ``identity_skips``: a
    lane that skips a rotation rotates by the identity, and every write is
    plain."""
    n, lanes = w.shape[0], w.shape[-1]
    coef = np.empty((2, 2, 1, lanes))
    rotation = coef[:, :, 0]             # [[c, -s], [s, c]] per lane
    c, s = rotation[0, 0], rotation[1, 0]
    terms = np.empty((2, 2, n, lanes))   # rotation * (row p, row q)
    left, right = terms[:, 0], terms[:, 1]
    rows = np.empty((2, n, lanes))       # the new rows p and q
    cols = rows.transpose(1, 0, 2)       # ... as columns p and q
    theta, size, t, step, scratch = np.empty((5, lanes))
    big, skipped = np.empty((2, lanes), dtype=bool)
    for p in range(n - 1):
        x = w[p]
        for q in range(p + 1, n):
            apq = x[q]
            rotating = np.count_nonzero(apq)     # the apq == 0.0 skip
            if rotating == 0:
                continue
            y = w[q]
            app, aqq = x[p], y[q]
            # theta = (aqq - app) / (2.0 * apq)
            np.divide(np.subtract(aqq, app, out=theta),
                      np.multiply(2.0, apq, out=scratch), out=theta)
            np.abs(theta, out=size)
            # 1.0 / (size + sqrt(theta * theta + 1.0)), negative where
            # theta < 0.0; theta + 0.0 is +0.0 for -0.0
            np.sqrt(np.add(np.multiply(theta, theta, out=t), 1.0, out=t), out=t)
            np.divide(1.0, np.add(size, t, out=t), out=t)
            np.copysign(t, np.add(theta, 0.0, out=scratch), out=t)
            # asymptotic tangent where |theta| >= 1e150 or theta is NaN
            np.logical_not(np.less(size, 1.0e150, out=big), out=big)
            np.divide(0.5, theta, out=t, where=big)
            if rotating < lanes:
                # a skipped lane's theta is +-inf or NaN; t = 0.0 makes its
                # rotation the identity, c = 1, s = 0 and step = 0
                np.copyto(t, 0.0, where=np.equal(apq, 0.0, out=skipped))
            # c = 1.0 / sqrt(t * t + 1.0)
            np.sqrt(np.add(np.multiply(t, t, out=c), 1.0, out=c), out=c)
            np.divide(1.0, c, out=c)
            np.multiply(t, c, out=s)
            rotation[1, 1] = c
            np.negative(s, out=rotation[0, 1])
            np.multiply(t, apq, out=step)
            pair = w[p:q + 1:q - p]
            np.multiply(coef, pair, out=terms)
            np.add(left, right, out=rows)
            # pivot block set directly, as in the compiled loop
            np.subtract(app, step, out=rows[0, p])
            rows[0, q] = 0.0
            rows[1, p] = 0.0
            np.add(aqq, step, out=rows[1, q])
            pair[...] = rows
            w[:, p:q + 1:q - p] = cols


def _lanes_first_views(w):
    """The row and column lists, the diagonal and the (p, q) row-pair views,
    by p and then q, of a (lanes, n, n) work array, for ``_lanes_first``."""
    lanes, n = w.shape[0], w.shape[-1]
    pairs = w[:, None]
    return (list(w.transpose(1, 0, 2)), list(w.transpose(2, 0, 1)),
            w.reshape(lanes, n * n)[:, ::n + 1],
            [[pairs[:, :, p:q + 1:q - p] for q in range(p + 1, n)] for p in range(n - 1)])


def _lanes_first(w, views):
    """One sweep of every matrix of a (lanes, n, n) work array, through its
    ``_lanes_first_views``, for a single matrix or a stack that meets
    ``identity_skips``: each lane's rotation and pivot entries are computed
    in Python floats, a lane that skips a rotation rotates by the identity,
    and every write is plain."""
    lanes, n = w.shape[0], w.shape[-1]
    rows, cols, diagonal, pairs = views
    coef = np.empty((lanes, 2, 2, 1))
    values = coef.reshape(-1)                # c, -s, s, c per lane
    terms = np.empty((lanes, 2, 2, n))       # rotation * (row p, row q) per lane
    left, right = terms[:, None, :, 0], terms[:, None, :, 1]
    sqrt, multiply, add = math.sqrt, np.multiply, np.add
    for p in range(n - 1):
        x, column = rows[p], cols[p]
        pivots = diagonal.tolist()
        rotated = False
        for q, pair in zip(range(p + 1, n), pairs[p]):
            rotation, skipped = [], 0
            for apq, diag in zip(x[:, q].tolist(), pivots):
                if apq == 0.0:
                    rotation += (1.0, 0.0, 0.0, 1.0)     # the identity
                    skipped += 1
                    continue
                app, aqq = diag[p], diag[q]
                theta = (aqq - app) / (2.0 * apq)
                if -1.0e150 < theta < 1.0e150:
                    t = 1.0 / (abs(theta) + sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                else:
                    t = 0.5 / theta
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                rotation += (c, -s, s, c)
                step = t * apq
                diag[p] = app - step
                diag[q] = aqq + step
            if skipped == lanes:
                continue
            if not rotated:
                column.fill(0.0)             # each new (q, p) is s*0.0 + c*0.0 = +0.0
                rotated = True
            values[...] = rotation
            multiply(coef, pair, terms)
            add(left, right, pair)
            cols[q][...] = rows[q]
        if rotated:
            column[...] = x
            diagonal[...] = pivots
