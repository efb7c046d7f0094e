"""Dense symmetric eigensolver, graph spectra (adjacency, Laplacian,
signless Laplacian), and the per-graph facts every report reads.

The solver is a cyclic Jacobi iteration with a fixed rotation order,
terminating when the off-diagonal Frobenius norm drops below 1e-12 times the
input's Frobenius norm, capped at 50 sweeps (non-convergence is flagged, not
raised). The compiled kernel is used when its extension imports, the
pure-Python twin otherwise.

``solve_spectra`` zero-pads each matrix of order n to the largest order N
of its stack, and a lane's eigenvalues are the leading n entries of its
solved diagonal. Padding keeps every bit of a lone solve: the returned
sweeps, converged, off_frobenius and max_offdiag, and the leading diagonal.

- A zero row and column are never rotated: each of their (p, q) entries
  takes the ``apq == 0.0`` skip of both kernels.
- Every rotation of the lane writes +0.0 into the padding, since c > 0:
  c * (+0.0) + (-s) * (+0.0) and s * (+0.0) + c * (+0.0) are +0.0.
- The Frobenius and off-diagonal sums only gain +0.0 terms, which leave a
  partial sum of squares (+0.0 or more) as it is, and the largest
  off-diagonal magnitude only gains zeros, which never exceed it.
- Graph matrices are finite, exactly symmetric and hold no -0.0, and +0.0
  padding keeps them so, so the padded stack still meets
  ``_jacobi_py.identity_skips``.

``a_spectrum``, ``l_spectrum`` and ``q_spectrum`` solve on first read and
keep the Spectrum in the graph's facts. They, and the energy, bound and
classifier functions, accept either a Graph or a GraphFacts; a caller that
asks several questions about one graph builds the facts once and passes
them along. The catalog and lemma rules are pure functions of a batch.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import tolerances
from .graph_core import Graph, emit_graph6, mask_pairs

__all__ = [
    "BACKEND",
    "EigenSolveReport",
    "Spectrum",
    "GammaSequence",
    "GraphFacts",
    "FactsBatch",
    "LemmaCheck",
    "StructureInfo",
    "structure",
    "symmetric_eigenvalues",
    "solve_spectra",
    "adjacency_matrix",
    "laplacian_matrix",
    "signless_laplacian_matrix",
    "a_spectrum",
    "l_spectrum",
    "q_spectrum",
    "gamma_sequence",
    "check_spectral_lemmas",
    "batch_lemma_failures",
]


try:
    from . import _jacobi_cy as _KERNEL
    BACKEND = "compiled"
except ImportError:
    from . import _jacobi_py as _KERNEL
    BACKEND = "python"


class EigenSolveReport(NamedTuple):
    backend: str
    sweeps: int
    converged: bool
    off_frobenius: float       # off-diagonal Frobenius norm at termination
    max_offdiag: float
    # the off-diagonal Frobenius norm at termination, as off_frobenius: by
    # Weyl's inequality it bounds how far the final iterate's diagonal lies
    # from that iterate's eigenvalues, leaving out rounding in the rotations,
    # so it does not bound the error of the computed eigenvalues
    error_bound: float


def symmetric_eigenvalues(mat) -> tuple[np.ndarray, EigenSolveReport]:
    """Eigenvalues of a symmetric matrix from outside the library, descending.

    Validates shape, finiteness, and symmetry (within 1e-12 relative) before
    solving; the input is not modified.
    """
    a = np.asarray(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square and 2-D, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix must have at least one row")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    scale = float(np.max(np.abs(a)))
    asym = float(np.max(np.abs(a - a.T)))
    if asym > 1e-12 * max(1.0, scale):
        raise ValueError(f"matrix is not symmetric (max |a - a^T| = {asym:.3e})")
    values, (result,) = _solve_stack(np.array(a, order="C", copy=True)[None])
    return values[0], EigenSolveReport(BACKEND, *result, error_bound=result[2])


def _solve_stack(stack: np.ndarray, orders: list[int] | None = None) -> tuple:
    """Diagonalize a C-contiguous float64 (B, N, N) stack in place, lane i
    holding a matrix of order orders[i] zero-padded to N, or of order N when
    orders is None. Returns each lane's eigenvalues, descending, as a (B, N)
    array when orders is None and else as a list of rows, and the kernel's
    (sweeps, converged, off_frobenius, max_offdiag) tuples."""
    results = _KERNEL.jacobi_stack(stack)
    diagonals = np.diagonal(stack, axis1=1, axis2=2)
    if orders is None:
        return np.sort(diagonals, axis=1)[:, ::-1].copy(), results
    return [np.sort(d[:n])[::-1] for d, n in zip(diagonals, orders)], results


# -- graph matrices ------------------------------------------------------------

_KINDS = ("adjacency", "laplacian", "signless_laplacian")    # A, L, Q order


def _adjacency(g: Graph) -> np.ndarray:
    """g's (n, n) bool adjacency."""
    a = np.zeros((g.n, g.n), dtype=bool)
    ends = np.fromiter(chain.from_iterable(g.edges), dtype=np.intp, count=2 * g.m)
    u, v = ends.reshape(-1, 2).T
    a[u, v] = a[v, u] = True
    return a


def _matrices(adjacency: np.ndarray, kind: str) -> np.ndarray:
    """The float64 A, L or Q (kind 'adjacency', 'laplacian' or
    'signless_laplacian') of each graph of a (..., n, n) bool adjacency stack.
    L is 0.0 - A, not -A, so that a non-edge holds +0.0 and L meets
    _jacobi_py.identity_skips."""
    a = adjacency.astype(np.float64)
    if kind == "adjacency":
        return a
    if kind == "laplacian":
        a = 0.0 - a
    n = a.shape[-1]
    a[..., np.arange(n), np.arange(n)] = adjacency.sum(axis=-1)
    return a


def adjacency_matrix(g: Graph) -> np.ndarray:
    return _matrices(_adjacency(g), "adjacency")


def laplacian_matrix(g: Graph) -> np.ndarray:
    return _matrices(_adjacency(g), "laplacian")


def signless_laplacian_matrix(g: Graph) -> np.ndarray:
    return _matrices(_adjacency(g), "signless_laplacian")


class Spectrum(NamedTuple):
    values: tuple[float, ...]                # descending
    groups: tuple[tuple[float, int], ...]    # (representative, multiplicity)
    solve: EigenSolveReport

    @property
    def radius(self) -> float:
        return _radius(np.array([self.values])).item()


def _group(values: tuple[float, ...], scale: float) -> tuple[tuple[float, int], ...]:
    """(mean, multiplicity) of each group of descending values, split where
    _splits splits them."""
    ends = [*(np.flatnonzero(_splits(np.array([values]), scale)[0]) + 1).tolist(), len(values)]
    return tuple((math.fsum(values[start:end]) / (end - start), end - start)
                 for start, end in zip([0, *ends], ends))


class GammaSequence(NamedTuple):
    """Deviations |q_i - 2m/n| of the signless Laplacian eigenvalues from the
    average degree, sorted descending."""
    values: tuple[float, ...]
    mean: float                     # 2m/n
    min_is_zero: bool               # smallest deviation vanishes numerically


class GraphFacts:
    """The facts about one graph, each computed at most once and only when
    first read. ``scale`` is the tolerance multiplier every comparison on this
    graph uses, read from the environment when the facts are built unless
    the caller passes its own snapshot. ``spectra`` maps each matrix kind
    solved so far to its Spectrum; only ``solve_spectra`` writes it."""

    def __init__(self, graph: Graph, scale: float | None = None):
        self.graph = graph
        self.scale = tolerances.scale() if scale is None else scale
        self.spectra: dict[str, Spectrum] = {}

    @cached_property
    def adjacency(self) -> np.ndarray:
        return _adjacency(self.graph)

    def solve_all(self) -> None:
        """Solve the A, L and Q matrices not solved yet in one jacobi_stack
        call, for a caller that reads all three."""
        solve_spectra((self, kind) for kind in _KINDS)

    @cached_property
    def qe(self) -> float:
        """Signless Laplacian energy: the sum of the deviations, lane 0 of the
        batch of one."""
        return self.batch.qe.tolist()[0]

    @cached_property
    def batch(self) -> FactsBatch:
        """This graph as a batch of one, built once: its graph and its signless
        Laplacian spectrum, solved if not solved yet."""
        q = q_spectrum(self)
        return FactsBatch(self.adjacency[None], np.array([q.values]),
                          np.array([q.solve.converged]), self.scale)

    def unconverged(self) -> tuple[str, ...]:
        """Names ('<kind> of <graph6>') of the matrices solved so far whose
        solve did not converge, in A, L, Q order."""
        return tuple(f"{kind} of {emit_graph6(self.graph)}" for kind in _KINDS
                     if kind in self.spectra and not self.spectra[kind].solve.converged)


def solve_spectra(pairs: Iterable[tuple[GraphFacts, str]]) -> None:
    """Solve the matrices of the (facts, kind) pairs not solved yet as one
    zero-padded stack, and keep each Spectrum in its facts' ``spectra``.
    Graph matrices are finite and exactly symmetric as built, so go in
    unchecked."""
    todo = [(f, kind) for f, kind in pairs if kind not in f.spectra]
    if not todo:
        return
    orders = [f.graph.n for f, _ in todo]
    stack = np.zeros((len(todo), max(orders), max(orders)))
    for lane, (f, kind), n in zip(stack, todo, orders):
        lane[:n, :n] = _matrices(f.adjacency, kind)
    for (f, kind), values, result in zip(todo, *_solve_stack(stack, orders)):
        vt = tuple(values.tolist())
        f.spectra[kind] = Spectrum(values=vt, groups=_group(vt, f.scale),
                                   solve=EigenSolveReport(BACKEND, *result,
                                                          error_bound=result[2]))


def graph_facts(g: Graph | GraphFacts) -> GraphFacts:
    """The facts of g, built fresh unless g already is a GraphFacts."""
    return g if isinstance(g, GraphFacts) else GraphFacts(g)


def _spectrum(g: Graph | GraphFacts, kind: str) -> Spectrum:
    f = graph_facts(g)
    solve_spectra(((f, kind),))
    return f.spectra[kind]


def a_spectrum(g: Graph | GraphFacts) -> Spectrum:
    return _spectrum(g, "adjacency")


def l_spectrum(g: Graph | GraphFacts) -> Spectrum:
    return _spectrum(g, "laplacian")


def q_spectrum(g: Graph | GraphFacts) -> Spectrum:
    return _spectrum(g, "signless_laplacian")


def gamma_sequence(g: Graph | GraphFacts) -> GammaSequence:
    """Lane 0 of the graph's batch of one."""
    f = graph_facts(g)
    b = f.batch
    return GammaSequence(values=tuple(b.gamma[0].tolist()), mean=2 * f.graph.m / f.graph.n,
                         min_is_zero=b.min_is_zero.tolist()[0])


# -- a batch of graphs on one order, as arrays --------------------------------------

class FactsBatch:
    """The facts of the graphs of a (B, n, n) bool adjacency stack, one array
    lane per graph, each equal to what GraphFacts gives for that graph, given
    the (B, n) descending eigenvalues of their signless Laplacians, whether
    each solve converged, and the tolerance multiplier of every lane.
    Integer facts are int64 arrays."""

    def __init__(self, adjacency: np.ndarray, eigenvalues: np.ndarray,
                 converged: np.ndarray, scale: float):
        self.adjacency, self.eigenvalues, self.converged = adjacency, eigenvalues, converged
        self.scale = scale
        self.n = n = adjacency.shape[1]
        self.degrees = adjacency.sum(axis=2)
        # per vertex, the least vertex of its component and whether that
        # component has an odd cycle
        self.labels, self.odd = _components(adjacency)
        self.groups = 1 + _splits(eigenvalues, scale).sum(axis=1)
        # the deviations |q_i - 2m/n|, descending
        self.gamma = np.sort(np.abs(eigenvalues - (2 * self.m / n)[:, None]), axis=1)[:, ::-1]
        q1 = eigenvalues[:, 0]
        # zero_tol(max(1.0, q1))
        self.min_is_zero = self.gamma[:, -1] <= tolerances.zero_tol(
            np.where(q1 > 1.0, q1, 1.0), scale=scale)
        self.qe = _row_fsums(self.gamma)      # an exactly rounded sum per row

    @classmethod
    def from_masks(cls, n: int, masks, scale: float) -> FactsBatch:
        """The facts of graph_from_mask(n, mask) for each mask, built from the
        bits."""
        pairs = np.array(mask_pairs(n), dtype=np.intp).reshape(-1, 2).T
        bits = (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(pairs.shape[1])) & 1
        adjacency = np.zeros((len(bits), n, n), dtype=bool)
        adjacency[:, pairs[0], pairs[1]] = bits
        adjacency[:, pairs[1], pairs[0]] = bits
        values, results = _solve_stack(_matrices(adjacency, "signless_laplacian"))
        return cls(adjacency, values, np.array([r[1] for r in results], dtype=bool), scale)

    @cached_property
    def lanes(self) -> np.ndarray:
        return np.arange(len(self.degrees))

    @cached_property
    def m(self) -> np.ndarray:
        return self.degrees.sum(axis=1) // 2

    @cached_property
    def m1(self) -> np.ndarray:
        """The first Zagreb index, the sum of squared degrees."""
        return (self.degrees * self.degrees).sum(axis=1)

    @cached_property
    def common_neighbours(self) -> np.ndarray:
        """(B, n, n): how many neighbours vertices u and v share, the
        matrix square of the adjacency, which float64 holds exactly."""
        a = _matrices(self.adjacency, "adjacency")
        return (a @ a).astype(np.int64)

    @cached_property
    def max_degree(self) -> np.ndarray:
        return self.degrees.max(axis=1)

    @cached_property
    def min_degree(self) -> np.ndarray:
        return self.degrees.min(axis=1)

    @cached_property
    def leaders(self) -> np.ndarray:
        """(B, n): whether each vertex is the least of its component."""
        return self.labels == np.arange(self.n)

    @cached_property
    def component_count(self) -> np.ndarray:
        return self.leaders.sum(axis=1)

    @property
    def connected(self) -> np.ndarray:
        return self.component_count == 1

    @cached_property
    def bipartite_components(self) -> np.ndarray:
        return (self.leaders & ~self.odd).sum(axis=1)

    @property
    def bipartite(self) -> np.ndarray:
        return self.bipartite_components == self.component_count

    @property
    def regular(self) -> np.ndarray:
        return self.max_degree == self.min_degree

    @property
    def complete(self) -> np.ndarray:
        return self.m == self.n * (self.n - 1) // 2

    def degree_of(self, v: np.ndarray) -> np.ndarray:
        """The degree of vertex v[i] in lane i (a batch of one: in lane 0)."""
        return self.degrees[self.lanes, v]

    def adjacent(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.adjacency[self.lanes, u, v]


# the bits of a bitset word: 63, so that no word sets the int64 sign bit
_WORD = 63


def _components(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex of each graph of a (B, n, n) bool adjacency stack, any n:
    its component label, the least vertex of its component, and whether its
    component has an odd cycle, as two (B, n) arrays. Both come from
    reachability in the bipartite double cover, where a vertex reaches its
    own copy exactly when its component has an odd cycle. Reachability is
    Warshall's transitive closure (J. ACM 9, 1962) on bitset rows, one per
    vertex of the cover, of 2n bits in ceil(2n / 63) int64 words each."""
    n = adjacency.shape[1]
    # cover vertex v is copy 0 of vertex v, n + v its copy 1; bit p of a row
    # is bit p % 63 of its word p // 63, and row p of bits holds bit p alone
    p = np.arange(2 * n)
    bits = np.zeros((2 * n, -(-2 * n // _WORD)), dtype=np.int64)
    bits[p, p // _WORD] = 1 << (p % _WORD)
    copy0, copy1 = bits[:n], bits[n:]
    # reach[j, b, i] is word j of what cover vertex i reaches in graph b:
    # itself, and copy 0 of v is joined to copy 1 of each neighbour
    reach = np.concatenate([copy0 + adjacency @ copy1, adjacency @ copy0 + copy1],
                           axis=1).transpose(2, 0, 1).copy()
    for k in range(2 * n):
        # every vertex that reaches k reaches what k reaches (-1 is all ones)
        reach |= -((reach[k // _WORD] >> (k % _WORD)) & 1) & reach[:, :, k:k + 1]
    # copy 1 of v reaches copy 0 of u when copy 0 of v reaches copy 1 of u,
    # so the copy-0 bits of the two rows of v are v's component
    component = (reach[:, :, :n] | reach[:, :, n:]) & copy0.sum(axis=0)[:, None, None]
    word = (component != 0).argmax(axis=0)
    low = np.take_along_axis(component, word[None], 0)[0]
    # the exponent of the lowest set bit, a power of two that float64 holds exactly
    labels = _WORD * word + np.frexp((low & -low).astype(np.float64))[1] - 1
    v = p[:n]
    odd = (reach[(n + v) // _WORD, :, v].T >> ((n + v) % _WORD)) & 1
    return labels, odd == 1


class StructureInfo(NamedTuple):
    components: tuple[tuple[int, ...], ...]   # vertex lists, each sorted, by min vertex
    is_connected: bool
    component_bipartite: tuple[bool, ...]
    is_bipartite: bool
    bipartite_component_count: int
    is_regular: bool
    regularity_degree: int | None


def structure(g: Graph) -> StructureInfo:
    """g's components and their two-colorability, from _components on g's
    adjacency, and its regularity; nothing is solved."""
    (labels,), (odd,) = _components(_adjacency(g)[None])
    comps: dict[int, list[int]] = {}
    for v, label in enumerate(labels.tolist()):
        # each label is its component's least vertex, so labels arrive ascending
        comps.setdefault(label, []).append(v)
    bip_flags = [not odd[label] for label in comps]
    deg = g.degrees
    regular = max(deg) == min(deg)
    return StructureInfo(
        components=tuple(map(tuple, comps.values())),
        is_connected=len(comps) == 1,
        component_bipartite=tuple(bip_flags),
        is_bipartite=all(bip_flags),
        bipartite_component_count=sum(bip_flags),
        is_regular=regular,
        regularity_degree=deg[0] if regular else None,
    )


# the fewest rows on which _row_fsums runs its cascade; below it, one
# math.fsum call per row is faster (see README "Exhaustive verification")
_CASCADE_MIN_ROWS = 256


def _row_fsums(a: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a (rows, k) float64 array, bit for bit, its
    exceptions included.

    Below _CASCADE_MIN_ROWS rows it calls math.fsum per row. From there on,
    one TwoSum cascade (Knuth's error-free transformation; Ogita, Rump and
    Oishi, SIAM J. Sci. Comput. 26, 2005) runs down the columns of every row
    at once: column j goes into the running sum with (s, d) = TwoSum(s, a_j),
    and d into the running error with (e, f) = TwoSum(e, d). TwoSum is exact
    in binary64 when nothing overflows, subnormals included, so the exact row
    sum is S = s + e + F, where F is the sum of the f. A final
    (r, t) = TwoSum(s, e) gives r = fl(s + e) and S = r + t + F. A row takes
    r when
    - every f is zero (L, the computed sum of the |f|, is 0): then S = s + e,
      and r is its round-half-even, which is what math.fsum returns, ties
      included; or
    - |t| + 2L is below h, half the gap from |r| down to the next float. The
      gap below is never wider than the gap above, and beside a power of two
      it is half of it, so S is strictly inside r's rounding interval:
      |S - r| <= |t| + |F|, and |F| < 2L while k u is far below 1.
    Every other row goes to math.fsum: a zero r, whose sign fsum decides; a
    row with an |a| not below 2^1020 / k, so that the sum of its |a| is below
    2^1020, no addition here or in fsum overflows, and inf, nan and fsum's
    OverflowError come from fsum itself; and a row the second test cannot
    decide (Shewchuk's adaptive filter, Discrete Comput. Geom. 18, 1997).
    """
    if len(a) < _CASCADE_MIN_ROWS:
        return np.array([math.fsum(row) for row in a.tolist()])
    cols = a.T.copy()
    small = np.abs(cols).max(axis=0) < 2.0 ** 1020 / len(cols)   # false on inf and nan
    if not small.all():
        cols[:, ~small] = 0.0
    s, e, loss = cols[0], np.zeros(len(a)), np.zeros(len(a))
    for column in cols[1:]:
        s, d = _two_sum(s, column)
        e, f = _two_sum(e, d)
        loss += np.abs(f)
    r, t = _two_sum(s, e)
    size = np.abs(r)
    # the gap below |r| > 0 is |r| minus the float whose bits are one less
    half_gap = (size - (size.view(np.int64) - 1).view(np.float64)) * 0.5
    exact = (loss == 0.0) | (np.abs(t) + 2 * loss < half_gap)
    taken = exact & small & (r != 0.0)
    if not taken.all():
        undecided = np.flatnonzero(~taken)
        r[undecided] = [math.fsum(row) for row in a[undecided].tolist()]
    return r


def _two_sum(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fl(x + y) and its rounding error, exactly (Knuth's TwoSum)."""
    s = x + y
    v = s - x
    return s, (x - (s - v)) + (y - v)


def _radius(values: np.ndarray) -> np.ndarray:
    """The spectral radius of each row of descending eigenvalues: |last| where
    it exceeds |first|, else |first|, ties included."""
    first, last = np.abs(values[:, 0]), np.abs(values[:, -1])
    return np.where(last > first, last, first)


def _splits(values: np.ndarray, scale: float) -> np.ndarray:
    """The grouping rule: for each row of descending eigenvalues, whether each
    step between neighbours exceeds the grouping tolerance at the row's
    spectral radius, which starts a new group."""
    steps = values[:, :-1] - values[:, 1:]
    return steps > tolerances.grouping_tol(_radius(values), scale=scale)[:, None]


def _zero_counts(values: np.ndarray, scale: float) -> np.ndarray:
    """How many eigenvalues of each row vanish within the zero tolerance at
    the row's spectral radius."""
    tol = tolerances.zero_tol(_radius(values), scale=scale)
    return (np.abs(values) <= tol[:, None]).sum(axis=1)


# -- lemma checks ---------------------------------------------------------------

class LemmaCheck(NamedTuple):
    check_id: str
    applicable: bool
    holds: bool | None
    lhs: float | None
    rhs: float | None
    slack: float | None
    note: str
    equality: bool | None = None
    condition: str | None = None      # stated equality condition, when one exists
    condition_met: bool | None = None
    consistent: bool | None = None    # equality flag matches the stated condition


class _Judged(NamedTuple):
    """A lemma rule judged on every lane of a batch. A rule with a stated
    equality condition also gives its numerical equality flag, whether the
    condition is met, and where the two are compared."""
    applicable: np.ndarray
    holds: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    equality: np.ndarray | None = None
    condition_met: np.ndarray | None = None
    compared: np.ndarray | None = None


def _everywhere(b: FactsBatch) -> np.ndarray:
    return np.ones(len(b.lanes), dtype=bool)


def _q_sum(b: FactsBatch) -> _Judged:
    s1, target = _row_fsums(b.eigenvalues), 2 * b.m
    slack = np.abs(s1 - target)
    return _Judged(_everywhere(b), slack <= tolerances.TRACE_SUM_REL * max(1, b.n) * b.scale,
                   s1, target.astype(np.float64), slack)


def _q_square_sum(b: FactsBatch) -> _Judged:
    q = b.eigenvalues
    s2, target = _row_fsums(q * q), 2 * b.m + b.m1
    slack = np.abs(s2 - target)
    return _Judged(_everywhere(b),
                   slack <= tolerances.TRACE_SQUARE_REL * max(1, b.n) * b.scale,
                   s2, target.astype(np.float64), slack)


def _zero_multiplicity_bipartite(b: FactsBatch) -> _Judged:
    zmult, bcount = _zero_counts(b.eigenvalues, b.scale), b.bipartite_components
    return _Judged(_everywhere(b), zmult == bcount, zmult.astype(np.float64),
                   bcount.astype(np.float64), np.abs(zmult - bcount).astype(np.float64))


def _radius_terms(b: FactsBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spectral radius q1, the average degree, and the equality
    tolerance at q1."""
    q1 = b.eigenvalues[:, 0]
    return q1, 2 * b.m / b.n, tolerances.grouping_tol(q1, scale=b.scale)


def _radius_vs_average(b: FactsBatch) -> _Judged:
    q1, avg, eq_tol = _radius_terms(b)
    eq = np.abs(q1 - 2 * avg) <= eq_tol
    return _Judged(_everywhere(b), q1 >= 2 * avg - eq_tol, q1, 2 * avg, q1 - 2 * avg,
                   eq, b.regular, _everywhere(b))


def _min_vs_average(b: FactsBatch) -> _Judged:
    # valid for connected graphs with an edge; false in general when
    # components are smaller than the average suggests
    qn = b.eigenvalues[:, -1]
    _, avg, eq_tol = _radius_terms(b)
    applicable = b.connected & (b.m >= 1)
    eq = np.abs(qn - (avg - 1)) <= eq_tol
    return _Judged(applicable, qn <= avg - 1 + eq_tol, qn, avg - 1, (avg - 1) - qn,
                   eq, b.complete, applicable)


def _radius_degree_window(b: FactsBatch) -> _Judged:
    q1, _, eq_tol = _radius_terms(b)
    lo, hi = 2.0 * b.min_degree, 2.0 * b.max_degree
    eq = (np.abs(q1 - lo) <= eq_tol) | (np.abs(q1 - hi) <= eq_tol)
    below, above = q1 - lo, hi - q1
    return _Judged(_everywhere(b), (lo - eq_tol <= q1) & (q1 <= hi + eq_tol), q1, hi,
                   np.where(above < below, above, below),     # min(below, above)
                   eq, b.regular, b.connected)


class _Lemma(NamedTuple):
    check_id: str
    note: str
    condition: str | None      # stated equality condition
    rule: Callable[[FactsBatch], _Judged]
    requires: str | None = None    # the note where the rule does not apply


# in report order
_LEMMAS = (
    _Lemma("q_sum", "eigenvalue sum equals twice the edge count", None, _q_sum),
    _Lemma("q_square_sum", "squared eigenvalue sum equals 2m plus the first Zagreb index",
           None, _q_square_sum),
    _Lemma("zero_multiplicity_bipartite",
           "multiplicity of the eigenvalue 0 equals the number of bipartite components",
           None, _zero_multiplicity_bipartite),
    _Lemma("radius_vs_average", "spectral radius is at least twice the average degree",
           "regular", _radius_vs_average),
    _Lemma("min_vs_average",
           "least eigenvalue is at most the average degree minus one (connected)",
           "complete", _min_vs_average,
           requires="requires a connected graph with at least one edge"),
    _Lemma("radius_degree_window",
           "spectral radius lies between twice the min and twice the max degree",
           "regular (connected)", _radius_degree_window),
)


def batch_lemma_failures(b: FactsBatch) -> list[tuple[int, str]]:
    """(lane, failure) for every lemma failure in the batch, in rule order,
    lanes ascending within a rule. A rule fails with its check id where it
    applies and does not hold, and otherwise with its id plus ':equality'
    where the equality flag contradicts the stated condition."""
    failures, masks = [], []
    for lemma in _LEMMAS:
        judged = lemma.rule(b)
        broken = judged.applicable & ~judged.holds
        failures.append(lemma.check_id)
        masks.append(broken)
        if judged.equality is not None:
            failures.append(lemma.check_id + ":equality")
            masks.append(~broken & judged.compared & (judged.equality != judged.condition_met))
    rules, lanes = np.nonzero(masks)
    return [(lane, failures[rule]) for rule, lane in zip(rules.tolist(), lanes.tolist())]


def check_spectral_lemmas(g: Graph | GraphFacts) -> tuple[LemmaCheck, ...]:
    """Structural facts about the signless Laplacian spectrum, each reported
    with its numeric slack, rendered from the graph's batch of one. A failure
    signals a solver defect, not a property of the graph."""
    b = graph_facts(g).batch
    checks = []
    for lemma in _LEMMAS:
        # lane 0 as Python scalars
        judged = _Judged(*(None if a is None else a.tolist()[0] for a in lemma.rule(b)))
        if not judged.applicable:
            checks.append(LemmaCheck(check_id=lemma.check_id, applicable=False, holds=None,
                                     lhs=None, rhs=None, slack=None, note=lemma.requires,
                                     condition=lemma.condition))
            continue
        checks.append(LemmaCheck(
            check_id=lemma.check_id, applicable=True, holds=judged.holds,
            lhs=judged.lhs, rhs=judged.rhs, slack=judged.slack, note=lemma.note,
            equality=judged.equality, condition=lemma.condition,
            condition_met=judged.condition_met,
            consistent=judged.equality == judged.condition_met if judged.compared else None))
    return tuple(checks)
