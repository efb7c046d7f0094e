"""Dense symmetric eigensolver, graph spectra (adjacency, Laplacian,
signless Laplacian), and the per-graph facts every report reads.

The solver is a cyclic Jacobi iteration with a fixed rotation order,
terminating when the off-diagonal Frobenius norm drops below 1e-12 times the
input's Frobenius norm, capped at 50 sweeps (non-convergence is flagged, not
raised). The compiled kernel is used when its extension imports, the
pure-Python twin otherwise. Each kernel has two entry points with one twin
contract: ``jacobi_sweeps`` solves one matrix, and ``jacobi_stack`` solves a
(B, n, n) stack, leaving in each matrix and returning for it bit for bit what
``jacobi_sweeps`` would. Single-graph reads use the first. The second wins
only on many small matrices at once: ``solve_signless_laplacians`` uses it for
verify's batches of graphs on one vertex count.

``GraphFacts`` holds what the bounds and lemmas read about one graph: degree
statistics, structure, the three spectra, the deviation sequence and QE, the
lemma checks and the common-neighbour counts, each computed on first use, plus
one tolerance-scale snapshot. The spectrum, energy, bound and classifier
functions accept either a Graph or a GraphFacts; a caller that asks several
questions about one graph builds the facts once and passes them along.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import tolerances
from .graph_core import (DegreeStats, Graph, StructureInfo, common_neighbour_counts,
                         degree_stats, emit_graph6, is_complete, structure)

__all__ = [
    "BACKEND",
    "MAX_ORDER",
    "EigenSolveReport",
    "Spectrum",
    "GammaSequence",
    "GraphFacts",
    "LemmaCheck",
    "ProductSpectrumCheck",
    "symmetric_eigenvalues",
    "solve_signless_laplacians",
    "adjacency_matrix",
    "laplacian_matrix",
    "signless_laplacian_matrix",
    "a_spectrum",
    "l_spectrum",
    "q_spectrum",
    "zero_multiplicity",
    "check_spectral_lemmas",
    "product_spectrum_check",
]


try:
    from . import _jacobi_cy as _KERNEL
    BACKEND = "compiled"
except ImportError:
    from . import _jacobi_py as _KERNEL
    BACKEND = "python"

# The largest vertex count the CLI accepts; graph input above it is refused
# before any matrix is built. A solve holds an n x n float64 matrix and costs
# O(n^3) per sweep: at the cap, 8 MiB and, scaled from n = 256 (0.65 s compiled,
# 1.6 s Python, 2-vCPU Xeon), about one to two minutes per solve.
MAX_ORDER = 1024


@dataclass(frozen=True)
class EigenSolveReport:
    backend: str
    sweeps: int
    converged: bool
    off_frobenius: float       # off-diagonal Frobenius norm at termination
    max_offdiag: float
    error_bound: float         # eigenvalue perturbation bound (= off_frobenius)


def symmetric_eigenvalues(mat) -> tuple[np.ndarray, EigenSolveReport]:
    """Eigenvalues of a dense real symmetric matrix, sorted descending.

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
    work = np.array(a, dtype=np.float64, order="C", copy=True)
    return _solved(work, _KERNEL.jacobi_sweeps(work))


def _solved(work: np.ndarray, result: tuple) -> tuple[np.ndarray, EigenSolveReport]:
    """The descending eigenvalues and the report of one matrix that a kernel
    has diagonalized in place. result is the kernel's (sweeps, converged,
    off_frobenius, max_offdiag) tuple."""
    sweeps, converged, off_fro, max_off = result
    values = np.sort(np.diagonal(work))[::-1].copy()
    report = EigenSolveReport(
        backend=BACKEND,
        sweeps=int(sweeps),
        converged=bool(converged),
        off_frobenius=float(off_fro),
        max_offdiag=float(max_off),
        error_bound=float(off_fro),
    )
    return values, report


# -- graph matrices ------------------------------------------------------------

def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.float64)
    ends = np.fromiter(chain.from_iterable(g.edges), dtype=np.intp, count=2 * g.m)
    u, v = ends.reshape(-1, 2).T
    a[u, v] = 1.0
    a[v, u] = 1.0
    return a


def laplacian_matrix(g: Graph) -> np.ndarray:
    a = -adjacency_matrix(g)
    np.fill_diagonal(a, g.degrees)
    return a


def signless_laplacian_matrix(g: Graph) -> np.ndarray:
    a = adjacency_matrix(g)
    np.fill_diagonal(a, g.degrees)
    return a


@dataclass(frozen=True)
class Spectrum:
    matrix: str                              # adjacency | laplacian | signless_laplacian
    values: tuple[float, ...]                # descending
    groups: tuple[tuple[float, int], ...]    # (representative, multiplicity)
    solve: EigenSolveReport

    @property
    def radius(self) -> float:
        return max(abs(self.values[0]), abs(self.values[-1]))


def _group(values: tuple[float, ...], scale: float) -> tuple[tuple[float, int], ...]:
    radius = max(abs(values[0]), abs(values[-1]))
    tol = tolerances.grouping_tol(radius, scale=scale)
    groups = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i - 1] - values[i] > tol:
            members = values[start:i]
            groups.append((math.fsum(members) / len(members), len(members)))
            start = i
    return tuple(groups)


_MATRIX_BUILDERS = {
    "adjacency": adjacency_matrix,
    "laplacian": laplacian_matrix,
    "signless_laplacian": signless_laplacian_matrix,
}


@dataclass(frozen=True)
class GammaSequence:
    """Deviations |q_i - 2m/n| of the signless Laplacian eigenvalues from the
    average degree, sorted descending; ties are broken toward the larger
    eigenvalue so gamma_1 always comes from q_1."""
    values: tuple[float, ...]
    q_values: tuple[float, ...]     # eigenvalue supplying each deviation
    mean: float                     # 2m/n
    min_is_zero: bool               # smallest deviation vanishes numerically


@dataclass(frozen=True, eq=False)
class GraphFacts:
    """The facts about one graph, each computed at most once and only when
    first read. ``scale`` is the tolerance multiplier every comparison on this
    graph uses, read from the environment when the facts are built unless
    the caller passes its own snapshot."""
    graph: Graph
    # a lambda, so the module attribute is looked up at construction time
    scale: float = field(default_factory=lambda: tolerances.scale())

    @cached_property
    def stats(self) -> DegreeStats:
        return degree_stats(self.graph)

    @cached_property
    def info(self) -> StructureInfo:
        return structure(self.graph)

    def _spectrum(self, kind: str, values: np.ndarray, report: EigenSolveReport) -> Spectrum:
        vt = tuple(values.tolist())
        return Spectrum(matrix=kind, values=vt, groups=_group(vt, self.scale), solve=report)

    def _solve(self, kind: str) -> Spectrum:
        return self._spectrum(kind, *symmetric_eigenvalues(_MATRIX_BUILDERS[kind](self.graph)))

    @cached_property
    def adjacency(self) -> Spectrum:
        return self._solve("adjacency")

    @cached_property
    def laplacian(self) -> Spectrum:
        return self._solve("laplacian")

    @cached_property
    def signless_laplacian(self) -> Spectrum:
        return self._solve("signless_laplacian")

    @cached_property
    def gamma(self) -> GammaSequence:
        mean = 2 * self.graph.m / self.graph.n
        spec = self.signless_laplacian
        paired = sorted(((abs(v - mean), v) for v in spec.values),
                        key=lambda t: (-t[0], -t[1]))
        values = tuple(p[0] for p in paired)
        qs = tuple(p[1] for p in paired)
        zero = values[-1] <= tolerances.zero_tol(max(1.0, spec.values[0]), scale=self.scale)
        return GammaSequence(values=values, q_values=qs, mean=mean, min_is_zero=zero)

    @cached_property
    def qe(self) -> float:
        """Signless Laplacian energy: the sum of the deviations."""
        return math.fsum(self.gamma.values)

    @cached_property
    def lemmas(self) -> tuple[LemmaCheck, ...]:
        return _lemma_checks(self)

    @cached_property
    def common_neighbours(self) -> tuple[tuple[bool, int], ...]:
        """graph_core.common_neighbour_counts of the graph, as a tuple."""
        return tuple(common_neighbour_counts(self.graph))

    def unconverged(self) -> tuple[str, ...]:
        """Names ('<kind> of <graph6>') of the matrices solved so far whose
        solve did not converge."""
        # a cached_property keeps its value in __dict__ once computed
        solved = (self.__dict__.get(kind) for kind in _MATRIX_BUILDERS)
        return tuple(f"{spec.matrix} of {emit_graph6(self.graph)}"
                     for spec in solved if spec is not None and not spec.solve.converged)


def solve_signless_laplacians(facts: list[GraphFacts]) -> None:
    """Solve the signless Laplacians of graphs on one vertex count in one call
    to the stack kernel, and cache each spectrum where ``f.signless_laplacian``
    reads it. Each is bit for bit the spectrum that the read would solve."""
    stack = np.stack([signless_laplacian_matrix(f.graph) for f in facts])
    results = _KERNEL.jacobi_stack(stack)
    for f, work, result in zip(facts, stack, results):
        # a cached_property keeps its value in __dict__, where this sets it
        f.__dict__["signless_laplacian"] = f._spectrum(
            "signless_laplacian", *_solved(work, result))


def graph_facts(g: Graph | GraphFacts) -> GraphFacts:
    """The facts of g, built fresh unless g already is a GraphFacts."""
    return g if isinstance(g, GraphFacts) else GraphFacts(g)


def a_spectrum(g: Graph | GraphFacts) -> Spectrum:
    return graph_facts(g).adjacency


def l_spectrum(g: Graph | GraphFacts) -> Spectrum:
    return graph_facts(g).laplacian


def q_spectrum(g: Graph | GraphFacts) -> Spectrum:
    return graph_facts(g).signless_laplacian


def zero_multiplicity(spec: Spectrum, *, scale: float | None = None) -> int:
    tol = tolerances.zero_tol(spec.radius, scale=scale)
    return sum(1 for v in spec.values if abs(v) <= tol)


# -- lemma checks ---------------------------------------------------------------

@dataclass(frozen=True)
class LemmaCheck:
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

    @property
    def failure(self) -> str | None:
        """The failure this check reports: its id when it applies and does
        not hold, its id plus ':equality' when the equality flag contradicts
        the stated condition, None when it passes."""
        if self.applicable and self.holds is False:
            return self.check_id
        if self.consistent is False:
            return self.check_id + ":equality"
        return None


def check_spectral_lemmas(g: Graph | GraphFacts) -> tuple[LemmaCheck, ...]:
    """Structural facts about the signless Laplacian spectrum, each reported
    with its numeric slack. A failure signals a solver defect, not a property
    of the graph."""
    return graph_facts(g).lemmas


def _lemma_checks(f: GraphFacts) -> tuple[LemmaCheck, ...]:
    stats, info, spec, sc = f.stats, f.info, f.signless_laplacian, f.scale
    q = spec.values
    n, m = stats.n, stats.m
    avg = 2 * m / n
    q1, qn = q[0], q[-1]
    eq_tol = tolerances.grouping_tol(q1, scale=sc)
    checks = []

    s1 = math.fsum(q)
    checks.append(LemmaCheck(
        check_id="q_sum", applicable=True,
        holds=abs(s1 - 2 * m) <= tolerances.TRACE_SUM_REL * max(1, n) * sc,
        lhs=s1, rhs=float(2 * m), slack=abs(s1 - 2 * m),
        note="eigenvalue sum equals twice the edge count"))

    s2 = math.fsum(v * v for v in q)
    target = 2 * m + stats.zagreb_m1
    checks.append(LemmaCheck(
        check_id="q_square_sum", applicable=True,
        holds=abs(s2 - target) <= tolerances.TRACE_SQUARE_REL * max(1, n) * sc,
        lhs=s2, rhs=float(target), slack=abs(s2 - target),
        note="squared eigenvalue sum equals 2m plus the first Zagreb index"))

    zmult = zero_multiplicity(spec, scale=sc)
    bcount = info.bipartite_component_count
    checks.append(LemmaCheck(
        check_id="zero_multiplicity_bipartite", applicable=True,
        holds=zmult == bcount,
        lhs=float(zmult), rhs=float(bcount), slack=float(abs(zmult - bcount)),
        note="multiplicity of the eigenvalue 0 equals the number of bipartite components"))

    eq = abs(q1 - 2 * avg) <= eq_tol
    checks.append(LemmaCheck(
        check_id="radius_vs_average", applicable=True,
        holds=q1 >= 2 * avg - eq_tol,
        lhs=q1, rhs=2 * avg, slack=q1 - 2 * avg,
        equality=eq, condition="regular", condition_met=info.is_regular,
        consistent=eq == info.is_regular,
        note="spectral radius is at least twice the average degree"))

    # valid for connected graphs with an edge; false in general when
    # components are smaller than the average suggests
    if info.is_connected and m >= 1:
        eq = abs(qn - (avg - 1)) <= eq_tol
        comp = is_complete(f.graph)
        checks.append(LemmaCheck(
            check_id="min_vs_average", applicable=True,
            holds=qn <= avg - 1 + eq_tol,
            lhs=qn, rhs=avg - 1, slack=(avg - 1) - qn,
            equality=eq, condition="complete", condition_met=comp,
            consistent=eq == comp,
            note="least eigenvalue is at most the average degree minus one (connected)"))
    else:
        checks.append(LemmaCheck(
            check_id="min_vs_average", applicable=False,
            holds=None, lhs=None, rhs=None, slack=None, condition="complete",
            note="requires a connected graph with at least one edge"))

    lo, hi = 2.0 * stats.min_degree, 2.0 * stats.max_degree
    eq = abs(q1 - lo) <= eq_tol or abs(q1 - hi) <= eq_tol
    consistent = (eq == info.is_regular) if info.is_connected else None
    checks.append(LemmaCheck(
        check_id="radius_degree_window", applicable=True,
        holds=(lo - eq_tol <= q1 <= hi + eq_tol),
        lhs=q1, rhs=hi, slack=min(q1 - lo, hi - q1),
        equality=eq, condition="regular (connected)", condition_met=info.is_regular,
        consistent=consistent,
        note="spectral radius lies between twice the min and twice the max degree"))

    return tuple(checks)


# -- Cartesian product spectrum check -------------------------------------------

@dataclass(frozen=True)
class ProductSpectrumCheck:
    matrix: str
    ok: bool
    max_abs_diff: float


def product_spectrum_check(g: Graph, h: Graph, kind: str) -> ProductSpectrumCheck:
    """The spectrum of a Cartesian product is the multiset of pairwise sums of
    the factors' spectra, for all three matrix kinds (the degree matrix of the
    product is the Kronecker sum of the factors' degree matrices)."""
    from .graph_core import cartesian_product
    if kind not in _MATRIX_BUILDERS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    sc = tolerances.scale()
    sg = getattr(GraphFacts(g, sc), kind).values
    sh = getattr(GraphFacts(h, sc), kind).values
    expected = sorted((x + y for x in sg for y in sh), reverse=True)
    actual = getattr(GraphFacts(cartesian_product(g, h), sc), kind).values
    radius = max(abs(actual[0]), abs(actual[-1]))
    diff = max(abs(a - b) for a, b in zip(actual, expected))
    return ProductSpectrumCheck(matrix=kind, ok=diff <= tolerances.match_tol(radius, scale=sc),
                                max_abs_diff=diff)
