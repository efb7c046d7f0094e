"""Spectrum-pattern recognition and closed-form bounds for structured families.

Covers three related facilities: recovering a disjoint union of equal-order
complete graphs and crown graphs from its signless Laplacian spectrum alone,
detecting strong regularity from the common-neighbour counts of the graph's
batch of one (the matrix square of its adjacency), and the bounds for
circular-ladder (prism) graphs. Those bounds are the catalog's
L-COR3 and U-COR7, evaluated at the closed-form minimum deviation; only
prism_gamma_min follows the residue of n mod 6. On any other cubic graph the
catalog's own L-COR3 and U-COR7 rows are the cubic bounds.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import tolerances
from .bounds import _cor3_value, _cor7_value
from .graph_core import Graph
from .spectral import GraphFacts, graph_facts

__all__ = [
    "QPatternResult",
    "classify_q_pattern",
    "SrgResult",
    "detect_srg",
    "prism_gamma_min",
    "PrismBounds",
    "prism_bounds",
]


# -- union-of-complete-and-crown recognition --------------------------------------

class QPatternResult(NamedTuple):
    """Outcome of matching a spectrum against the four-value target pattern
    {2r, r+1, r-1, 0} of a disjoint union of complete graphs on r+1 vertices
    and crown graphs of degree r.

    pattern_found reports the spectral match; complete_copies / crown_copies
    carry the inferred counts; structure_verified confirms the inferred union
    against the actual graph (components, sizes, bipartiteness).
    """
    pattern_found: bool
    reason: str | None
    degree: int | None
    complete_copies: int | None
    crown_copies: int | None
    structure_verified: bool | None


def _no_pattern(reason: str) -> QPatternResult:
    return QPatternResult(pattern_found=False, reason=reason, degree=None,
                          complete_copies=None, crown_copies=None,
                          structure_verified=None)


def classify_q_pattern(g: Graph | GraphFacts) -> QPatternResult:
    f = graph_facts(g)
    b = f.batch
    if not b.regular[0]:
        return _no_pattern("graph is not regular")
    r = b.max_degree.tolist()[0]
    if r < 2:
        return _no_pattern("requires regularity degree at least 2")
    spec = f.signless_laplacian
    targets = (float(2 * r), float(r + 1), float(r - 1), 0.0)
    tol = tolerances.grouping_tol(spec.radius, scale=f.scale)
    counts = {t: 0 for t in targets}
    for rep, mult in spec.groups:
        hits = [t for t in targets if abs(rep - t) <= tol]
        if len(hits) != 1:
            return _no_pattern(
                f"eigenvalue group near {rep:.6f} does not match the target set")
        counts[hits[0]] += mult

    h = counts[0.0]
    g_count = counts[float(2 * r)] - h
    if g_count < 0:
        return _no_pattern("fewer top eigenvalues than zero eigenvalues")
    if counts[float(r + 1)] != r * h:
        return _no_pattern("multiplicity at r+1 inconsistent with the crown count")
    if counts[float(r - 1)] != r * (g_count + h):
        return _no_pattern("multiplicity at r-1 inconsistent with the copy counts")
    if f.graph.n != (r + 1) * (g_count + 2 * h):
        return _no_pattern("vertex count inconsistent with the copy counts")

    # structural confirmation of the spectral inference; in an r-regular graph
    # a component on r+1 vertices is forced to be complete, and a bipartite
    # component on 2r+2 vertices is forced to be a crown
    leaders = b.leaders[0]
    sizes = np.bincount(b.labels[0], minlength=f.graph.n)[leaders].tolist()
    complete_seen = crown_seen = 0
    verified = True
    for size, odd in zip(sizes, b.odd[0, leaders].tolist()):
        if size == r + 1:
            complete_seen += 1
        elif size == 2 * r + 2 and not odd:
            crown_seen += 1
        else:
            verified = False
    if complete_seen != g_count or crown_seen != h:
        verified = False
    return QPatternResult(pattern_found=True, reason=None, degree=r,
                          complete_copies=g_count, crown_copies=h,
                          structure_verified=verified)


# -- strong regularity -------------------------------------------------------------

class SrgResult(NamedTuple):
    """Strong regularity certificate from exhaustive common-neighbour counts.

    adjacent_common / nonadjacent_common are the shared counts when constant.
    is_S_nr flags the subfamily with equal counts for adjacent and non-adjacent
    pairs, the family the equality cases of the spread-based upper bounds live
    in. three_eigenvalue_consistent cross-checks the classical fact that a
    connected strongly regular graph has at most three distinct adjacency
    eigenvalues (None when not applicable).
    """
    is_srg: bool
    reason: str | None
    degree: int | None
    adjacent_common: int | None
    nonadjacent_common: int | None
    is_S_nr: bool
    feasibility_ok: bool | None
    three_eigenvalue_consistent: bool | None


def _not_srg(reason: str) -> SrgResult:
    return SrgResult(is_srg=False, reason=reason, degree=None,
                     adjacent_common=None, nonadjacent_common=None,
                     is_S_nr=False, feasibility_ok=None,
                     three_eigenvalue_consistent=None)


def detect_srg(g: Graph | GraphFacts) -> SrgResult:
    f = graph_facts(g)
    b = f.batch
    if not b.regular[0]:
        return _not_srg("graph is not regular")
    n, m, r = f.graph.n, f.graph.m, b.max_degree.tolist()[0]
    if m == 0:
        return _not_srg("edgeless graphs are excluded by convention")
    if b.complete[0]:
        return _not_srg("complete graphs are excluded by convention")
    # every vertex pair u < v in lexicographic order; n >= 2 with some edge
    # and some non-edge guarantees both kinds of pair
    u, v = np.triu_indices(n, 1)
    adjacent, counts = b.adjacency[0, u, v], b.common_neighbours[0, u, v]
    a, c = counts[adjacent][0].item(), counts[~adjacent][0].item()
    differs = counts != np.where(adjacent, a, c)
    if differs.any():
        # the first pair that disagrees with the first pair of its kind
        kind = "adjacent" if adjacent[differs.argmax()] else "non-adjacent"
        return _not_srg(f"{kind} pairs disagree on common neighbours")
    feasible = r * (r - 1 - a) == (n - r - 1) * c
    three_ok = None
    if b.connected[0]:
        three_ok = len(f.adjacency.groups) <= 3
    return SrgResult(is_srg=True, reason=None, degree=r,
                     adjacent_common=a, nonadjacent_common=c,
                     is_S_nr=(a == c), feasibility_ok=feasible,
                     three_eigenvalue_consistent=three_ok)


# -- circular-ladder (prism) closed forms ------------------------------------------

def prism_gamma_min(n: int) -> float:
    """Smallest deviation of a circular-ladder eigenvalue from the mean 3,
    in closed form via the cosine spectrum of the underlying cycle."""
    if not isinstance(n, int) or n < 3:
        raise ValueError("circular ladders need a cycle length of at least 3")
    if n % 3 == 0:
        return 0.0
    if n % 6 in (1, 2):
        return 2.0 * math.cos(2.0 * math.pi * (n // 6) / n) - 1.0
    return 1.0 - 2.0 * math.cos(2.0 * math.pi * math.ceil(n / 6) / n)


class PrismBounds(NamedTuple):
    n: int                  # cycle length; the graph has 2n vertices
    gamma_min: float
    lower: float
    upper: float


def prism_bounds(n: int) -> PrismBounds:
    """Closed-form lower and upper bounds on the signless Laplacian energy of
    the circular ladder on 2n vertices: L-COR3 and U-COR7 on a cubic graph
    with 2n vertices and 3n edges, at the closed-form minimum deviation."""
    gamma = prism_gamma_min(n)
    return PrismBounds(n=n, gamma_min=gamma,
                       lower=float(_cor3_value(2 * n, 3, gamma, gamma == 0.0)),
                       upper=float(_cor7_value(2 * n, 3 * n)))

