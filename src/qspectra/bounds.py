"""Catalog of lower and upper bounds on the signless Laplacian energy.

Each entry couples a closed-form estimate with an applicability predicate and
an equality diagnosis. Estimates are only claimed under hypotheses that make
them true (verified exhaustively on small orders and on large random batches);
a graph outside a bound's hypotheses gets an inapplicable result with a reason
rather than a bogus number.

Bound identifiers are a fixed external interface. Direction is 'lower' or
'upper'; a strict entry never attains equality, so its diagnosis reports
'near-tight-strict' when the gap is within tolerance instead of claiming
equality.

Used throughout: n vertices, m edges, M1 is the sum of squared degrees, the
mean eigenvalue is 2m/n, deviations gamma_i = |q_i - 2m/n| are sorted
descending, and T = 2m + M1 - 4m^2/n is the sum of squared deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from . import tolerances
from .graph_core import (
    Graph,
    common_neighbour_counts,
    is_balanced_complete_bipartite,
    is_complete,
    is_perfect_matching,
    is_single_edge_with_isolates,
    is_star,
)
from .spectral import GraphFacts, graph_facts

__all__ = [
    "BOUND_IDS",
    "EqualityDiagnosis",
    "BoundResult",
    "evaluate_bound",
    "all_bounds",
    "gan5_two_case_value",
]

BOUND_IDS = (
    "L-GAN1", "L-GAN2", "L-GAN3", "L-GAN4", "L-GAN5",
    "L-THM1", "L-COR4", "L-COR5", "L-THM2", "L-COR2", "L-COR3",
    "U-ABR1", "U-ABR2", "U-LI", "U-GAN", "U-THM3", "U-COR6", "U-COR7",
)

PAIR_ENUMERATION_LIMIT = 20   # enumerate all valid vertex pairs only below this order


@dataclass(frozen=True)
class EqualityDiagnosis:
    """Comparison of numerical tightness against the recorded equality family.

    verdict is one of:
      consistent              tightness and family membership agree (or there
                              is nothing to check)
      tight-no-stated-family  equality attained outside the recorded family;
                              the recorded characterizations are not complete,
                              so this is informative, not an error
      stated-family-not-tight family member failed to attain equality; would
                              indicate a defect
      near-tight-strict       a strict bound came within tolerance of equality
    """
    tight: bool
    condition: str | None
    condition_met: bool | None
    verdict: str


@dataclass(frozen=True)
class BoundResult:
    bound_id: str
    direction: str              # lower | upper
    strict: bool
    applicable: bool
    reason: str | None          # populated when not applicable
    value: float | None
    gap: float | None           # qe - value (lower) or value - qe (upper)
    diagnosis: EqualityDiagnosis | None
    details: dict[str, Any]


def _skip(bound_id: str, direction: str, strict: bool, reason: str) -> BoundResult:
    return BoundResult(bound_id=bound_id, direction=direction, strict=strict,
                       applicable=False, reason=reason, value=None, gap=None,
                       diagnosis=None, details={})


def _finish(bound_id: str, direction: str, strict: bool, value: float, f: GraphFacts,
            condition: str | None, condition_met: bool | None,
            details: dict[str, Any]) -> BoundResult:
    gap = (f.qe - value) if direction == "lower" else (value - f.qe)
    tight = abs(gap) <= tolerances.tight_tol(f.qe, scale=f.scale)
    if strict:
        verdict = "near-tight-strict" if tight else "consistent"
    elif condition is None:
        verdict = "tight-no-stated-family" if tight else "consistent"
    elif tight and condition_met:
        verdict = "consistent"
    elif tight:
        verdict = "tight-no-stated-family"
    elif condition_met:
        verdict = "stated-family-not-tight"
    else:
        verdict = "consistent"
    diag = EqualityDiagnosis(tight=tight, condition=condition,
                             condition_met=condition_met, verdict=verdict)
    return BoundResult(bound_id=bound_id, direction=direction, strict=strict,
                       applicable=True, reason=None, value=value, gap=gap,
                       diagnosis=diag, details=details)


# -- degree-pair selection shared by the two pair-based estimates ----------------
#
# Deterministic rule: anchor at the lowest-index extreme-degree vertex, pick the
# partner as the lowest-index extreme-degree vertex among the rest, then branch
# on adjacency. Below PAIR_ENUMERATION_LIMIT vertices the details also carry the
# spread of the estimate over every valid anchor/partner pair.

def _top_pair_value(f: GraphFacts, v1: int, v2: int) -> float:
    s, deg = f.stats, f.graph.degrees
    n, m, m1, d2 = s.n, s.m, s.zagreb_m1, deg[v2]
    if v2 in f.graph.adjacency[v1]:
        return (2 * m1 / m + deg[v1] + d2
                - math.sqrt((deg[v1] - d2) ** 2 + 4) - 8 * m / n)
    return 2 * m1 / m + 2 * d2 - 8 * m / n


def _bottom_pair_value(f: GraphFacts, vn: int, vn1: int) -> float:
    s, deg = f.stats, f.graph.degrees
    n, m, dmax, dn1 = s.n, s.m, s.max_degree, deg[vn1]
    if vn1 in f.graph.adjacency[vn]:
        return 8 * m / n - 2 * deg[vn] - 2 * dn1
    return 8 * m / n - (2 * dn1 + dmax + deg[vn]
                        - math.sqrt((dmax - deg[vn]) ** 2 + 4))


def _pair_candidates(degrees: tuple[int, ...], want_max: bool):
    """All (anchor, partner) pairs the tie-breaking could legitimately pick."""
    extreme = max(degrees) if want_max else min(degrees)
    for v1 in (i for i, d in enumerate(degrees) if d == extreme):
        rest = [(d, i) for i, d in enumerate(degrees) if i != v1]
        d2 = max(d for d, _ in rest) if want_max else min(d for d, _ in rest)
        for v2 in (i for d, i in rest if d == d2):
            yield v1, v2


def _deterministic_pair(degrees: tuple[int, ...], want_max: bool) -> tuple[int, int]:
    extreme = max(degrees) if want_max else min(degrees)
    v1 = degrees.index(extreme)
    rest = [(d, i) for i, d in enumerate(degrees) if i != v1]
    d2 = max(d for d, _ in rest) if want_max else min(d for d, _ in rest)
    v2 = min(i for d, i in rest if d == d2)
    return v1, v2


def _pair_details(f: GraphFacts, want_max: bool,
                  value_fn) -> tuple[float, dict[str, Any]]:
    degrees = f.graph.degrees
    v1, v2 = _deterministic_pair(degrees, want_max)
    value = value_fn(f, v1, v2)
    details: dict[str, Any] = {
        "anchor_vertex": v1,
        "partner_vertex": v2,
        "anchor_degree": degrees[v1],
        "partner_degree": degrees[v2],
        "pair_adjacent": v2 in f.graph.adjacency[v1],
    }
    if f.graph.n <= PAIR_ENUMERATION_LIMIT:
        vals = [value_fn(f, a, b) for a, b in _pair_candidates(degrees, want_max)]
        details["pair_value_min"] = min(vals)
        details["pair_value_max"] = max(vals)
        details["pair_count"] = len(vals)
    return value, details


def gan5_two_case_value(g: Graph | GraphFacts) -> float:
    """The adjacency-branched form of the L-GAN5 estimate, evaluated without
    the bipartite special case. Exposed because the reference tables tabulate
    this form for every row, bipartite or not."""
    f = graph_facts(g)
    if f.graph.m < 1 or f.graph.n < 2:
        raise ValueError("two-case estimate needs at least one edge and two vertices")
    vn, vn1 = _deterministic_pair(f.graph.degrees, want_max=False)
    return _bottom_pair_value(f, vn, vn1)


# -- equality-family predicates ---------------------------------------------------

def _is_crown_like(f: GraphFacts) -> bool:
    # connected bipartite r-regular on 2r+2 vertices is exactly the complement
    # of a perfect matching inside a balanced complete bipartite graph
    info = f.info
    return (info.is_connected and info.is_regular and info.is_bipartite
            and f.graph.n == 2 * f.stats.max_degree + 2)


def _thm3_family(f: GraphFacts) -> bool:
    g = f.graph
    if is_complete(g) or is_perfect_matching(g):
        return True
    # strongly-regular-style case: regular with every vertex pair sharing the
    # same number of common neighbours, adjacent or not
    return (f.info.is_regular and g.m >= 1
            and len({k for _, k in common_neighbour_counts(g)}) == 1)


# -- lower bounds -----------------------------------------------------------------
#
# Each evaluator unpacks the facts it reads into the paper's notation.

def _l_gan1(f: GraphFacts) -> BoundResult:
    n, m, m1 = f.stats.n, f.stats.m, f.stats.zagreb_m1
    if m < 1:
        return _skip("L-GAN1", "lower", False, "requires at least one edge")
    value = 2 * (m1 / m - 2 * m / n)
    return _finish("L-GAN1", "lower", False, value, f,
                   "star", is_star(f.graph), {})


def _l_gan2(f: GraphFacts) -> BoundResult:
    n, m, dmax = f.stats.n, f.stats.m, f.stats.max_degree
    if m < 1:
        return _skip("L-GAN2", "lower", False, "requires at least one edge")
    value = 2 * dmax + 2 - 4 * m / n
    return _finish("L-GAN2", "lower", False, value, f,
                   "star", is_star(f.graph), {})


def _l_gan3(f: GraphFacts) -> BoundResult:
    s = f.stats
    n, m, dmax, dmin = s.n, s.m, s.max_degree, s.min_degree
    if m < 1:
        return _skip("L-GAN3", "lower", False, "requires at least one edge")
    value = (dmax + dmin
             + math.sqrt((dmax - dmin) ** 2 + 4 * dmax) - 4 * m / n)
    return _finish("L-GAN3", "lower", False, value, f,
                   "star", is_star(f.graph), {})


def _l_gan4(f: GraphFacts) -> BoundResult:
    if f.stats.m < 1 or f.stats.n < 2:
        return _skip("L-GAN4", "lower", False,
                     "requires at least one edge and two vertices")
    value, details = _pair_details(f, want_max=True, value_fn=_top_pair_value)
    return _finish("L-GAN4", "lower", False, value, f, None, None, details)


def _l_gan5(f: GraphFacts) -> BoundResult:
    n, m, dmin = f.stats.n, f.stats.m, f.stats.min_degree
    # false for disconnected graphs, where deleting the extreme pair can touch
    # several components at once
    if not f.info.is_connected or m < 1:
        return _skip("L-GAN5", "lower", False,
                     "requires a connected graph with at least one edge")
    if f.info.is_bipartite:
        value = 8 * m / n - 2 * dmin
        details: dict[str, Any] = {"branch": "bipartite"}
    else:
        value, details = _pair_details(f, want_max=False,
                                       value_fn=_bottom_pair_value)
        details["branch"] = "two-case"
    return _finish("L-GAN5", "lower", False, value, f, None, None, details)


def _l_thm1(f: GraphFacts) -> BoundResult:
    n, m, m1 = f.stats.n, f.stats.m, f.stats.zagreb_m1
    if m < 1 or n < 2:
        return _skip("L-THM1", "lower", False,
                     "requires at least one edge and two vertices")
    if f.gamma.min_is_zero:
        return _skip("L-THM1", "lower", False,
                     "requires every eigenvalue to deviate from the mean")
    g1, gn = f.gamma.values[0], f.gamma.values[-1]
    t = 2 * m + m1 - 4 * m * m / n
    value = (2 * math.sqrt(t * n) * math.sqrt(g1 * gn) / (g1 + gn))
    return _finish("L-THM1", "lower", False, value, f, None, None,
                   {"gamma_max": g1, "gamma_min": gn})


def _deviation_threshold_scale(n: int, m: int) -> float:
    # sqrt(m (n^3 - n^2 - 2mn + 4m)), computed in exact integers first
    c_int = m * (n ** 3 - n ** 2 - 2 * m * n + 4 * m)
    return math.sqrt(c_int)


def _l_cor4(f: GraphFacts) -> BoundResult:
    s = f.stats
    n, m, dmax, dmin = s.n, s.m, s.max_degree, s.min_degree
    if not f.info.is_connected or m < 1:
        return _skip("L-COR4", "lower", False,
                     "requires a connected graph with at least one edge")
    threshold = _deviation_threshold_scale(n, m) / (2 * n)
    if f.gamma.values[-1] < threshold:
        return _skip("L-COR4", "lower", False,
                     "requires the minimum deviation to reach sqrt(c)/(2n)")
    value = (2 * math.sqrt(2) / 3) * math.sqrt(
        (2 * m + 0.5 * (dmax - dmin) ** 2) * n)
    return _finish("L-COR4", "lower", False, value, f,
                   "complete graph on three vertices",
                   n == 3 and m == 3, {"threshold": threshold})


def _l_cor5(f: GraphFacts) -> BoundResult:
    s = f.stats
    n, m, dmax, dmin = s.n, s.m, s.max_degree, s.min_degree
    if not f.info.is_connected or m < 1:
        return _skip("L-COR5", "lower", True,
                     "requires a connected graph with at least one edge")
    threshold = _deviation_threshold_scale(n, m) / n ** 3
    if f.gamma.values[-1] < threshold:
        return _skip("L-COR5", "lower", True,
                     "requires the minimum deviation to reach sqrt(c)/n^3")
    value = (2 * n * math.sqrt((2 * m + 0.5 * (dmax - dmin) ** 2) * n)
             / (1 + n * n))
    return _finish("L-COR5", "lower", True, value, f, None, None,
                   {"threshold": threshold})


def _l_thm2(f: GraphFacts) -> BoundResult:
    n, m, m1 = f.stats.n, f.stats.m, f.stats.zagreb_m1
    if not f.info.is_connected or m < 1:
        return _skip("L-THM2", "lower", False,
                     "requires a connected graph with at least one edge")
    if not f.gamma.min_is_zero:
        return _skip("L-THM2", "lower", False,
                     "requires some eigenvalue to sit at the mean")
    g1 = f.gamma.values[0]
    t = 2 * m + m1 - 4 * m * m / n
    value = t / g1
    return _finish("L-THM2", "lower", False, value, f,
                   "balanced complete bipartite graph",
                   is_balanced_complete_bipartite(f.graph, info=f.info), {"gamma_max": g1})


def _l_cor2(f: GraphFacts) -> BoundResult:
    s = f.stats
    n, m, dmax, dmin = s.n, s.m, s.max_degree, s.min_degree
    if not f.info.is_connected or m < 1:
        return _skip("L-COR2", "lower", False,
                     "requires a connected graph with at least one edge")
    if not f.gamma.min_is_zero:
        return _skip("L-COR2", "lower", False,
                     "requires some eigenvalue to sit at the mean")
    value = ((2 * m + 0.5 * (dmax - dmin) ** 2)
             / (2 * dmax - 2 * m / n))
    return _finish("L-COR2", "lower", False, value, f,
                   "balanced complete bipartite graph",
                   is_balanced_complete_bipartite(f.graph, info=f.info), {})


def _l_cor3(f: GraphFacts) -> BoundResult:
    n, m, r = f.stats.n, f.stats.m, f.stats.max_degree
    if not f.info.is_connected or m < 1 or not f.info.is_regular:
        return _skip("L-COR3", "lower", False,
                     "requires a connected regular graph with at least one edge")
    if f.gamma.min_is_zero:
        value = float(n)
        condition = "balanced complete bipartite graph"
        met = is_balanced_complete_bipartite(f.graph, info=f.info)
        details: dict[str, Any] = {"branch": "zero-deviation"}
    else:
        gn = f.gamma.values[-1]
        value = 2 * n * r * math.sqrt(gn) / (r + gn)
        condition = "complete graph or crown graph"
        met = is_complete(f.graph) or _is_crown_like(f)
        details = {"branch": "positive-deviation", "gamma_min": gn}
    return _finish("L-COR3", "lower", False, value, f, condition, met, details)


# -- upper bounds -----------------------------------------------------------------

def _u_abr1(f: GraphFacts) -> BoundResult:
    n, m = f.stats.n, f.stats.m
    value = 4 * m * (1 - 1 / n)
    return _finish("U-ABR1", "upper", False, value, f,
                   "edgeless, or a single edge plus isolated vertices",
                   m == 0 or is_single_edge_with_isolates(f.graph), {})


def _u_abr2(f: GraphFacts) -> BoundResult:
    n, m, m1 = f.stats.n, f.stats.m, f.stats.zagreb_m1
    # disconnected graphs (any union of single edges has M1 = 2m) and the
    # two-vertex graph break this estimate
    if not f.info.is_connected or n < 3:
        return _skip("U-ABR2", "upper", False,
                     "requires a connected graph on at least three vertices")
    rad = m / 2 - (2 * m / n - 1)
    spread = m1 - 2 * m
    if rad < 0 or spread < 0:
        return _skip("U-ABR2", "upper", False, "radicand is negative")
    value = (1 + math.sqrt(rad)) * math.sqrt(2 * spread)
    return _finish("U-ABR2", "upper", False, value, f, None, None, {})


def _u_li(f: GraphFacts) -> BoundResult:
    n, m, dmax = f.stats.n, f.stats.m, f.stats.max_degree
    if m < 1 or n < 2:
        return _skip("U-LI", "upper", False,
                     "requires at least one edge and two vertices")
    rad = (n - 2) * (2 * m * m / (n - 1)
                     + (8 * m * dmax - 4 * m * m) / n
                     + m * n - 4)
    if rad < 0:
        return _skip("U-LI", "upper", False, "radicand is negative")
    value = 2 * m / (n - 1) + n - 2 + math.sqrt(rad)
    return _finish("U-LI", "upper", False, value, f,
                   "single edge", n == 2 and m == 1, {})


def _u_gan(f: GraphFacts) -> BoundResult:
    n, m, dmax = f.stats.n, f.stats.m, f.stats.max_degree
    if not f.info.is_connected:
        return _skip("U-GAN", "upper", False, "requires a connected graph")
    value = 2 * (2 * m + 1 - dmax - 2 * m / n)
    return _finish("U-GAN", "upper", False, value, f, None, None, {})


def _u_thm3(f: GraphFacts) -> BoundResult:
    n, m, m1 = f.stats.n, f.stats.m, f.stats.zagreb_m1
    if m < 1:
        return _skip("U-THM3", "upper", False, "requires at least one edge")
    t = 2 * m + m1 - 4 * m * m / n
    # integer case test: n (2m + M1) <= 8 m^2
    mean_dominant = n * (2 * m + m1) <= 8 * m * m
    if mean_dominant:
        value = (2 * m / n
                 + math.sqrt((n - 1) * (t - (2 * m / n) ** 2)))
        return _finish(
            "U-THM3", "upper", False, value, f,
            "complete graph, perfect matching, or regular graph with constant "
            "common-neighbour count", _thm3_family(f),
            {"branch": "mean-at-least-rms", "strict_branch": False})
    value = math.sqrt(t / n) + math.sqrt((n - 1) * t * (1 - 1 / n))
    res = _finish("U-THM3", "upper", True, value, f, None, None,
                  {"branch": "mean-below-rms", "strict_branch": True})
    return res


def _u_cor6(f: GraphFacts) -> BoundResult:
    s = f.stats
    n, m, dmax, dmin = s.n, s.m, s.max_degree, s.min_degree
    if not f.info.is_connected or f.info.is_regular:
        return _skip("U-COR6", "upper", True,
                     "requires a connected irregular graph")
    dd = (dmax - dmin) ** 2
    # integer case test: (n dd + 4m)^2 <= 16 m^2 (1 + dd)
    inside = (n * dd + 4 * m) ** 2 <= 16 * m * m * (1 + dd)
    if inside:
        value = (2 * m / n
                 + math.sqrt((n - 1) * (2 * m + n * dd / 4
                                        - (2 * m / n) ** 2)))
        branch = "below-degree-spread-threshold"
    else:
        value = (math.sqrt(2 * m / n + dd / 4)
                 + math.sqrt((n - 1) * (2 * m + (n - 1) * dd / 4
                                        - 2 * m / n)))
        branch = "above-degree-spread-threshold"
    return _finish("U-COR6", "upper", True, value, f, None, None,
                   {"branch": branch})


def _u_cor7(f: GraphFacts) -> BoundResult:
    n, m = f.stats.n, f.stats.m
    if not f.info.is_regular or m < 1:
        return _skip("U-COR7", "upper", False,
                     "requires a regular graph with at least one edge")
    value = (2 * m / n
             + math.sqrt((n - 1) * (2 * m - (2 * m / n) ** 2)))
    return _finish("U-COR7", "upper", False, value, f,
                   "complete graph, perfect matching, or regular graph with "
                   "constant common-neighbour count", _thm3_family(f), {})


_EVALUATORS = {
    "L-GAN1": _l_gan1, "L-GAN2": _l_gan2, "L-GAN3": _l_gan3,
    "L-GAN4": _l_gan4, "L-GAN5": _l_gan5,
    "L-THM1": _l_thm1, "L-COR4": _l_cor4, "L-COR5": _l_cor5,
    "L-THM2": _l_thm2, "L-COR2": _l_cor2, "L-COR3": _l_cor3,
    "U-ABR1": _u_abr1, "U-ABR2": _u_abr2, "U-LI": _u_li, "U-GAN": _u_gan,
    "U-THM3": _u_thm3, "U-COR6": _u_cor6, "U-COR7": _u_cor7,
}

assert tuple(_EVALUATORS) == BOUND_IDS


def evaluate_bound(g: Graph | GraphFacts, bound_id: str) -> BoundResult:
    try:
        fn = _EVALUATORS[bound_id]
    except KeyError:
        raise ValueError(f"unknown bound id {bound_id!r}; "
                         f"known ids: {', '.join(BOUND_IDS)}") from None
    return fn(graph_facts(g))


def all_bounds(g: Graph | GraphFacts) -> tuple[BoundResult, ...]:
    f = graph_facts(g)
    return tuple(fn(f) for fn in _EVALUATORS.values())
