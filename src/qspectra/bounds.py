"""Catalog of lower and upper bounds on the signless Laplacian energy.

Each entry couples a closed-form estimate with an applicability predicate and
an equality diagnosis. Estimates are only claimed under hypotheses that make
them true (verified exhaustively on small orders and on large random batches);
a graph outside a bound's hypotheses gets an inapplicable result with a reason
rather than a bogus number.

Two entries walk the catalog. all_bounds gives the full report record of every
bound, for analyze, the bounds command and the tables; violations gives only
the (id, gap) pairs of the bounds a graph violates, builds no record, and is
the one statement of the violation rule.

Bound identifiers are a fixed external interface. The catalog table at the end
of this module states each bound's id, direction and strictness once; its row
order is BOUND_IDS. Direction is 'lower' or 'upper'; a strict entry never
attains equality, so its diagnosis reports 'near-tight-strict' when the gap is
within tolerance instead of claiming equality.

Used throughout: n vertices, m edges, M1 is the sum of squared degrees, the
mean eigenvalue is 2m/n, deviations gamma_i = |q_i - 2m/n| are sorted
descending, and T = 2m + M1 - 4m^2/n is the sum of squared deviations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from . import tolerances
from .graph_core import Graph, is_complete, is_perfect_matching, is_star
from .spectral import GraphFacts, graph_facts

__all__ = [
    "BOUND_IDS",
    "EqualityDiagnosis",
    "BoundResult",
    "evaluate_bound",
    "all_bounds",
    "violations",
    "gan5_two_case_value",
]

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


def _pair_candidates(degrees: tuple[int, ...],
                     want_max: bool) -> list[tuple[int, int]]:
    """All (anchor, partner) pairs the tie-breaking could legitimately pick,
    the deterministic pair first. The partner degree is the same for every
    anchor: the extreme degree itself when several vertices share it."""
    pick = max if want_max else min
    extreme = pick(degrees)
    anchors = [i for i, d in enumerate(degrees) if d == extreme]
    d2 = extreme if len(anchors) > 1 else pick(
        d for i, d in enumerate(degrees) if i != anchors[0])
    partners = [i for i, d in enumerate(degrees) if d == d2]
    return [(v1, v2) for v1 in anchors for v2 in partners if v2 != v1]


def _pair_details(f: GraphFacts, want_max: bool,
                  value_fn) -> tuple[float, dict[str, Any]]:
    degrees = f.graph.degrees
    pairs = _pair_candidates(degrees, want_max)
    v1, v2 = pairs[0]
    details: dict[str, Any] = {
        "anchor_vertex": v1,
        "partner_vertex": v2,
        "anchor_degree": degrees[v1],
        "partner_degree": degrees[v2],
        "pair_adjacent": v2 in f.graph.adjacency[v1],
    }
    if f.graph.n > PAIR_ENUMERATION_LIMIT:
        return value_fn(f, v1, v2), details
    vals = [value_fn(f, a, b) for a, b in pairs]
    details["pair_value_min"] = min(vals)
    details["pair_value_max"] = max(vals)
    details["pair_count"] = len(vals)
    return vals[0], details


def gan5_two_case_value(g: Graph | GraphFacts) -> float:
    """The adjacency-branched form of the L-GAN5 estimate, evaluated without
    the bipartite special case. Exposed because the reference tables tabulate
    this form for every row, bipartite or not."""
    f = graph_facts(g)
    if f.graph.m < 1 or f.graph.n < 2:
        raise ValueError("two-case estimate needs at least one edge and two vertices")
    vn, vn1 = _pair_candidates(f.graph.degrees, want_max=False)[0]
    return _bottom_pair_value(f, vn, vn1)


# -- equality-family predicates ---------------------------------------------------

def _is_crown_like(f: GraphFacts) -> bool:
    # connected bipartite r-regular on 2r+2 vertices is exactly the complement
    # of a perfect matching inside a balanced complete bipartite graph
    info = f.info
    return (info.is_connected and info.is_regular and info.is_bipartite
            and f.graph.n == 2 * f.stats.max_degree + 2)


def _is_balanced_complete_bipartite(f: GraphFacts) -> bool:
    # K_{a,a} with a >= 1 is exactly a connected bipartite graph that is
    # regular of degree n/2
    info = f.info
    return (info.is_connected and info.is_bipartite and info.is_regular
            and 2 * info.regularity_degree == f.graph.n)


_THM3_CONDITION = ("complete graph, perfect matching, or regular graph with "
                   "constant common-neighbour count")


def _thm3_family(f: GraphFacts) -> bool:
    g = f.graph
    if is_complete(g) or is_perfect_matching(g):
        return True
    # strongly-regular-style case: regular with every vertex pair sharing the
    # same number of common neighbours, adjacent or not
    return (f.info.is_regular and g.m >= 1
            and len({k for _, k in f.common_neighbours}) == 1)


# -- hypotheses several bounds share: (test on the facts, reason when it fails) ---

_EDGE = (lambda f: f.stats.m >= 1, "requires at least one edge")
_EDGE_TWO_VERTICES = (lambda f: f.stats.m >= 1 and f.stats.n >= 2,
                      "requires at least one edge and two vertices")
_CONNECTED_EDGE = (lambda f: f.info.is_connected and f.stats.m >= 1,
                   "requires a connected graph with at least one edge")

# An evaluator runs only once its shared hypothesis holds. It returns the reason
# a hypothesis of its own failed, or (value, equality condition, condition met,
# details).
_Outcome = str | tuple[float, str | None, bool | None, dict[str, Any]]


# -- lower bounds -----------------------------------------------------------------
#
# Each evaluator unpacks the facts it reads into the paper's notation.

def _l_gan1(f: GraphFacts) -> _Outcome:
    n, m, m1 = f.stats.n, f.stats.m, f.stats.zagreb_m1
    return 2 * (m1 / m - 2 * m / n), "star", is_star(f.graph), {}


def _l_gan2(f: GraphFacts) -> _Outcome:
    n, m, dmax = f.stats.n, f.stats.m, f.stats.max_degree
    return 2 * dmax + 2 - 4 * m / n, "star", is_star(f.graph), {}


def _l_gan3(f: GraphFacts) -> _Outcome:
    s = f.stats
    n, m, dmax, dmin = s.n, s.m, s.max_degree, s.min_degree
    value = (dmax + dmin
             + math.sqrt((dmax - dmin) ** 2 + 4 * dmax) - 4 * m / n)
    return value, "star", is_star(f.graph), {}


def _l_gan4(f: GraphFacts) -> _Outcome:
    value, details = _pair_details(f, want_max=True, value_fn=_top_pair_value)
    return value, None, None, details


def _l_gan5(f: GraphFacts) -> _Outcome:
    # connected only: on a disconnected graph deleting the extreme pair can
    # touch several components at once
    n, m, dmin = f.stats.n, f.stats.m, f.stats.min_degree
    if f.info.is_bipartite:
        value = 8 * m / n - 2 * dmin
        details: dict[str, Any] = {"branch": "bipartite"}
    else:
        value, details = _pair_details(f, want_max=False,
                                       value_fn=_bottom_pair_value)
        details["branch"] = "two-case"
    return value, None, None, details


def _l_thm1(f: GraphFacts) -> _Outcome:
    n, m, m1 = f.stats.n, f.stats.m, f.stats.zagreb_m1
    if f.gamma.min_is_zero:
        return "requires every eigenvalue to deviate from the mean"
    g1, gn = f.gamma.values[0], f.gamma.values[-1]
    t = 2 * m + m1 - 4 * m * m / n
    value = (2 * math.sqrt(t * n) * math.sqrt(g1 * gn) / (g1 + gn))
    return value, None, None, {"gamma_max": g1, "gamma_min": gn}


def _deviation_threshold_scale(n: int, m: int) -> float:
    # sqrt(m (n^3 - n^2 - 2mn + 4m)), computed in exact integers first
    c_int = m * (n ** 3 - n ** 2 - 2 * m * n + 4 * m)
    return math.sqrt(c_int)


def _l_cor4(f: GraphFacts) -> _Outcome:
    s = f.stats
    n, m, dmax, dmin = s.n, s.m, s.max_degree, s.min_degree
    threshold = _deviation_threshold_scale(n, m) / (2 * n)
    if f.gamma.values[-1] < threshold:
        return "requires the minimum deviation to reach sqrt(c)/(2n)"
    value = (2 * math.sqrt(2) / 3) * math.sqrt(
        (2 * m + 0.5 * (dmax - dmin) ** 2) * n)
    return (value, "complete graph on three vertices", n == 3 and m == 3,
            {"threshold": threshold})


def _l_cor5(f: GraphFacts) -> _Outcome:
    s = f.stats
    n, m, dmax, dmin = s.n, s.m, s.max_degree, s.min_degree
    threshold = _deviation_threshold_scale(n, m) / n ** 3
    if f.gamma.values[-1] < threshold:
        return "requires the minimum deviation to reach sqrt(c)/n^3"
    value = (2 * n * math.sqrt((2 * m + 0.5 * (dmax - dmin) ** 2) * n)
             / (1 + n * n))
    return value, None, None, {"threshold": threshold}


def _l_thm2(f: GraphFacts) -> _Outcome:
    n, m, m1 = f.stats.n, f.stats.m, f.stats.zagreb_m1
    if not f.gamma.min_is_zero:
        return "requires some eigenvalue to sit at the mean"
    g1 = f.gamma.values[0]
    t = 2 * m + m1 - 4 * m * m / n
    return (t / g1, "balanced complete bipartite graph",
            _is_balanced_complete_bipartite(f), {"gamma_max": g1})


def _l_cor2(f: GraphFacts) -> _Outcome:
    s = f.stats
    n, m, dmax, dmin = s.n, s.m, s.max_degree, s.min_degree
    if not f.gamma.min_is_zero:
        return "requires some eigenvalue to sit at the mean"
    value = ((2 * m + 0.5 * (dmax - dmin) ** 2)
             / (2 * dmax - 2 * m / n))
    return (value, "balanced complete bipartite graph",
            _is_balanced_complete_bipartite(f), {})


def _l_cor3(f: GraphFacts) -> _Outcome:
    n, m, r = f.stats.n, f.stats.m, f.stats.max_degree
    if not f.info.is_connected or m < 1 or not f.info.is_regular:
        return "requires a connected regular graph with at least one edge"
    if f.gamma.min_is_zero:
        return (float(n), "balanced complete bipartite graph",
                _is_balanced_complete_bipartite(f), {"branch": "zero-deviation"})
    gn = f.gamma.values[-1]
    return (2 * n * r * math.sqrt(gn) / (r + gn), "complete graph or crown graph",
            is_complete(f.graph) or _is_crown_like(f),
            {"branch": "positive-deviation", "gamma_min": gn})


# -- upper bounds -----------------------------------------------------------------

def _u_abr1(f: GraphFacts) -> _Outcome:
    n, m = f.stats.n, f.stats.m
    return (4 * m * (1 - 1 / n), "edgeless, or a single edge plus isolated vertices",
            m <= 1, {})


def _u_abr2(f: GraphFacts) -> _Outcome:
    n, m, m1 = f.stats.n, f.stats.m, f.stats.zagreb_m1
    # disconnected graphs (any union of single edges has M1 = 2m) and the
    # two-vertex graph break this estimate
    if not f.info.is_connected or n < 3:
        return "requires a connected graph on at least three vertices"
    rad = m / 2 - (2 * m / n - 1)
    spread = m1 - 2 * m
    if rad < 0 or spread < 0:
        return "radicand is negative"
    return (1 + math.sqrt(rad)) * math.sqrt(2 * spread), None, None, {}


def _u_li(f: GraphFacts) -> _Outcome:
    n, m, dmax = f.stats.n, f.stats.m, f.stats.max_degree
    rad = (n - 2) * (2 * m * m / (n - 1)
                     + (8 * m * dmax - 4 * m * m) / n
                     + m * n - 4)
    if rad < 0:
        return "radicand is negative"
    value = 2 * m / (n - 1) + n - 2 + math.sqrt(rad)
    return value, "single edge", n == 2 and m == 1, {}


def _u_gan(f: GraphFacts) -> _Outcome:
    n, m, dmax = f.stats.n, f.stats.m, f.stats.max_degree
    if not f.info.is_connected:
        return "requires a connected graph"
    return 2 * (2 * m + 1 - dmax - 2 * m / n), None, None, {}


def _u_thm3(f: GraphFacts) -> _Outcome:
    n, m, m1 = f.stats.n, f.stats.m, f.stats.zagreb_m1
    t = 2 * m + m1 - 4 * m * m / n
    # integer case test: n (2m + M1) <= 8 m^2
    mean_dominant = n * (2 * m + m1) <= 8 * m * m
    if mean_dominant:
        value = (2 * m / n
                 + math.sqrt((n - 1) * (t - (2 * m / n) ** 2)))
        return (value, _THM3_CONDITION, _thm3_family(f),
                {"branch": "mean-at-least-rms", "strict_branch": False})
    value = math.sqrt(t / n) + math.sqrt((n - 1) * t * (1 - 1 / n))
    return value, None, None, {"branch": "mean-below-rms", "strict_branch": True}


def _u_cor6(f: GraphFacts) -> _Outcome:
    s = f.stats
    n, m, dmax, dmin = s.n, s.m, s.max_degree, s.min_degree
    if not f.info.is_connected or f.info.is_regular:
        return "requires a connected irregular graph"
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
    return value, None, None, {"branch": branch}


def _u_cor7(f: GraphFacts) -> _Outcome:
    n, m = f.stats.n, f.stats.m
    if not f.info.is_regular or m < 1:
        return "requires a regular graph with at least one edge"
    value = (2 * m / n
             + math.sqrt((n - 1) * (2 * m - (2 * m / n) ** 2)))
    return value, _THM3_CONDITION, _thm3_family(f), {}


# -- the catalog --------------------------------------------------------------------
#
# One row per bound, in output order: id, direction, strict (never attains
# equality; U-THM3 reports it per branch as details["strict_branch"]), the
# shared hypothesis or None, and the evaluator.

_CATALOG = (
    ("L-GAN1", "lower", False, _EDGE, _l_gan1),
    ("L-GAN2", "lower", False, _EDGE, _l_gan2),
    ("L-GAN3", "lower", False, _EDGE, _l_gan3),
    ("L-GAN4", "lower", False, _EDGE_TWO_VERTICES, _l_gan4),
    ("L-GAN5", "lower", False, _CONNECTED_EDGE, _l_gan5),
    ("L-THM1", "lower", False, _EDGE_TWO_VERTICES, _l_thm1),
    ("L-COR4", "lower", False, _CONNECTED_EDGE, _l_cor4),
    ("L-COR5", "lower", True, _CONNECTED_EDGE, _l_cor5),
    ("L-THM2", "lower", False, _CONNECTED_EDGE, _l_thm2),
    ("L-COR2", "lower", False, _CONNECTED_EDGE, _l_cor2),
    ("L-COR3", "lower", False, None, _l_cor3),
    ("U-ABR1", "upper", False, None, _u_abr1),
    ("U-ABR2", "upper", False, None, _u_abr2),
    ("U-LI", "upper", False, _EDGE_TWO_VERTICES, _u_li),
    ("U-GAN", "upper", False, None, _u_gan),
    ("U-THM3", "upper", False, _EDGE, _u_thm3),
    ("U-COR6", "upper", True, None, _u_cor6),
    ("U-COR7", "upper", False, None, _u_cor7),
)

BOUND_IDS = tuple(row[0] for row in _CATALOG)


def _outcome(row: tuple, f: GraphFacts) -> _Outcome:
    """One catalog row's shared hypothesis, then its evaluator."""
    hypothesis, evaluate = row[3], row[4]
    if hypothesis is not None and not hypothesis[0](f):
        return hypothesis[1]
    return evaluate(f)


def _gap(direction: str, value: float, qe: float) -> float:
    """How far a bound's value sits on its own side of QE; negative is the
    wrong side."""
    return (qe - value) if direction == "lower" else (value - qe)


def _result(row: tuple, f: GraphFacts, tol: float) -> BoundResult:
    """One catalog row evaluated on f, with its gap and its equality
    diagnosis; tol is the tightness tolerance at f's QE."""
    bound_id, direction, strict = row[:3]
    outcome = _outcome(row, f)
    if isinstance(outcome, str):
        return BoundResult(bound_id=bound_id, direction=direction, strict=strict,
                           applicable=False, reason=outcome, value=None, gap=None,
                           diagnosis=None, details={})
    value, condition, condition_met, details = outcome
    strict = details.get("strict_branch", strict)
    gap = _gap(direction, value, f.qe)
    tight = abs(gap) <= tol
    # condition_met is None exactly when no family is stated
    if strict:
        verdict = "near-tight-strict" if tight else "consistent"
    elif tight:
        verdict = "consistent" if condition_met else "tight-no-stated-family"
    else:
        verdict = "stated-family-not-tight" if condition_met else "consistent"
    diag = EqualityDiagnosis(tight=tight, condition=condition,
                             condition_met=condition_met, verdict=verdict)
    return BoundResult(bound_id=bound_id, direction=direction, strict=strict,
                       applicable=True, reason=None, value=value, gap=gap,
                       diagnosis=diag, details=details)


def _tight_tol(f: GraphFacts) -> float:
    return tolerances.tight_tol(f.qe, scale=f.scale)


def evaluate_bound(g: Graph | GraphFacts, bound_id: str) -> BoundResult:
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound id {bound_id!r}; "
                         f"known ids: {', '.join(BOUND_IDS)}")
    f = graph_facts(g)
    return _result(_CATALOG[BOUND_IDS.index(bound_id)], f, _tight_tol(f))


def all_bounds(g: Graph | GraphFacts) -> tuple[BoundResult, ...]:
    f = graph_facts(g)
    tol = _tight_tol(f)
    return tuple(_result(row, f, tol) for row in _CATALOG)


def violations(g: Graph | GraphFacts) -> list[tuple[str, float]]:
    """(bound_id, gap) for every applicable bound on the wrong side of QE by
    more than the tightness tolerance, in catalog order. It evaluates the
    same rows as all_bounds but builds no report record."""
    f = graph_facts(g)
    qe, tol = f.qe, _tight_tol(f)
    found = []
    for row in _CATALOG:
        outcome = _outcome(row, f)
        if isinstance(outcome, str):
            continue
        gap = _gap(row[1], outcome[0], qe)
        if gap < 0 and not abs(gap) <= tol:
            found.append((row[0], gap))
    return found
