"""Catalog of lower and upper bounds on the signless Laplacian energy.

Each entry couples a closed-form estimate with applicability hypotheses and an
equality diagnosis. Estimates are only claimed under hypotheses that make
them true (verified exhaustively on small orders and on large random batches);
a graph outside a bound's hypotheses gets an inapplicable result with a reason
rather than a bogus number.

Each bound's hypotheses, with the reason each gives when it fails, its value
formula and its stated equality family are stated once, on the arrays of a
spectral.FactsBatch, one lane per graph; a report on one graph reads lane 0
of its batch of one. batch_violations, the one statement of the violation
rule, gives the (lane, bound_id, gap) of a batch and violations the
(bound_id, gap) of one graph; neither builds a report record. all_bounds
gives the record of every bound, evaluate_bound that of one. _tight is the
one tightness test, for the equality diagnosis; a violation is a gap below
minus the same tolerance, a negative gap that is not tight. Only a
record's extras are computed per graph, and batch_violations reads none of
them: the stated equality condition and whether the graph meets it, the
pair details of L-GAN4 and L-GAN5, and U-THM3's strictness on one branch.

Bound identifiers are a fixed external interface. The catalog table at the end
of this module states each bound's id, direction and strictness once; its row
order is BOUND_IDS. Direction is 'lower' or 'upper'; a strict entry never
attains equality, so its diagnosis reports 'near-tight-strict' when the gap is
within tolerance instead of claiming equality.

Used throughout: n vertices, m edges, M1 is the sum of squared degrees, the
mean eigenvalue is 2m/n, deviations gamma_i = |q_i - 2m/n| are sorted
descending, and T = 2m + M1 - 4m^2/n is the sum of squared deviations
(FactsBatch.mean and FactsBatch.deviation_square_sum).
Formulas keep the operation order of the scalar expressions they state, so a
batch of one and a lane of a larger batch give the same bits.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Any, Callable

import numpy as np

from . import tolerances
from .graph_core import Graph
from .spectral import FactsBatch, GraphFacts, graph_facts

__all__ = [
    "BOUND_IDS",
    "EqualityDiagnosis",
    "BoundResult",
    "evaluate_bound",
    "all_bounds",
    "violations",
    "batch_violations",
    "gan5_two_case_value",
]

PAIR_ENUMERATION_LIMIT = 20   # enumerate all valid vertex pairs only below this order


class EqualityDiagnosis(namedtuple("EqualityDiagnosis",
                                  ["tight", "condition", "condition_met", "verdict"])):
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
    __slots__ = ()


BoundResult = namedtuple("BoundResult", [
    "bound_id",
    "direction",     # lower | upper
    "strict", "applicable",
    "reason",        # populated when not applicable
    "value",
    "gap",           # qe - value (lower) or value - qe (upper)
    "diagnosis",     # an EqualityDiagnosis, or None when not applicable
    "details",       # a dict
])


# -- arithmetic that must round as the scalar expressions do ---------------------

# Every product the integer case tests form at order n is below 4n^6: with
# m <= n(n - 1)/2, M1 < n^3 and dd = (dmax - dmin)^2 <= (n - 1)^2, the largest
# are (n dd + 4m)^2 <= (n^3 - n)^2 and 16 m^2 (1 + dd) < 4n^6. Up to this
# order 4n^6 < 2^63, so int64 holds them exactly.
INT64_ORDER_MAX = 1024


def _exact(a: np.ndarray, n: int) -> np.ndarray:
    """An integer array in a type whose products in the integer case tests
    stay exact at order n: int64 up to INT64_ORDER_MAX, Python ints above."""
    return np.asarray(a).astype(np.int64 if n <= INT64_ORDER_MAX else object, copy=False)


# -- degree-pair selection shared by the two pair-based estimates ----------------
#
# Deterministic rule, stated once in _extreme_pair: anchor at the lowest-index
# extreme-degree vertex, pick the partner as the lowest-index extreme-degree
# vertex among the rest, then branch on adjacency. Below PAIR_ENUMERATION_LIMIT
# vertices the details also carry the spread of the estimate over every valid
# anchor/partner pair.

def _top_pair_value(b: FactsBatch, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    n, m, m1 = b.n, b.m, b.m1
    d1, d2 = b.degree_of(v1), b.degree_of(v2)
    return np.where(b.adjacent(v1, v2),
                    2 * m1 / m + d1 + d2 - np.sqrt((d1 - d2) ** 2 + 4) - 8 * m / n,
                    2 * m1 / m + 2 * d2 - 8 * m / n)


def _bottom_pair_value(b: FactsBatch, vn: np.ndarray, vn1: np.ndarray) -> np.ndarray:
    n, m, dmax = b.n, b.m, b.max_degree
    dn, dn1 = b.degree_of(vn), b.degree_of(vn1)
    return np.where(b.adjacent(vn, vn1),
                    8 * m / n - 2 * dn - 2 * dn1,
                    8 * m / n - (2 * dn1 + dmax + dn - np.sqrt((dmax - dn) ** 2 + 4)))


def _extreme_pair(b: FactsBatch, want_max: bool) -> tuple[np.ndarray, np.ndarray]:
    """The deterministic (anchor, partner) of every lane: its first two
    vertices by degree, largest first when want_max and smallest first
    otherwise, the lower index first among equal degrees."""
    n = b.n
    # one key per vertex, distinct within a lane, in that order
    key = (n - 1 - b.degrees if want_max else b.degrees) * n + np.arange(n)
    first = key.min(axis=1)
    second = np.where(key == first[:, None], n * n, key).min(axis=1)
    return first % n, second % n


def _pair_details(b: FactsBatch, want_max: bool, value_fn) -> dict[str, Any]:
    """The deterministic pair of lane 0 and, below PAIR_ENUMERATION_LIMIT
    vertices, the spread of value_fn over every pair the tie-break could
    pick: an anchor of the anchor's degree and another vertex of the
    partner's."""
    (v1,), (v2,) = (side.tolist() for side in _extreme_pair(b, want_max))
    degrees = b.degrees[0].tolist()
    details: dict[str, Any] = {
        "anchor_vertex": v1,
        "partner_vertex": v2,
        "anchor_degree": degrees[v1],
        "partner_degree": degrees[v2],
        "pair_adjacent": b.adjacency[0, v1, v2].item(),
    }
    if b.n > PAIR_ENUMERATION_LIMIT:
        return details
    pairs = [(a, p) for a, da in enumerate(degrees) if da == degrees[v1]
             for p, dp in enumerate(degrees) if dp == degrees[v2] and p != a]
    # every candidate pair at once, against the facts of lane 0
    vals = value_fn(b, *(np.array(side) for side in zip(*pairs))).tolist()
    details["pair_value_min"] = min(vals)
    details["pair_value_max"] = max(vals)
    details["pair_count"] = len(vals)
    return details


def gan5_two_case_value(g: Graph | GraphFacts) -> float:
    """The adjacency-branched form of the L-GAN5 estimate, evaluated without
    the bipartite special case. Exposed because the reference tables tabulate
    this form for every row, bipartite or not."""
    b = graph_facts(g).batch
    if _lane0((b.m < 1) | (b.n < 2)):
        raise ValueError("two-case estimate needs at least one edge and two vertices")
    return _bottom_pair_value(b, *_extreme_pair(b, want_max=False)).tolist()[0]


# -- equality-family predicates, one flag per lane ----------------------------------

def _lane0(a: np.ndarray) -> bool:
    """Lane 0 of a flag array, as a Python bool."""
    return a.tolist()[0]


def _is_star(b: FactsBatch) -> np.ndarray:
    # one center adjacent to all others and no other edges; includes the
    # single edge (n = 2) but not the single vertex
    return (b.n >= 2) & (b.m == b.n - 1) & (b.max_degree == b.n - 1)


def _is_perfect_matching(b: FactsBatch) -> np.ndarray:
    return (b.n >= 2) & (b.min_degree == 1) & (b.max_degree == 1)


def _connected_bipartite_regular(b: FactsBatch) -> np.ndarray:
    return b.connected & b.bipartite & b.regular


def _is_crown_like(b: FactsBatch) -> np.ndarray:
    # connected bipartite r-regular on 2r+2 vertices is exactly the complement
    # of a perfect matching inside a balanced complete bipartite graph
    return _connected_bipartite_regular(b) & (b.n == 2 * b.max_degree + 2)


def _is_balanced_complete_bipartite(b: FactsBatch) -> np.ndarray:
    # K_{a,a} with a >= 1 is exactly a connected bipartite graph that is
    # regular of degree n/2
    return _connected_bipartite_regular(b) & (2 * b.max_degree == b.n)


def _thm3_family(b: FactsBatch) -> np.ndarray:
    # the strongly-regular-style case: regular with every vertex pair sharing
    # the same number of common neighbours, adjacent or not
    u, v = np.triu_indices(b.n, 1)
    counts = b.common_neighbours[:, u, v]
    constant = (counts == counts[:, :1]).all(axis=1)
    return (b.complete | _is_perfect_matching(b)
            | (b.regular & (b.m >= 1) & constant))


# -- hypotheses several bounds share: (test on a batch, reason when it fails) -----

_EDGE = (lambda b: b.m >= 1, "requires at least one edge")
_EDGE_TWO_VERTICES = (lambda b: (b.m >= 1) & (b.n >= 2),
                      "requires at least one edge and two vertices")
_CONNECTED_EDGE = (lambda b: b.connected & (b.m >= 1),
                   "requires a connected graph with at least one edge")

# A rule gives, for every lane of a batch, its own hypotheses as (holds,
# reason) pairs, its value, and the named arrays its report reads. A lane
# whose hypotheses fail may hold any value, NaN and inf included; it never
# reaches a verdict or a record.
_Rule = tuple[list[tuple[np.ndarray, str]], np.ndarray, dict[str, np.ndarray]]

# A report takes a batch of one and lane 0 of the rule's named arrays as
# Python scalars, and gives the stated equality condition, whether the graph
# meets it (None exactly when none is stated), and the details.
_Report = tuple[str | None, bool | None, dict[str, Any]]


def _no_condition(b: FactsBatch, named: dict) -> _Report:
    return None, None, named


def _family(condition: str, flag: Callable[[FactsBatch], np.ndarray]):
    """The report of a fixed stated family: the condition, lane 0 of its
    flag, and the named values as the details."""
    return lambda b, named: (condition, _lane0(flag(b)), named)


_star = _family("star", _is_star)
_balanced_complete_bipartite = _family("balanced complete bipartite graph",
                                       _is_balanced_complete_bipartite)
_thm3_condition = _family("complete graph, perfect matching, or regular graph "
                          "with constant common-neighbour count", _thm3_family)


# -- lower bounds -----------------------------------------------------------------
#
# Each rule unpacks the facts it reads into the paper's notation.

def _l_gan1(b: FactsBatch) -> _Rule:
    m, m1, mean = b.m, b.m1, b.mean
    return [], 2 * (m1 / m - mean), {}


def _l_gan2(b: FactsBatch) -> _Rule:
    n, m, dmax = b.n, b.m, b.max_degree
    return [], 2 * dmax + 2 - 4 * m / n, {}


def _l_gan3(b: FactsBatch) -> _Rule:
    n, m, dmax, dmin = b.n, b.m, b.max_degree, b.min_degree
    value = (dmax + dmin
             + np.sqrt((dmax - dmin) ** 2 + 4 * dmax) - 4 * m / n)
    return [], value, {}


def _l_gan4(b: FactsBatch) -> _Rule:
    return [], _top_pair_value(b, *_extreme_pair(b, want_max=True)), {}


def _l_gan4_report(b: FactsBatch, named: dict) -> _Report:
    return None, None, _pair_details(b, True, _top_pair_value)


def _l_gan5(b: FactsBatch) -> _Rule:
    # connected only: on a disconnected graph deleting the extreme pair can
    # touch several components at once
    n, m, dmin, bipartite = b.n, b.m, b.min_degree, b.bipartite
    value = np.where(bipartite, 8 * m / n - 2 * dmin,
                     _bottom_pair_value(b, *_extreme_pair(b, want_max=False)))
    return [], value, {"bipartite": bipartite}


def _l_gan5_report(b: FactsBatch, named: dict) -> _Report:
    if named["bipartite"]:
        return None, None, {"branch": "bipartite"}
    details = _pair_details(b, False, _bottom_pair_value)
    details["branch"] = "two-case"
    return None, None, details


def _l_thm1(b: FactsBatch) -> _Rule:
    n = b.n
    g1, gn = b.gamma[:, 0], b.gamma[:, -1]
    t = b.deviation_square_sum
    value = (2 * np.sqrt(t * n) * np.sqrt(g1 * gn) / (g1 + gn))
    return ([(~b.min_is_zero, "requires every eigenvalue to deviate from the mean")],
            value, {"gamma_max": g1, "gamma_min": gn})


def _deviation_threshold_scale(n: int, m: np.ndarray) -> np.ndarray:
    # sqrt(m (n^3 - n^2 - 2mn + 4m)), computed in exact integers first
    m = _exact(m, n)
    c_int = m * (n ** 3 - n ** 2 - 2 * m * n + 4 * m)
    return np.sqrt(c_int.astype(np.float64))


def _l_cor4(b: FactsBatch) -> _Rule:
    n, m, dmax, dmin = b.n, b.m, b.max_degree, b.min_degree
    threshold = _deviation_threshold_scale(n, m) / (2 * n)
    value = (2 * math.sqrt(2) / 3) * np.sqrt(
        (2 * m + 0.5 * (dmax - dmin) ** 2) * n)
    return ([(~(b.gamma[:, -1] < threshold),
              "requires the minimum deviation to reach sqrt(c)/(2n)")],
            value, {"threshold": threshold})


_l_cor4_report = _family("complete graph on three vertices",
                         lambda b: (b.n == 3) & (b.m == 3))


def _l_cor5(b: FactsBatch) -> _Rule:
    n, m, dmax, dmin = b.n, b.m, b.max_degree, b.min_degree
    threshold = _deviation_threshold_scale(n, m) / n ** 3
    value = (2 * n * np.sqrt((2 * m + 0.5 * (dmax - dmin) ** 2) * n)
             / (1 + n * n))
    return ([(~(b.gamma[:, -1] < threshold),
              "requires the minimum deviation to reach sqrt(c)/n^3")],
            value, {"threshold": threshold})


def _l_thm2(b: FactsBatch) -> _Rule:
    g1 = b.gamma[:, 0]
    return ([(b.min_is_zero, "requires some eigenvalue to sit at the mean")],
            b.deviation_square_sum / g1, {"gamma_max": g1})


def _l_cor2(b: FactsBatch) -> _Rule:
    m, mean, dmax, dmin = b.m, b.mean, b.max_degree, b.min_degree
    value = ((2 * m + 0.5 * (dmax - dmin) ** 2)
             / (2 * dmax - mean))
    return [(b.min_is_zero, "requires some eigenvalue to sit at the mean")], value, {}


def _cor3_value(n: int, r, gamma_min, min_is_zero):
    """L-COR3 on r-regular graphs of order n with smallest deviation
    gamma_min; scalars or arrays."""
    return np.where(min_is_zero, float(n),
                    2 * n * r * np.sqrt(gamma_min) / (r + gamma_min))


def _l_cor3(b: FactsBatch) -> _Rule:
    zero, gn = b.min_is_zero, b.gamma[:, -1]
    return ([(b.connected & (b.m >= 1) & b.regular,
              "requires a connected regular graph with at least one edge")],
            _cor3_value(b.n, b.max_degree, gn, zero), {"zero": zero, "gamma_min": gn})


def _l_cor3_report(b: FactsBatch, named: dict) -> _Report:
    if named["zero"]:
        return _balanced_complete_bipartite(b, {"branch": "zero-deviation"})
    return ("complete graph or crown graph",
            _lane0(b.complete | _is_crown_like(b)),
            {"branch": "positive-deviation", "gamma_min": named["gamma_min"]})


# -- upper bounds -----------------------------------------------------------------

def _u_abr1(b: FactsBatch) -> _Rule:
    n, m = b.n, b.m
    return [], 4 * m * (1 - 1 / n), {}


_u_abr1_report = _family("edgeless, or a single edge plus isolated vertices",
                         lambda b: b.m <= 1)


def _u_abr2(b: FactsBatch) -> _Rule:
    n, m, m1, mean = b.n, b.m, b.m1, b.mean
    rad = m / 2 - (mean - 1)
    spread = m1 - 2 * m
    # disconnected graphs (any union of single edges has M1 = 2m) and the
    # two-vertex graph break this estimate
    return ([(b.connected & (n >= 3), "requires a connected graph on at least three vertices"),
             (~((rad < 0) | (spread < 0)), "radicand is negative")],
            (1 + np.sqrt(rad)) * np.sqrt(2 * spread), {})


def _u_li(b: FactsBatch) -> _Rule:
    n, m, dmax = b.n, b.m, b.max_degree
    rad = (n - 2) * (2 * m * m / (n - 1)
                     + (8 * m * dmax - 4 * m * m) / n
                     + m * n - 4)
    value = 2 * m / (n - 1) + n - 2 + np.sqrt(rad)
    return [(~(rad < 0), "radicand is negative")], value, {}


_u_li_report = _family("single edge", lambda b: (b.n == 2) & (b.m == 1))


def _u_gan(b: FactsBatch) -> _Rule:
    m, mean, dmax = b.m, b.mean, b.max_degree
    return ([(b.connected, "requires a connected graph")],
            2 * (2 * m + 1 - dmax - mean), {})


def _u_thm3(b: FactsBatch) -> _Rule:
    n, m, m1, mean, t = b.n, b.m, b.m1, b.mean, b.deviation_square_sum
    # integer case test: n (2m + M1) <= 8 m^2
    em = _exact(m, n)
    mean_dominant = (n * (2 * em + _exact(m1, n)) <= 8 * em * em).astype(bool, copy=False)
    value = np.where(mean_dominant,
                     mean + np.sqrt((n - 1) * (t - b.mean_squared)),
                     np.sqrt(t / n) + np.sqrt((n - 1) * t * (1 - 1 / n)))
    return [], value, {"mean_dominant": mean_dominant}


def _u_thm3_report(b: FactsBatch, named: dict) -> _Report:
    if named["mean_dominant"]:
        return _thm3_condition(b, {"branch": "mean-at-least-rms",
                                   "strict_branch": False})
    return None, None, {"branch": "mean-below-rms", "strict_branch": True}


def _u_cor6(b: FactsBatch) -> _Rule:
    n, m, mean, dmax, dmin = b.n, b.m, b.mean, b.max_degree, b.min_degree
    dd = (dmax - dmin) ** 2
    # integer case test: (n dd + 4m)^2 <= 16 m^2 (1 + dd)
    em, edd = _exact(m, n), _exact(dd, n)
    inside = ((n * edd + 4 * em) ** 2 <= 16 * em * em * (1 + edd)).astype(bool, copy=False)
    value = np.where(inside,
                     mean + np.sqrt((n - 1) * (2 * m + n * dd / 4 - b.mean_squared)),
                     np.sqrt(mean + dd / 4)
                     + np.sqrt((n - 1) * (2 * m + (n - 1) * dd / 4 - mean)))
    return ([(b.connected & ~b.regular, "requires a connected irregular graph")],
            value, {"inside": inside})


def _u_cor6_report(b: FactsBatch, named: dict) -> _Report:
    return None, None, {"branch": ("below-degree-spread-threshold" if named["inside"]
                                   else "above-degree-spread-threshold")}


def _cor7_value(n: int, m, mean_squared):
    """U-COR7 on regular graphs with n vertices and m edges, given (2m/n) ** 2
    as Python rounds it (FactsBatch.mean_squared); scalars or arrays."""
    return 2 * m / n + np.sqrt((n - 1) * (2 * m - mean_squared))


def _u_cor7(b: FactsBatch) -> _Rule:
    return ([(b.regular & (b.m >= 1), "requires a regular graph with at least one edge")],
            _cor7_value(b.n, b.m, b.mean_squared), {})


# -- the catalog --------------------------------------------------------------------
#
# One row per bound, in output order: id, direction, strict (never attains
# equality; U-THM3 reports it per branch as details["strict_branch"]), the
# shared hypothesis or None, the rule, and the report.

_CATALOG = (
    ("L-GAN1", "lower", False, _EDGE, _l_gan1, _star),
    ("L-GAN2", "lower", False, _EDGE, _l_gan2, _star),
    ("L-GAN3", "lower", False, _EDGE, _l_gan3, _star),
    ("L-GAN4", "lower", False, _EDGE_TWO_VERTICES, _l_gan4, _l_gan4_report),
    ("L-GAN5", "lower", False, _CONNECTED_EDGE, _l_gan5, _l_gan5_report),
    ("L-THM1", "lower", False, _EDGE_TWO_VERTICES, _l_thm1, _no_condition),
    ("L-COR4", "lower", False, _CONNECTED_EDGE, _l_cor4, _l_cor4_report),
    ("L-COR5", "lower", True, _CONNECTED_EDGE, _l_cor5, _no_condition),
    ("L-THM2", "lower", False, _CONNECTED_EDGE, _l_thm2, _balanced_complete_bipartite),
    ("L-COR2", "lower", False, _CONNECTED_EDGE, _l_cor2, _balanced_complete_bipartite),
    ("L-COR3", "lower", False, None, _l_cor3, _l_cor3_report),
    ("U-ABR1", "upper", False, None, _u_abr1, _u_abr1_report),
    ("U-ABR2", "upper", False, None, _u_abr2, _no_condition),
    ("U-LI", "upper", False, _EDGE_TWO_VERTICES, _u_li, _u_li_report),
    ("U-GAN", "upper", False, None, _u_gan, _no_condition),
    ("U-THM3", "upper", False, _EDGE, _u_thm3, _u_thm3_report),
    ("U-COR6", "upper", True, None, _u_cor6, _u_cor6_report),
    ("U-COR7", "upper", False, None, _u_cor7, _thm3_condition),
)

BOUND_IDS = tuple(row[0] for row in _CATALOG)


def _evaluate(rows: tuple, b: FactsBatch) -> list[_Rule]:
    """Each catalog row of rows on every lane: its hypotheses, the shared one
    first, its value and its named arrays."""
    evaluated, shared_holds = [], {}
    with np.errstate(all="ignore"):
        for _, _, _, shared, rule, _ in rows:
            hypotheses, value, named = rule(b)
            if shared is not None:
                # each shared hypothesis is tested once per batch
                if shared not in shared_holds:
                    shared_holds[shared] = shared[0](b)
                hypotheses = [(shared_holds[shared], shared[1]), *hypotheses]
            evaluated.append((hypotheses, value, named))
    return evaluated


def _gap(direction: str, value, qe):
    """How far a bound's value sits on its own side of QE; negative is the
    wrong side."""
    return (qe - value) if direction == "lower" else (value - qe)


def _tight(gap, qe, scale: float):
    """Whether each gap is within the tightness tolerance at its QE."""
    return np.abs(gap) <= tolerances.tight_tol(qe, scale=scale)


def batch_violations(b: FactsBatch) -> list[tuple[int, str, float]]:
    """(lane, bound_id, gap) for every applicable bound on the wrong side of
    its lane's QE by more than the tightness tolerance, in catalog order,
    lanes ascending within a bound. It builds no report record."""
    evaluated = _evaluate(_CATALOG, b)
    with np.errstate(all="ignore"):
        gaps = np.array([_gap(row[1], value, b.qe)
                         for row, (_, value, _) in zip(_CATALOG, evaluated)])
        wrong = gaps < -tolerances.tight_tol(b.qe, scale=b.scale)
    for row_wrong, (hypotheses, _, _) in zip(wrong, evaluated):
        for holds, _ in hypotheses:
            row_wrong &= holds
    rows, lanes = np.nonzero(wrong)
    return [(lane, BOUND_IDS[row], gap) for row, lane, gap
            in zip(rows.tolist(), lanes.tolist(), gaps[rows, lanes].tolist())]


def _results(rows: tuple, b: FactsBatch) -> tuple[BoundResult, ...]:
    """The report records of catalog rows on a batch of one."""
    return tuple(_result(row, evaluated, b)
                 for row, evaluated in zip(rows, _evaluate(rows, b)))


def _result(row: tuple, evaluated: _Rule, b: FactsBatch) -> BoundResult:
    """One catalog row evaluated on a batch of one, with its gap and its
    equality diagnosis."""
    bound_id, direction, strict = row[:3]
    hypotheses, value, named = evaluated
    reason = next((text for holds, text in hypotheses if not holds[0]), None)
    if reason is not None:
        return BoundResult(bound_id=bound_id, direction=direction, strict=strict,
                           applicable=False, reason=reason, value=None, gap=None,
                           diagnosis=None, details={})
    value = value.tolist()[0]
    condition, condition_met, details = row[5](
        b, {key: a.tolist()[0] for key, a in named.items()})
    strict = details.get("strict_branch", strict)
    qe = b.qe.tolist()[0]
    gap = _gap(direction, value, qe)
    tight = bool(_tight(gap, qe, b.scale))
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


def evaluate_bound(g: Graph | GraphFacts, bound_id: str) -> BoundResult:
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound id {bound_id!r}; "
                         f"known ids: {', '.join(BOUND_IDS)}")
    return _results((_CATALOG[BOUND_IDS.index(bound_id)],), graph_facts(g).batch)[0]


def all_bounds(g: Graph | GraphFacts) -> tuple[BoundResult, ...]:
    return _results(_CATALOG, graph_facts(g).batch)


def violations(g: Graph | GraphFacts) -> list[tuple[str, float]]:
    """(bound_id, gap) for every applicable bound on the wrong side of QE by
    more than the tightness tolerance, in catalog order: batch_violations on
    the graph's batch of one."""
    return [(bid, gap) for _, bid, gap in batch_violations(graph_facts(g).batch)]
