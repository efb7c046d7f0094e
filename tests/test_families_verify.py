"""Spectrum-pattern classifier round trips, strong-regularity detection, the
closed-form circular-ladder bounds against solver values, and the catalog's
L-COR3 and U-COR7 as the bounds on cubic graphs.
"""

import math
import random

import pytest

from qspectra import tolerances
from qspectra.bounds import evaluate_bound
from qspectra.families_verify import (
    classify_q_pattern,
    detect_srg,
    prism_bounds,
    prism_gamma_min,
)
from qspectra.graph_core import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    crown,
    cycle,
    disjoint_copies,
    disjoint_union,
    graph_from_edges,
    matching,
    path,
    prism,
    star,
)
from qspectra.reports import energies
from qspectra.spectral import GraphFacts, gamma_sequence, structure


def qe_of(g):
    return energies(g).signless_laplacian_energy


# -- union-of-complete-and-crown classifier ----------------------------------------


def test_classifier_round_trip_all_small_unions():
    for r in (2, 3, 4):
        for g_count in range(0, 4):
            for h_count in range(0, 4 - g_count):
                if g_count + h_count == 0:
                    continue
                parts = [complete(r + 1)] * g_count + [crown(r)] * h_count
                g = disjoint_union(*parts)
                res = classify_q_pattern(g)
                assert res.pattern_found, (r, g_count, h_count, res)
                assert res.degree == r
                assert res.complete_copies == g_count
                assert res.crown_copies == h_count
                assert res.structure_verified


def test_classifier_single_complete_graph():
    res = classify_q_pattern(complete(3))
    assert res.pattern_found
    assert (res.degree, res.complete_copies, res.crown_copies) == (2, 1, 0)
    assert res.structure_verified


def test_classifier_six_cycle_is_a_crown():
    res = classify_q_pattern(cycle(6))
    assert res.pattern_found
    assert (res.degree, res.complete_copies, res.crown_copies) == (2, 0, 1)
    assert res.structure_verified


def test_classifier_rejects_irregular():
    res = classify_q_pattern(path(3))
    assert not res.pattern_found
    assert "regular" in res.reason


def test_classifier_rejects_low_degree():
    res = classify_q_pattern(matching(2))
    assert not res.pattern_found
    assert "degree at least 2" in res.reason


def test_classifier_rejects_off_target_spectrum():
    for g in (cycle(4), cycle(5), prism(3)):
        res = classify_q_pattern(g)
        assert not res.pattern_found
        assert "does not match the target set" in res.reason


def test_classifier_rejects_balanced_bipartite():
    # 3-regular with eigenvalues {6, 3, 3, 3, 3, 0}: the group at 3 sits
    # outside the target set {6, 4, 2, 0}
    res = classify_q_pattern(complete_bipartite(3, 3))
    assert not res.pattern_found
    assert "does not match the target set" in res.reason


# -- strong regularity ---------------------------------------------------------------


def test_srg_rook_graph():
    res = detect_srg(cartesian_product(complete(4), complete(4)))
    assert res.is_srg
    assert res.degree == 6
    assert res.adjacent_common == 2
    assert res.nonadjacent_common == 2
    assert res.is_S_nr
    assert res.feasibility_ok
    assert res.three_eigenvalue_consistent


def test_srg_five_cycle():
    res = detect_srg(cycle(5))
    assert res.is_srg
    assert (res.degree, res.adjacent_common, res.nonadjacent_common) == (2, 0, 1)
    assert not res.is_S_nr
    assert res.feasibility_ok
    assert res.three_eigenvalue_consistent


def test_srg_four_cycle_and_balanced_bipartite():
    res = detect_srg(cycle(4))
    assert res.is_srg and (res.adjacent_common, res.nonadjacent_common) == (0, 2)
    res = detect_srg(complete_bipartite(3, 3))
    assert res.is_srg and (res.adjacent_common, res.nonadjacent_common) == (0, 3)
    assert res.feasibility_ok


def test_srg_disconnected_union_of_triangles():
    res = detect_srg(disjoint_copies(2, complete(3)))
    assert res.is_srg
    assert (res.adjacent_common, res.nonadjacent_common) == (1, 0)
    assert res.feasibility_ok
    assert res.three_eigenvalue_consistent is None


def test_srg_exclusions_and_negatives():
    assert not detect_srg(complete(5)).is_srg
    assert not detect_srg(Graph(4, ())).is_srg
    assert not detect_srg(star(4)).is_srg
    res = detect_srg(prism(5))
    assert not res.is_srg
    assert "disagree" in res.reason


# -- circular-ladder closed forms ----------------------------------------------------


def test_prism_gamma_min_matches_solver():
    for n in range(3, 31):
        solver = gamma_sequence(prism(n)).values[-1]
        assert abs(prism_gamma_min(n) - solver) <= 1e-9, n


def test_prism_gamma_min_zero_exactly_on_multiples_of_three():
    for n in range(3, 31):
        if n % 3 == 0:
            assert prism_gamma_min(n) == 0.0
        else:
            assert prism_gamma_min(n) > 0.0


def test_prism_bounds_sandwich():
    for n in range(3, 13):
        pb = prism_bounds(n)
        qe = qe_of(prism(n))
        assert pb.lower <= qe + 1e-9, n
        assert pb.upper >= qe - 1e-9, n


def test_prism_lower_is_tight_on_the_four_ladder():
    pb = prism_bounds(4)
    assert abs(pb.lower - 12.0) <= 1e-12
    assert abs(qe_of(prism(4)) - 12.0) <= 1e-9


def test_prism_flat_branch_value():
    assert prism_bounds(3).lower == 6.0
    assert prism_bounds(6).lower == 12.0
    assert prism_bounds(9).lower == 18.0


def test_prism_bounds_are_the_catalog_bounds_on_prisms():
    for n in range(3, 41):
        pb = prism_bounds(n)
        g = prism(n)
        assert pb.upper == evaluate_bound(g, "U-COR7").value, n
        assert abs(pb.lower - evaluate_bound(g, "L-COR3").value) <= 1e-9, n


def _residue_prism_bounds(n):
    """The circular-ladder bounds restated by the residue of n mod 6, with
    their own cosines: an independent oracle for prism_bounds."""
    gamma = prism_gamma_min(n)
    if n % 3 == 0:
        lower = 2.0 * n
    elif n % 6 in (1, 2):
        theta = 2.0 * math.pi * (n // 6) / n
        lower = 6.0 * n * math.sqrt(gamma) / (1.0 + math.cos(theta))
    else:
        theta = 2.0 * math.pi * math.ceil(n / 6) / n
        lower = 6.0 * n * math.sqrt(gamma) / (2.0 - math.cos(theta))
    return lower, 3.0 + math.sqrt(3.0 * (2 * n - 1) * (2 * n - 3))


def test_prism_bounds_match_the_residue_formulas_bit_for_bit():
    for n in range(3, 2001):
        pb = prism_bounds(n)
        assert (pb.lower, pb.upper) == _residue_prism_bounds(n), n


def test_prism_rejects_bad_orders():
    for bad in (2, 1, 0, -3):
        with pytest.raises(ValueError):
            prism_gamma_min(bad)
        with pytest.raises(ValueError):
            prism_bounds(bad)


# -- cubic graphs ---------------------------------------------------------------------


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


def _random_connected_cubic(n, rng):
    """A connected cubic graph on n vertices from the configuration model,
    drawing again until the pairing has no loop, no multiple edge and one
    component."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            g = graph_from_edges(n, pairs)
            if structure(g).is_connected:
                return g


def test_cor3_and_cor7_are_the_cubic_bounds():
    # on a connected cubic graph every deviation lies in [0, 3], where
    # 6 sqrt(gamma) / (3 + gamma) >= 3/2, with equality at gamma = 1 (K4): so
    # L-COR3 is at least the source's 3n/2 wherever the least deviation is 1
    # or more
    rng = random.Random(2026)
    k2 = complete(2)
    graphs = [complete(4), complete_bipartite(3, 3), _petersen(),
              cartesian_product(cartesian_product(k2, k2), k2)]
    graphs += [prism(n) for n in range(3, 13)]
    graphs += [_random_connected_cubic(n, rng) for n in range(4, 21, 2) for _ in range(3)]
    at_least_one = 0
    for g in graphs:
        f = GraphFacts(g)
        qe, tol = f.qe, tolerances.tight_tol(f.qe, scale=f.scale)
        lower, upper = evaluate_bound(f, "L-COR3"), evaluate_bound(f, "U-COR7")
        assert lower.applicable and upper.applicable, g
        assert lower.value <= qe + tol and upper.value >= qe - tol, g
        if gamma_sequence(f).values[-1] >= 1 - 1e-9:
            at_least_one += 1
            assert lower.value >= 1.5 * g.n - tol, g
    assert at_least_one >= 2     # K4 and the Petersen graph at least


def test_disconnected_cubic_graph_gets_cor7_only():
    f = GraphFacts(disjoint_union(complete(4), prism(4)))
    assert evaluate_bound(f, "U-COR7").applicable
    lower = evaluate_bound(f, "L-COR3")
    assert not lower.applicable
    assert lower.reason == "requires a connected regular graph with at least one edge"
