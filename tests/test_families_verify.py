"""Spectrum-pattern classifier round trips, strong-regularity detection, and
the closed-form circular-ladder and cubic bounds against solver values.
"""

import math

import pytest

from qspectra.bounds import evaluate_bound
from qspectra.energy import energies, gamma_sequence
from qspectra.families_verify import (
    classify_q_pattern,
    cubic_bounds,
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
    matching,
    path,
    prism,
    star,
)


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


def test_prism_bounds_match_cubic_bounds():
    for n in (3, 4, 5, 7):
        pb = prism_bounds(n)
        cb = cubic_bounds(prism(n))
        assert abs(pb.upper - cb.upper) <= 1e-12
        assert abs(pb.gamma_min - cb.gamma_min) <= 1e-9


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


def test_cubic_rejects_non_cubic():
    for g in (cycle(4), star(4), matching(1), complete(5)):
        with pytest.raises(ValueError):
            cubic_bounds(g)


def test_cubic_zero_deviation_branch():
    cb = cubic_bounds(complete_bipartite(3, 3))
    assert cb.lower_branch == "zero-deviation"
    assert cb.lower == 6.0
    assert abs(cb.qe - 6.0) <= 1e-9


def test_cubic_saturating_branch_attained_by_complete_four():
    cb = cubic_bounds(complete(4))
    assert cb.lower_branch == "deviation-at-least-one"
    assert cb.lower == 6.0
    assert abs(cb.qe - 6.0) <= 1e-9


def test_cubic_below_one_branch():
    cb = cubic_bounds(prism(5))
    assert cb.lower_branch == "deviation-below-one"
    assert 0.0 < cb.gamma_min < 1.0
    expected = 6.0 * 10 * math.sqrt(cb.gamma_min) / (3.0 + cb.gamma_min)
    assert abs(cb.lower - expected) <= 1e-12
    assert cb.lower <= cb.qe <= cb.upper


def test_cubic_handles_disconnected():
    cb = cubic_bounds(disjoint_copies(2, complete(4)))
    assert cb.lower_branch == "deviation-at-least-one"
    assert cb.lower == 12.0
    assert abs(cb.qe - 12.0) <= 1e-9


def test_cubic_sandwich_on_assorted_cubic_graphs():
    graphs = [complete(4), complete_bipartite(3, 3), crown(3)]
    graphs += [prism(n) for n in range(3, 9)]
    graphs.append(disjoint_union(complete(4), prism(4)))
    for g in graphs:
        cb = cubic_bounds(g)
        assert cb.lower <= cb.qe + 1e-9, g
        assert cb.upper >= cb.qe - 1e-9, g


def test_cubic_upper_value():
    cb = cubic_bounds(prism(3))
    assert abs(cb.upper - (3.0 + math.sqrt(3.0 * 5 * 3))) <= 1e-12
