"""Bound catalog: sandwich property on every small graph, equality families,
applicability gates, deterministic pair selection, and strictness flags.
"""

import math
import random

import pytest

from qspectra import tolerances
from qspectra.bounds import (
    BOUND_IDS,
    PAIR_ENUMERATION_LIMIT,
    _extreme_pair,
    _is_balanced_complete_bipartite,
    _pair_candidates,
    all_bounds,
    evaluate_bound,
    gan5_two_case_value,
    violations,
)
from qspectra.reports import energies
from qspectra.spectral import FactsBatch, GraphFacts
from qspectra.graph_core import (
    Graph,
    complete,
    complete_bipartite,
    crown,
    cycle,
    disjoint_union,
    graph_from_edges,
    graph_from_mask,
    matching,
    path,
    prism,
    random_graph,
    star,
)


def labeled_graphs(n):
    """Every labeled graph on exactly n vertices, in edge-mask order."""
    return (graph_from_mask(n, mask) for mask in range(1 << (n * (n - 1) // 2)))


def qe_of(g):
    return energies(g).signless_laplacian_energy


def result_map(g):
    return {r.bound_id: r for r in all_bounds(g)}


def assert_sandwich(g, r, qe):
    tol = tolerances.tight_tol(qe)
    if r.direction == "lower":
        assert r.value <= qe + tol, (g, r)
    else:
        assert r.value >= qe - tol, (g, r)
    assert r.diagnosis.verdict != "stated-family-not-tight", (g, r)


# -- global contract -------------------------------------------------------------


def test_catalog_is_complete_and_ordered():
    results = all_bounds(complete(4))
    assert tuple(r.bound_id for r in results) == BOUND_IDS
    assert len(BOUND_IDS) == 18
    for r in results:
        assert r.direction in ("lower", "upper")
        assert r.direction == ("lower" if r.bound_id.startswith("L-") else "upper")


def test_unknown_bound_id():
    with pytest.raises(ValueError):
        evaluate_bound(complete(3), "L-NOPE")


def test_every_small_graph_respects_every_applicable_bound():
    for n in range(1, 6):
        for g in labeled_graphs(n):
            qe = qe_of(g)
            for r in all_bounds(g):
                if r.applicable:
                    assert_sandwich(g, r, qe)
                else:
                    assert r.reason
                    assert r.value is None and r.gap is None


def test_random_graphs_respect_every_applicable_bound():
    rng = random.Random(101)
    for _ in range(150):
        g = random_graph(rng.randrange(1, 11), rng.choice([0.2, 0.5, 0.8]), rng)
        qe = qe_of(g)
        for r in all_bounds(g):
            if r.applicable:
                assert_sandwich(g, r, qe)


def verdict_corpus():
    """Every graph with n <= 5, then seeded samples at n = 6 and n = 7."""
    for n in range(1, 6):
        yield from labeled_graphs(n)
    rng = random.Random(909)
    for n in (6, 7):
        for mask in rng.sample(range(1 << (n * (n - 1) // 2)), 300):
            yield graph_from_mask(n, mask)


def test_violations_are_the_violated_rows_of_all_bounds():
    # the oracle restates the rule on the report records: applicable, on the
    # wrong side of QE, and not within the tightness tolerance
    seen = {1.0: 0, 1e-300: 0}
    for g in verdict_corpus():
        for scale in seen:
            f = GraphFacts(g, scale)
            expected = [(r.bound_id, r.gap) for r in all_bounds(f)
                        if r.applicable and r.gap < 0 and not r.diagnosis.tight]
            assert repr(violations(f)) == repr(expected), (g, scale)
            seen[scale] += len(expected)
    assert seen[1e-300] > 0


def test_gap_sign_convention():
    g = cycle(5)
    qe = qe_of(g)
    for r in all_bounds(g):
        if r.applicable:
            expected = qe - r.value if r.direction == "lower" else r.value - qe
            assert abs(r.gap - expected) <= 1e-15


# -- stated equality families ------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 11))
def test_star_attains_first_three_lower_bounds(n):
    g = star(n)
    res = result_map(g)
    for bid in ("L-GAN1", "L-GAN2", "L-GAN3"):
        r = res[bid]
        assert r.applicable
        assert abs(r.value - qe_of(g)) <= 1e-8
        assert r.diagnosis.tight
        assert r.diagnosis.condition_met
        assert r.diagnosis.verdict == "consistent"


def test_triangle_attains_cor4():
    r = evaluate_bound(complete(3), "L-COR4")
    assert r.applicable
    assert abs(r.value - 4.0) <= 1e-9
    assert r.diagnosis.tight and r.diagnosis.condition_met
    assert r.diagnosis.verdict == "consistent"


def test_cor4_gate_excludes_complete_four():
    # the minimum deviation of the four-vertex complete graph sits below the
    # deviation threshold, so the estimate must be reported inapplicable
    r = evaluate_bound(complete(4), "L-COR4")
    assert not r.applicable


def test_crown_three_attains_thm1():
    g = crown(3)
    r = evaluate_bound(g, "L-THM1")
    assert r.applicable
    assert abs(r.value - 12.0) <= 1e-8
    assert r.diagnosis.tight
    assert r.diagnosis.condition is None
    assert r.diagnosis.verdict == "tight-no-stated-family"


def test_single_edge_has_no_eigenvalue_at_the_mean():
    # the two-vertex complete bipartite graph has eigenvalues 2 and 0 around
    # mean 1, so the mean-anchored estimates must gate themselves off
    res = result_map(complete_bipartite(1, 1))
    assert not res["L-THM2"].applicable
    assert not res["L-COR2"].applicable
    assert res["L-THM1"].applicable


@pytest.mark.parametrize("a", range(2, 6))
def test_balanced_bipartite_attains_thm2_and_cor2(a):
    g = complete_bipartite(a, a)
    qe = qe_of(g)
    for bid in ("L-THM2", "L-COR2"):
        r = evaluate_bound(g, bid)
        assert r.applicable
        assert abs(r.value - qe) <= 1e-8
        assert abs(r.value - 2 * a) <= 1e-8
        assert r.diagnosis.condition_met
        assert r.diagnosis.verdict == "consistent"


def test_cor3_three_equality_branches():
    # complete: positive-deviation branch
    r = evaluate_bound(complete(5), "L-COR3")
    assert r.details["branch"] == "positive-deviation"
    assert abs(r.value - 8.0) <= 1e-8
    assert r.diagnosis.verdict == "consistent" and r.diagnosis.tight
    # crown: positive-deviation branch
    r = evaluate_bound(crown(3), "L-COR3")
    assert r.details["branch"] == "positive-deviation"
    assert abs(r.value - 12.0) <= 1e-8
    assert r.diagnosis.verdict == "consistent" and r.diagnosis.tight
    # balanced complete bipartite: zero-deviation branch, value n
    r = evaluate_bound(complete_bipartite(3, 3), "L-COR3")
    assert r.details["branch"] == "zero-deviation"
    assert abs(r.value - 6.0) <= 1e-12
    assert r.diagnosis.verdict == "consistent" and r.diagnosis.tight


def test_cor3_not_tight_on_other_regular_graphs():
    r = evaluate_bound(cycle(5), "L-COR3")
    assert r.applicable
    assert not r.diagnosis.tight
    assert not r.diagnosis.condition_met
    assert r.diagnosis.verdict == "consistent"


@pytest.mark.parametrize("k", range(1, 6))
def test_matching_attains_thm3_case_a(k):
    g = matching(k)
    r = evaluate_bound(g, "U-THM3")
    assert r.applicable
    assert not r.strict
    assert r.details["branch"] == "mean-at-least-rms"
    assert abs(r.value - 2 * k) <= 1e-8
    assert r.diagnosis.tight and r.diagnosis.condition_met
    assert r.diagnosis.verdict == "consistent"


def test_rook_graph_attains_thm3():
    g = cartesian_rook()
    r = evaluate_bound(g, "U-THM3")
    assert r.applicable and not r.strict
    assert abs(r.value - 36.0) <= 1e-7
    assert abs(qe_of(g) - 36.0) <= 1e-7
    assert r.diagnosis.tight and r.diagnosis.condition_met
    assert r.diagnosis.verdict == "consistent"


def cartesian_rook():
    from qspectra.graph_core import cartesian_product
    return cartesian_product(complete(4), complete(4))


def test_abr1_equality_cases():
    r = evaluate_bound(Graph(4, ()), "U-ABR1")
    assert r.applicable and r.value == 0.0
    assert r.diagnosis.tight and r.diagnosis.condition_met
    assert r.diagnosis.verdict == "consistent"
    g = disjoint_union(matching(1), Graph(3, ()))
    r = evaluate_bound(g, "U-ABR1")
    assert abs(r.value - 4 * (1 - 1 / 5)) <= 1e-12
    assert r.diagnosis.tight and r.diagnosis.condition_met
    assert r.diagnosis.verdict == "consistent"


def test_equality_family_predicates():
    assert _is_balanced_complete_bipartite(GraphFacts(complete_bipartite(3, 3)).batch)
    assert not _is_balanced_complete_bipartite(GraphFacts(complete_bipartite(2, 3)).batch)
    assert not _is_balanced_complete_bipartite(GraphFacts(crown(3)).batch)
    # U-ABR1's family: edgeless, or a single edge plus isolated vertices
    assert evaluate_bound(graph_from_edges(4, [(1, 3)]), "U-ABR1").diagnosis.condition_met
    assert not evaluate_bound(matching(2), "U-ABR1").diagnosis.condition_met


def test_li_equality_on_single_edge():
    r = evaluate_bound(matching(1), "U-LI")
    assert r.applicable
    assert abs(r.value - 2.0) <= 1e-12
    assert r.diagnosis.tight and r.diagnosis.condition_met
    assert r.diagnosis.verdict == "consistent"


@pytest.mark.parametrize("n", range(2, 8))
def test_complete_attains_cor7(n):
    r = evaluate_bound(complete(n), "U-COR7")
    assert r.applicable
    assert abs(r.value - (2 * n - 2)) <= 1e-8
    assert r.diagnosis.tight and r.diagnosis.condition_met
    assert r.diagnosis.verdict == "consistent"


# -- applicability gates -----------------------------------------------------------


def test_edgeless_gates():
    res = result_map(Graph(4, ()))
    for bid in ("L-GAN1", "L-GAN2", "L-GAN3", "L-GAN4", "L-GAN5", "L-THM1",
                "L-COR4", "L-COR5", "L-THM2", "L-COR2", "L-COR3",
                "U-ABR2", "U-LI", "U-GAN", "U-THM3", "U-COR6", "U-COR7"):
        assert not res[bid].applicable, bid
    assert res["U-ABR1"].applicable


def test_connectivity_gates():
    for g in (matching(2), matching(3),
              disjoint_union(complete(4), Graph(2, ())),
              disjoint_union(star(3), Graph(3, ()))):
        res = result_map(g)
        for bid in ("L-GAN5", "L-COR4", "L-COR5", "L-THM2", "L-COR2", "L-COR3",
                    "U-ABR2", "U-GAN", "U-COR6"):
            assert not res[bid].applicable, (g, bid)
        for bid in ("L-GAN1", "L-GAN2", "L-GAN3", "L-GAN4", "U-ABR1", "U-LI",
                    "U-THM3"):
            assert res[bid].applicable, (g, bid)


def test_abr2_needs_three_vertices():
    assert not evaluate_bound(matching(1), "U-ABR2").applicable
    assert evaluate_bound(path(3), "U-ABR2").applicable


def test_cor6_requires_irregular():
    assert not evaluate_bound(cycle(4), "U-COR6").applicable
    assert not evaluate_bound(complete(5), "U-COR6").applicable
    r = evaluate_bound(path(3), "U-COR6")
    assert r.applicable and r.strict


def test_deviation_branch_gates_are_complementary():
    # a vanishing minimum deviation routes to the mean-anchored estimates,
    # a positive one to the deviation-product estimate
    zero_case = result_map(cycle(4))
    assert not zero_case["L-THM1"].applicable
    assert zero_case["L-THM2"].applicable
    assert zero_case["L-COR2"].applicable
    positive_case = result_map(complete(3))
    assert positive_case["L-THM1"].applicable
    assert not positive_case["L-THM2"].applicable
    assert not positive_case["L-COR2"].applicable


def test_cor5_gate_and_strictness():
    r = evaluate_bound(complete(3), "L-COR5")
    assert r.applicable
    assert r.strict
    assert r.diagnosis.verdict in ("consistent", "near-tight-strict")
    assert not evaluate_bound(matching(2), "L-COR5").applicable


def test_regular_gate_on_cor7():
    assert not evaluate_bound(star(4), "U-COR7").applicable
    assert not evaluate_bound(path(4), "U-COR7").applicable


# -- pair selection ----------------------------------------------------------------


def test_pair_selection_on_prism():
    g = prism(3)
    r = evaluate_bound(g, "L-GAN4")
    assert r.details["anchor_vertex"] == 0
    assert r.details["partner_vertex"] == 1
    assert r.details["anchor_degree"] == 3
    assert r.details["partner_degree"] == 3
    assert r.details["pair_adjacent"] is True
    r = evaluate_bound(g, "L-GAN5")
    assert r.details["branch"] == "two-case"
    assert r.details["pair_adjacent"] is True


def test_non_adjacent_pair_branch_on_balanced_bipartite():
    g = complete_bipartite(3, 3)
    r = evaluate_bound(g, "L-GAN4")
    assert r.details["pair_adjacent"] is False
    # 2 M1 / m + 2 d2 - 8 m / n with every degree 3
    assert abs(r.value - 6.0) <= 1e-12
    assert r.diagnosis.tight


def test_pair_enumeration_spread_present_only_on_small_graphs():
    small = evaluate_bound(path(4), "L-GAN4")
    assert small.details["pair_count"] == 2
    assert small.details["pair_value_min"] <= small.details["pair_value_max"]
    big = evaluate_bound(star(PAIR_ENUMERATION_LIMIT + 2), "L-GAN4")
    assert "pair_value_min" not in big.details
    assert "anchor_vertex" in big.details


def test_pair_enumeration_respects_tie_breaking():
    # degrees (1, 2, 2, 1): anchors 1 and 2, partner always the other one
    g = path(4)
    r = evaluate_bound(g, "L-GAN4")
    assert r.details["anchor_vertex"] == 1
    assert r.details["partner_vertex"] == 2
    assert r.details["pair_adjacent"] is True


def test_pair_estimate_is_the_deterministic_pairs_value():
    # anchor 0 has degree 2; of its four partners, 1 and 2 are non-adjacent
    # and 3 and 4 adjacent, which gives a smaller estimate
    g = graph_from_edges(5, [(0, 3), (0, 4), (1, 2)])
    r = evaluate_bound(g, "L-GAN4")
    assert (r.details["anchor_vertex"], r.details["partner_vertex"]) == (0, 1)
    assert r.details["pair_adjacent"] is False
    assert r.details["pair_count"] == 4
    assert r.details["pair_value_min"] < r.value == r.details["pair_value_max"]


def reference_pair_candidates(degrees, want_max):
    # the earlier generator form, kept as the oracle for the list form
    extreme = max(degrees) if want_max else min(degrees)
    for v1 in (i for i, d in enumerate(degrees) if d == extreme):
        rest = [(d, i) for i, d in enumerate(degrees) if i != v1]
        d2 = max(d for d, _ in rest) if want_max else min(d for d, _ in rest)
        for v2 in (i for d, i in rest if d == d2):
            yield v1, v2


def test_pair_candidates_match_the_reference_on_every_small_graph():
    for n in range(2, 7):
        batch = FactsBatch.from_masks(n, range(1 << (n * (n - 1) // 2)), 1.0)
        pairs = {want_max: list(zip(*(side.tolist() for side in _extreme_pair(batch, want_max))))
                 for want_max in (True, False)}
        for lane, g in enumerate(labeled_graphs(n)):
            for want_max in (True, False):
                candidates = _pair_candidates(g.degrees, want_max)
                assert candidates == list(reference_pair_candidates(g.degrees, want_max)), g
                # the batch rule picks the deterministic pair of every lane
                assert pairs[want_max][lane] == candidates[0], g


def test_gan5_bipartite_branch_and_two_case_form_differ():
    g = prism(4)   # bipartite and 3-regular
    catalog = evaluate_bound(g, "L-GAN5")
    assert catalog.details["branch"] == "bipartite"
    assert abs(catalog.value - 6.0) <= 1e-12
    assert abs(gan5_two_case_value(g) - 0.0) <= 1e-12


def test_gan5_two_case_value_rejects_edgeless():
    with pytest.raises(ValueError):
        gan5_two_case_value(Graph(3, ()))


# -- strictness -------------------------------------------------------------------


def test_thm3_case_b_is_strict():
    r = evaluate_bound(star(5), "U-THM3")
    assert r.applicable
    assert r.strict
    assert r.details["branch"] == "mean-below-rms"


def test_strict_flags_fixed_per_bound():
    g = path(3)
    res = result_map(g)
    assert res["L-COR5"].strict
    assert res["U-COR6"].strict
    for bid in ("L-GAN1", "L-GAN2", "L-GAN3", "L-GAN4", "L-GAN5",
                "L-THM2", "L-COR2", "U-ABR1", "U-LI", "U-GAN", "U-COR7"):
        if res[bid].applicable:
            assert not res[bid].strict, bid


def test_strict_bounds_never_claim_equality_verdict():
    for n in range(1, 6):
        for g in labeled_graphs(n):
            for r in all_bounds(g):
                if r.applicable and r.strict:
                    assert r.diagnosis.verdict in ("consistent", "near-tight-strict")


def test_strict_bound_reports_near_tight_within_tolerance(monkeypatch):
    # the tolerance multiplier is read when the graph's facts are built, so
    # inflating it makes any applicable strict bound count as within
    # tolerance of equality
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    monkeypatch.setenv("QSPECTRA_TOL", "1e9")
    r = evaluate_bound(g, "U-COR6")
    assert r.applicable and r.strict
    assert r.diagnosis.tight
    assert r.diagnosis.verdict == "near-tight-strict"


# -- specific numeric spot checks ---------------------------------------------------


def test_gan1_value_formula():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    m1 = sum(d * d for d in g.degrees)
    expected = 2 * (m1 / g.m - 2 * g.m / g.n)
    assert abs(evaluate_bound(g, "L-GAN1").value - expected) <= 1e-12


def test_gan2_gan3_value_formulas():
    g = star(6)
    assert abs(evaluate_bound(g, "L-GAN2").value
               - (2 * 5 + 2 - 4 * 5 / 6)) <= 1e-12
    expected3 = 5 + 1 + math.sqrt(16 + 20) - 4 * 5 / 6
    assert abs(evaluate_bound(g, "L-GAN3").value - expected3) <= 1e-12


def test_gan_upper_value_formula():
    # 2 (2m + 1 - max degree - 2m/n) on the five-cycle: 2 (10 + 1 - 2 - 2)
    g = cycle(5)
    assert abs(evaluate_bound(g, "U-GAN").value - 14.0) <= 1e-12
