"""FactsBatch: the verdict verify gives a stack batch equals the per-graph
verdict of every graph in it, each lane equals the batch of one of its graph,
its degree facts equal the per-graph ones, its component facts, deviation
facts, equality-family flags and strong regularity results equal an
independent scalar reference, the mask pair order is one order, and the
integer case tests stay exact where int64 would overflow.
"""

import collections
import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from qspectra import bounds, graph_core, reports, spectral, tolerances
from qspectra.families_verify import SrgResult, detect_srg
from qspectra.graph_core import (
    MAX_ORDER, cartesian_product, complete, complete_bipartite, cycle, degree_stats,
    disjoint_union, graph_from_edges, graph_from_mask, mask_pairs, matching, path, prism,
    random_graph, star)
from qspectra.reports import batch_verdict
from qspectra.spectral import (
    FactsBatch, GraphFacts, a_spectrum, adjacency_matrix, gamma_sequence, q_spectrum,
    structure)


def mask_cases():
    """Every labeled graph with n <= 5, and seeded 3000-graph samples at 6
    and 7 vertices."""
    for n in range(1, 6):
        yield n, range(1 << (n * (n - 1) // 2))
    for n, seed in ((6, 3), (7, 2)):
        rng = random.Random(seed)
        yield n, sorted(rng.sample(range(1 << (n * (n - 1) // 2)), 3000))


def lanes_of(verdict, count):
    """batch_verdict's lists, regrouped per lane, gaps by repr."""
    violated, failed = verdict
    per_lane = [([], []) for _ in range(count)]
    for lane, bid, gap in violated:
        per_lane[lane][0].append((bid, repr(gap)))
    for lane, cid in failed:
        per_lane[lane][1].append(cid)
    return per_lane


@pytest.fixture(scope="module")
def solves():
    """The lone solves of lazy spectrum reads, by stack bytes, kept across
    both tolerances: the solve does not read the scale."""
    return {}


@pytest.mark.parametrize("scale", [1.0, 1e-300])
def test_batch_verdict_equals_the_per_graph_verdict(scale, solves, monkeypatch):
    solve = spectral._solve_stack

    def solve_once(stack, orders=None):
        if orders is None:          # a from_masks batch
            return solve(stack, orders)
        key = (stack.tobytes(), tuple(orders))
        if key not in solves:
            solves[key] = solve(stack, orders)
        return solves[key]

    # each reference graph's lazy Q read, a solve_spectra stack of one, runs
    # once, for both tolerances
    monkeypatch.setattr(spectral, "_solve_stack", solve_once)
    failing = 0
    for n, masks in mask_cases():
        for start in range(0, len(masks), reports._VERIFY_BATCH):
            chunk = masks[start:start + reports._VERIFY_BATCH]
            batch = lanes_of(batch_verdict(FactsBatch.from_masks(n, chunk, scale)), len(chunk))
            for mask, (violated, failed) in zip(chunk, batch):
                one, = lanes_of(batch_verdict(
                    GraphFacts(graph_from_mask(n, mask), scale).batch), 1)
                assert (violated, failed) == one, (n, mask)
                failing += bool(violated or failed)
    # the vanishing tolerance must make the comparison cover failing graphs
    assert (failing > 1000) == (scale < 1)


def test_batch_degree_and_structure_facts_equal_the_per_graph_ones():
    # every labeled graph with n <= 6, and the order-7 sample verify's tests use
    cases = [(n, range(1 << (n * (n - 1) // 2))) for n in range(1, 7)]
    cases += [case for case in mask_cases() if case[0] == 7]
    for n, masks in cases:
        for start in range(0, len(masks), 4096):
            chunk = masks[start:start + 4096]
            b = FactsBatch.from_masks(n, chunk, 1.0)
            rows = zip(chunk, b.degrees.tolist(), b.m.tolist(), b.m1.tolist(),
                       b.max_degree.tolist(), b.min_degree.tolist(), b.labels.tolist(),
                       b.odd.tolist(), b.connected.tolist(), b.component_count.tolist(),
                       b.bipartite_components.tolist(), b.regular.tolist(),
                       b.complete.tolist())
            for mask, deg, m, m1, dmax, dmin, labels, odd, conn, count, bip, regular, comp in rows:
                g = graph_from_mask(n, mask)
                stats = degree_stats(g)
                assert (tuple(deg), m, m1, dmax, dmin) == (
                    g.degrees, stats.m, stats.zagreb_m1, stats.max_degree,
                    stats.min_degree), (n, mask)
                components = reference_components(g)
                assert (labels, odd) == components, (n, mask)
                odd_by_label = dict(zip(*components))
                assert (conn, count, bip, regular, comp) == (
                    len(odd_by_label) == 1, len(odd_by_label),
                    list(odd_by_label.values()).count(False),
                    len(set(g.degrees)) == 1, is_complete(g)), (n, mask)


def test_each_from_masks_lane_is_the_batch_of_one_of_its_graph():
    # every labeled graph with n <= 6, field by field and bit for bit
    arrays = [field.name for field in dataclasses.fields(FactsBatch)
              if field.name not in ("n", "scale")]
    for n in range(1, 7):
        masks = range(1 << (n * (n - 1) // 2))
        for start in range(0, len(masks), 4096):
            chunk = masks[start:start + 4096]
            b = FactsBatch.from_masks(n, chunk, 1.0)
            for lane, mask in enumerate(chunk):
                one = GraphFacts(graph_from_mask(n, mask), 1.0).batch
                assert (one.n, one.scale) == (b.n, b.scale)
                for name in arrays:
                    got, want = getattr(b, name), getattr(one, name)
                    assert (got.dtype, got[lane].tobytes()) == (
                        want.dtype, want[0].tobytes()), (n, mask, name)


def test_components_equal_a_breadth_first_search():
    # every labeled graph with n <= 6; seeded G(n, p) graphs on either side
    # of the 63-bit word edges of the 2n-bit cover rows, and at n = 100; and
    # a graph at the order cap, its vertices shuffled, with bipartite and
    # odd-cycle components
    graphs = [graph_from_mask(n, mask) for n in range(1, 7)
              for mask in range(1 << (n * (n - 1) // 2))]
    rng = random.Random(31)
    graphs += [random_graph(n, c / n, rng) for n in (31, 32, 33, 62, 63, 64, 65, 100)
               for c in (0.5, 1.0, 1.5, 3.0) for _ in range(3)]
    cap = disjoint_union(cycle(301), prism(100), complete_bipartite(10, 13),
                         random_graph(MAX_ORDER - 524, 1.2 / 500, rng))
    label = rng.sample(range(cap.n), cap.n)
    graphs.append(graph_from_edges(cap.n, [(label[u], label[v]) for u, v in cap.edges]))
    mixed = 0
    for n in sorted({g.n for g in graphs}):
        of_order = [g for g in graphs if g.n == n]
        labels, odd = spectral._components(np.array([adjacency_matrix(g) > 0
                                                     for g in of_order]))
        for g, got in zip(of_order, zip(labels.tolist(), odd.tolist())):
            assert got == reference_components(g), g.edges
            # graphs with components of both kinds, each with an edge
            sizes = collections.Counter(zip(*got))
            mixed += {has_odd for (_, has_odd), size in sizes.items() if size > 1} == {
                False, True}
    assert mixed > 20
    # structure() lists the components by least vertex, each sorted
    labels, odd = reference_components(graphs[-1])
    info = structure(graphs[-1])
    assert info.components == tuple(tuple(v for v in range(cap.n) if labels[v] == least)
                                    for least in sorted(set(labels)))
    assert info.component_bipartite == tuple(not odd[c[0]] for c in info.components)


# -- the scalar reference -------------------------------------------------------------

def reference_components(g):
    """Each vertex's component label, the least vertex of its component, and
    whether that component has an odd cycle, as two lists, by a
    breadth-first two-colouring over neighbour lists."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    colour, labels, odd = [-1] * g.n, [0] * g.n, [False] * g.n
    for start in range(g.n):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        members, bipartite = [start], True
        for u in members:       # breadth first: members grows as the queue
            for w in adj[u]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[u]
                    members.append(w)
                elif colour[w] == colour[u]:
                    bipartite = False
        for u in members:
            labels[u], odd[u] = start, not bipartite
    return labels, odd


def reference_deviation_facts(values, m, scale):
    """The deviation facts of a graph with m edges and these descending Q
    eigenvalues, in scalar Python: the deviations |q - 2m/n| sorted
    descending, QE as their fsum, whether the least deviation is zero within
    zero_tol(max(1, q1)), and the (mean, multiplicity) groups, split where a
    step exceeds the grouping tolerance at the spectral radius."""
    n = len(values)
    gamma = sorted((abs(v - 2 * m / n) for v in values), reverse=True)
    zero = gamma[-1] <= tolerances.zero_tol(max(1.0, values[0]), scale=scale)
    tol = tolerances.grouping_tol(max(abs(values[0]), abs(values[-1])), scale=scale)
    groups, start = [], 0
    for i in range(1, n + 1):
        if i == n or values[i - 1] - values[i] > tol:
            members = values[start:i]
            groups.append((math.fsum(members) / len(members), len(members)))
            start = i
    return gamma, math.fsum(gamma), zero, groups


def is_star(g):
    return g.n >= 2 and g.m == g.n - 1 and max(g.degrees) == g.n - 1


def is_perfect_matching(g):
    return g.n >= 2 and all(d == 1 for d in g.degrees)


def is_complete(g):
    return g.m == g.n * (g.n - 1) // 2


def neighbour_sets(g):
    """Each vertex's set of neighbours, from g.edges."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def common_neighbour_counts(g):
    """(adjacent, number of shared neighbours) of every vertex pair u < v, in
    lexicographic pair order, from neighbour set intersections."""
    adj = neighbour_sets(g)
    return [(v in adj[u], len(adj[u] & adj[v]))
            for u, v in itertools.combinations(range(g.n), 2)]


def in_thm3_family(g):
    """U-THM3's and U-COR7's stated family: complete, a perfect matching, or
    regular with an edge and one common-neighbour count for every pair."""
    return (is_complete(g) or is_perfect_matching(g)
            or (len(set(g.degrees)) == 1 and g.m >= 1
                and len({k for _, k in common_neighbour_counts(g)}) == 1))


def reference_srg(g):
    """detect_srg of a regular graph, with a loop over the vertex pairs in
    lexicographic order: the first pair whose count differs from the first
    pair of its kind names the reason."""
    reason, common = None, {}
    if g.m == 0:
        reason = "edgeless graphs are excluded by convention"
    elif is_complete(g):
        reason = "complete graphs are excluded by convention"
    else:
        for adjacent, k in common_neighbour_counts(g):
            if common.setdefault(adjacent, k) != k:
                kind = "adjacent" if adjacent else "non-adjacent"
                reason = f"{kind} pairs disagree on common neighbours"
                break
    if reason is not None:
        return SrgResult(is_srg=False, reason=reason, degree=None, adjacent_common=None,
                         nonadjacent_common=None, is_S_nr=False, feasibility_ok=None,
                         three_eigenvalue_consistent=None)
    n, r, a, c = g.n, g.degrees[0], common[True], common[False]
    return SrgResult(is_srg=True, reason=None, degree=r, adjacent_common=a,
                     nonadjacent_common=c, is_S_nr=a == c,
                     feasibility_ok=r * (r - 1 - a) == (n - r - 1) * c,
                     three_eigenvalue_consistent=(len(a_spectrum(g).groups) <= 3
                                                  if len(set(reference_components(g)[0])) == 1
                                                  else None))


def test_the_reference_predicates():
    assert is_star(star(5)) and is_star(complete(2))
    assert not is_star(path(4)) and not is_star(complete(1))
    assert is_perfect_matching(matching(3))
    assert not is_perfect_matching(path(3))
    assert is_complete(complete(4))
    assert not is_complete(cycle(4))
    # the 4 x 4 rook graph has two common neighbours on every pair; C5 has
    # none on an edge and one on a non-edge
    assert in_thm3_family(cartesian_product(complete(4), complete(4)))
    assert in_thm3_family(matching(3)) and in_thm3_family(complete(1))
    assert not in_thm3_family(cycle(5)) and not in_thm3_family(prism(4))
    assert reference_srg(cycle(5)).nonadjacent_common == 1
    assert reference_srg(prism(5)).reason == (
        "non-adjacent pairs disagree on common neighbours")


def assert_graph_facts_match_the_reference(f):
    spec, gam = q_spectrum(f), gamma_sequence(f)
    gamma, qe, zero, groups = reference_deviation_facts(list(spec.values), f.graph.m, f.scale)
    assert repr((list(gam.values), f.qe, gam.min_is_zero, list(spec.groups))) == repr(
        (gamma, qe, zero, groups)), graph_core.emit_graph6(f.graph)
    assert gam.mean == 2 * f.graph.m / f.graph.n


@pytest.mark.parametrize("scale", [1.0, 1e-300])
def test_deviation_facts_equal_the_scalar_reference(scale):
    # every labeled graph with n <= 6 and the order-7 sample, as batches and
    # as GraphFacts
    cases = [(n, range(1 << (n * (n - 1) // 2))) for n in range(1, 7)]
    cases += [case for case in mask_cases() if case[0] == 7]
    for n, masks in cases:
        for start in range(0, len(masks), 4096):
            chunk = masks[start:start + 4096]
            b = FactsBatch.from_masks(n, chunk, scale)
            lanes = zip(chunk, b.eigenvalues.tolist(), b.m.tolist(), b.gamma.tolist(),
                        b.qe.tolist(), b.min_is_zero.tolist(), b.groups.tolist())
            for mask, values, m, *facts in lanes:
                gamma, qe, zero, groups = reference_deviation_facts(values, m, scale)
                assert repr(facts) == repr([gamma, qe, zero, len(groups)]), (n, mask)
    for n, masks in cases:
        # a GraphFacts solves its own Q, so from order 6 every 32nd graph
        for mask in masks[::1 if n < 6 else 32]:
            assert_graph_facts_match_the_reference(
                GraphFacts(graph_from_mask(n, mask), scale))


def test_mid_size_graph_facts_equal_the_scalar_reference():
    rng = random.Random(19)
    for n in range(16, 65, 8):
        for p in (0.2, 0.5, 0.8):
            assert_graph_facts_match_the_reference(GraphFacts(random_graph(n, p, rng), 1.0))


def test_groups_split_at_the_tolerance_as_the_scalar_reference_splits_them():
    # descending rows whose steps straddle the grouping tolerance, which no
    # graph spectrum above comes near
    rng = random.Random(23)
    rows = []
    for _ in range(300):
        row = [rng.choice((0.5, 1.0, 7.0, 300.0))]
        tol = tolerances.grouping_tol(row[0], scale=1.0)
        for _ in range(7):
            row.append(row[-1] - tol * rng.choice((0.0, 0.5, 0.999, 1.0, 1.001, 3.0)))
        rows.append(row)
    facts = spectral._deviation_facts(np.array(rows), np.full(len(rows), 10), 8, 1.0)
    for row, count in zip(rows, facts["groups"].tolist()):
        groups = reference_deviation_facts(row, 10, 1.0)[3]
        assert count == len(groups), row
        assert repr(list(spectral._group(tuple(row), 1.0))) == repr(groups), row


def test_equality_family_flags_equal_the_scalar_reference():
    predicates = (bounds._is_star, bounds._is_perfect_matching, bounds._is_crown_like,
                  bounds._is_balanced_complete_bipartite, bounds._thm3_family)
    for n in range(1, 7):
        masks = range(1 << (n * (n - 1) // 2))
        b = FactsBatch.from_masks(n, masks, 1.0)
        for mask, *flags in zip(masks, *(predicate(b).tolist() for predicate in predicates)):
            g = graph_from_mask(n, mask)
            (labels, odd), r = reference_components(g), max(g.degrees)
            bipartite_regular = (set(labels) == {0} and not any(odd)
                                 and len(set(g.degrees)) == 1)
            assert flags == [is_star(g), is_perfect_matching(g),
                             bipartite_regular and n == 2 * r + 2,
                             bipartite_regular and n == 2 * r, in_thm3_family(g)], (n, mask)


def test_strong_regularity_equals_the_pair_loop():
    # every labeled regular graph with n <= 6, edgeless and complete included
    seen = set()
    for n in range(1, 7):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            if len(set(g.degrees)) == 1:
                expected = reference_srg(g)
                assert repr(detect_srg(g)) == repr(expected), (n, mask)
                seen.add(expected.reason)
    # every outcome is among them
    assert set(seen) == {None, "edgeless graphs are excluded by convention",
                         "complete graphs are excluded by convention",
                         "adjacent pairs disagree on common neighbours",
                         "non-adjacent pairs disagree on common neighbours"}
    # no regular graph on at most 6 vertices has pairs of both kinds that
    # disagree; in C3 + C4 and C3 + C5 both kinds do, so the labels decide
    # which kind disagrees first
    rng = random.Random(11)
    seen.clear()
    for base in (disjoint_union(cycle(3), cycle(4)), disjoint_union(cycle(3), cycle(5))):
        for _ in range(50):
            label = rng.sample(range(base.n), base.n)
            g = graph_from_edges(base.n, [(label[u], label[v]) for u, v in base.edges])
            expected = reference_srg(g)
            assert repr(detect_srg(g)) == repr(expected), graph_core.emit_graph6(g)
            seen.add(expected.reason)
    assert set(seen) == {"adjacent pairs disagree on common neighbours",
                         "non-adjacent pairs disagree on common neighbours"}


def test_the_mask_pair_order_is_stated_once(monkeypatch):
    for n in range(1, 6):
        masks = range(1 << (n * (n - 1) // 2))
        b = FactsBatch.from_masks(n, masks, 1.0)
        for mask, adjacency in zip(masks, b.adjacency):
            g = graph_from_mask(n, mask)
            assert g.edges == tuple(p for i, p in enumerate(mask_pairs(n)) if mask >> i & 1)
            assert (adjacency == (adjacency_matrix(g) > 0)).all(), (n, mask)
    # both builders read the order from mask_pairs
    reversed_pairs = lambda n: tuple(itertools.combinations(range(n), 2))[::-1]
    monkeypatch.setattr(graph_core, "mask_pairs", reversed_pairs)
    monkeypatch.setattr(spectral, "mask_pairs", reversed_pairs)
    b = FactsBatch.from_masks(4, [1], 1.0)
    assert graph_from_mask(4, 1).edges == ((2, 3),)
    assert b.adjacency[0, 2, 3] and b.adjacency.sum() == 2


def facts_at(degrees):
    """A batch of one on len(degrees) vertices with the given degrees and
    placeholder spectral facts: enough for the integer case tests."""
    one, n = np.ones(1), len(degrees)
    return FactsBatch(n=n, scale=1.0, adjacency=np.zeros((1, 0, 0), dtype=bool),
                      degrees=np.array([degrees]), labels=np.zeros((1, n), dtype=np.int64),
                      odd=np.ones((1, n), dtype=bool), eigenvalues=np.zeros((1, 1)),
                      groups=np.array([1]), gamma=np.ones((1, 1)),
                      min_is_zero=np.array([False]), qe=one, converged=np.array([True]))


def named(bound_id, b):
    row = bounds._CATALOG[bounds.BOUND_IDS.index(bound_id)]
    return bounds._evaluate((row,), b)[0][2]


def extreme_degrees(n, seed):
    """Degree sequences on n vertices whose case-test products are large: a
    near-complete graph with one leaf, two hubs among leaves, and random
    mixes of small, middling and full degrees. Each sum is even."""
    rng = random.Random(seed)
    cases = [[n - 1] * (n - 1) + [1], [1] * (n - 2) + [n - 1, n - 1]]
    cases += [[rng.choice((1, 2, n // 2, n - 1)) for _ in range(n)] for _ in range(4)]
    for degrees in cases:
        degrees[-1] -= sum(degrees) % 2
    return cases


def integer_case_tests(degrees):
    """The named integer case-test results of the catalog on a batch with
    these degrees, as Python values."""
    b = facts_at(degrees)
    return [named(bound_id, b)[key].tolist() for bound_id, key in (
        ("U-THM3", "mean_dominant"), ("U-COR6", "inside"),
        ("L-COR4", "threshold"), ("L-COR5", "threshold"))]


def exact_case_tests(n, degrees):
    """The same results in Python ints, the reference."""
    m, m1 = sum(degrees) // 2, sum(d * d for d in degrees)
    dd = (max(degrees) - min(degrees)) ** 2
    c = m * (n ** 3 - n ** 2 - 2 * m * n + 4 * m)
    return [[n * (2 * m + m1) <= 8 * m * m],
            [(n * dd + 4 * m) ** 2 <= 16 * m * m * (1 + dd)],
            [math.sqrt(c) / (2 * n)], [math.sqrt(c) / n ** 3]]


def test_integer_case_tests_stay_exact_where_int64_overflows():
    n = 3000
    overflowing = 0
    for degrees in extreme_degrees(n, 5):
        assert integer_case_tests(degrees) == exact_case_tests(n, degrees)
        m, dd = sum(degrees) // 2, (max(degrees) - min(degrees)) ** 2
        overflowing += 16 * m * m * (1 + dd) > 2 ** 63
    # the U-COR6 products overflow int64 on most of these graphs
    assert overflowing >= 4


def test_int64_and_python_int_case_tests_agree_at_the_order_bound(monkeypatch):
    n = bounds.INT64_ORDER_MAX
    largest = 0
    for degrees in extreme_degrees(n, 5):
        assert bounds._exact(np.array(degrees), n).dtype == np.int64
        in_int64 = integer_case_tests(degrees)
        with monkeypatch.context() as patched:
            patched.setattr(bounds, "INT64_ORDER_MAX", n - 1)
            assert bounds._exact(np.array(degrees), n).dtype == object
            assert integer_case_tests(degrees) == in_int64 == exact_case_tests(n, degrees)
        m, dd = sum(degrees) // 2, (max(degrees) - min(degrees)) ** 2
        largest = max(largest, 16 * m * m * (1 + dd))
    # the products come close to 2^63, far past float64's exact integers
    assert 2 ** 61 < largest < 2 ** 63


def test_a_batch_of_one_reads_the_facts_it_is_given():
    f = GraphFacts(complete(5), 1.0)
    b, q = f.batch, q_spectrum(f)
    assert (b.n, b.m.tolist(), b.groups.tolist(), b.qe.tolist()) == (
        5, [10], [len(q.groups)], [f.qe])
    assert b.eigenvalues.tolist() == [list(q.values)]


def test_a_judged_batch_replaced_with_new_deviations_evaluates_them():
    # the catalog rules are pure functions of the batch they are given: a
    # copy with its deviations doubled gives the row a never-judged batch
    # with the same fields gives, whatever the original was asked before
    b = FactsBatch.from_masks(5, range(1024), 1.0)
    bounds.batch_violations(b)
    judged = dataclasses.replace(b, gamma=2 * b.gamma)
    fresh = dataclasses.replace(FactsBatch.from_masks(5, range(1024), 1.0), gamma=2 * b.gamma)
    row = (bounds._CATALOG[bounds.BOUND_IDS.index("L-THM2")],)
    (hypotheses, value, named), = bounds._evaluate(row, judged)
    (fresh_hypotheses, fresh_value, fresh_named), = bounds._evaluate(row, fresh)
    assert value.tobytes() == fresh_value.tobytes()
    assert named["gamma_max"].tobytes() == fresh_named["gamma_max"].tobytes()
    assert [(holds.tobytes(), reason) for holds, reason in hypotheses] == [
        (holds.tobytes(), reason) for holds, reason in fresh_hypotheses]
    # T / gamma_1 halves where L-THM2 applies
    (_, original, _), = bounds._evaluate(row, b)
    applies = np.logical_and.reduce([holds for holds, _ in hypotheses])
    assert applies.any() and (value[applies] == original[applies] / 2).all()


def test_squared_means_round_as_python_squares_them():
    # U-THM3 and U-COR6 square the mean 2m/n. Python's square of a float,
    # C's pow(x, 2), is not always x * x, and on this graph the difference
    # reaches both values
    n, m = 49, 1129
    pairs = list(itertools.combinations(range(n), 2))
    f = GraphFacts(graph_core.graph_from_edges(n, random.Random(0).sample(pairs, m)), 1.0)
    stats = degree_stats(f.graph)
    mean, m1 = 2 * m / n, stats.zagreb_m1
    dd = (stats.max_degree - stats.min_degree) ** 2
    t = 2 * m + m1 - 4 * m * m / n
    values = {r.bound_id: r for r in bounds.all_bounds(f)}
    for bound_id, branch, inner in (
            ("U-THM3", "mean-at-least-rms", lambda sq: t - sq),
            ("U-COR6", "below-degree-spread-threshold", lambda sq: 2 * m + n * dd / 4 - sq)):
        # the scalar formula, operation for operation
        expected = 2 * m / n + math.sqrt((n - 1) * inner((2 * m / n) ** 2))
        assert expected != 2 * m / n + math.sqrt((n - 1) * inner(mean * mean))
        assert values[bound_id].details["branch"] == branch
        assert repr(values[bound_id].value) == repr(expected), bound_id


def plain_types(x):
    """The types in a payload that are not plain Python JSON values."""
    if type(x) is dict:
        return set().union(*map(plain_types, x.values()))
    if type(x) in (list, tuple):
        return set().union(*map(plain_types, x))
    return set() if type(x) in (int, float, bool, str, type(None)) else {type(x)}


def test_records_hold_no_numpy_scalars(monkeypatch):
    # json renders a numpy float64 like a float, so the goldens would not
    # show one; every value read off a batch must come back as a Python one
    from qspectra.graph_core import crown, graph_from_edges, prism, star
    from qspectra.reports import analyze_report, verify_exhaustive
    monkeypatch.setenv("QSPECTRA_TOL", "1e-300")
    for g in (prism(5), crown(3), star(6), complete(5), graph_from_edges(1, []),
              disjoint_union(cycle(3), cycle(4), complete(1))):
        assert plain_types(analyze_report(g)) == set(), g
    summary = verify_exhaustive(5)
    assert summary.violations
    assert plain_types([summary.violations, summary.lemma_failures]) == set()
