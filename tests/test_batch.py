"""FactsBatch: the verdict verify gives a stack batch equals the per-graph
verdict of every graph in it, its degree and structure facts equal the
per-graph ones, the mask pair order is one order, and the integer case tests
stay exact where int64 would overflow.
"""

import itertools
import math
import random

import numpy as np
import pytest

from qspectra import bounds, graph_core, spectral
from qspectra.graph_core import (
    complete, degree_stats, graph_from_mask, is_complete, mask_pairs, structure)
from qspectra.reports import batch_verdict, check_graph
from qspectra.spectral import FactsBatch, GraphFacts, adjacency_matrix


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


@pytest.mark.parametrize("scale", [1.0, 1e-300])
def test_batch_verdict_equals_the_per_graph_verdict(scale):
    failing = 0
    for n, masks in mask_cases():
        for start in range(0, len(masks), 256):
            chunk = masks[start:start + 256]
            batch = lanes_of(batch_verdict(FactsBatch.from_masks(n, chunk, scale)), len(chunk))
            for mask, (violated, failed) in zip(chunk, batch):
                v, f = check_graph(GraphFacts(graph_from_mask(n, mask), scale))
                assert (violated, failed) == ([(b, repr(g)) for b, g in v], f), (n, mask)
                failing += bool(v or f)
    # the vanishing tolerance must make the comparison cover failing graphs
    assert (failing > 1000) == (scale < 1)


def test_batch_degree_and_structure_facts_equal_the_per_graph_ones():
    for n in range(1, 7):
        masks = range(1 << (n * (n - 1) // 2))
        for start in range(0, len(masks), 4096):
            chunk = masks[start:start + 4096]
            b = FactsBatch.from_masks(n, chunk, 1.0)
            rows = zip(chunk, b.degrees.tolist(), b.m.tolist(), b.m1.tolist(),
                       b.max_degree.tolist(), b.min_degree.tolist(), b.connected.tolist(),
                       b.bipartite_components.tolist(), b.regular.tolist(),
                       b.complete.tolist())
            for mask, deg, m, m1, dmax, dmin, conn, bip, regular, comp in rows:
                g = graph_from_mask(n, mask)
                stats, info = degree_stats(g), structure(g)
                assert (tuple(deg), m, m1, dmax, dmin) == (
                    g.degrees, stats.m, stats.zagreb_m1, stats.max_degree,
                    stats.min_degree), (n, mask)
                assert (conn, bip, regular, comp) == (
                    info.is_connected, info.bipartite_component_count, info.is_regular,
                    is_complete(g)), (n, mask)


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
    one = np.ones(1)
    return FactsBatch(n=len(degrees), scale=1.0, adjacency=np.zeros((1, 0, 0), dtype=bool),
                      degrees=np.array([degrees]), connected=np.array([True]),
                      bipartite_components=np.array([0]), eigenvalues=np.zeros((1, 1)),
                      groups=np.array([1]), gamma_max=one, gamma_min=one,
                      min_is_zero=np.array([False]), qe=one, converged=np.array([True]))


def named(bound_id, b):
    row = bounds._CATALOG[bounds.BOUND_IDS.index(bound_id)]
    return bounds._evaluate((row,), b)[0][2]


def test_integer_case_tests_stay_exact_where_int64_overflows():
    n = 3000
    rng = random.Random(5)
    cases = [[n - 1] * (n - 1) + [1], [1] * (n - 2) + [n - 1, n - 1]]
    cases += [[rng.choice((1, 2, n // 2, n - 1)) for _ in range(n)] for _ in range(4)]
    overflowing = 0
    for degrees in cases:
        degrees[-1] += sum(degrees) % 2
        m, m1 = sum(degrees) // 2, sum(d * d for d in degrees)
        dd = (max(degrees) - min(degrees)) ** 2
        b = facts_at(degrees)
        assert named("U-THM3", b)["mean_dominant"].tolist() == [
            n * (2 * m + m1) <= 8 * m * m]
        overflowing += 16 * m * m * (1 + dd) > 2 ** 63
        assert named("U-COR6", b)["inside"].tolist() == [
            (n * dd + 4 * m) ** 2 <= 16 * m * m * (1 + dd)]
        c = m * (n ** 3 - n ** 2 - 2 * m * n + 4 * m)
        assert named("L-COR4", b)["threshold"].tolist() == [math.sqrt(c) / (2 * n)]
        assert named("L-COR5", b)["threshold"].tolist() == [math.sqrt(c) / n ** 3]
    # the U-COR6 products overflow int64 on most of these graphs
    assert overflowing >= 4


def test_a_batch_of_one_reads_the_facts_it_is_given():
    f = GraphFacts(complete(5), 1.0)
    b = FactsBatch.of(f)
    assert (b.n, b.m.tolist(), b.groups.tolist(), b.qe.tolist()) == (
        5, [10], [len(f.signless_laplacian.groups)], [f.qe])
    assert b.eigenvalues.tolist() == [list(f.signless_laplacian.values)]


def test_squared_means_round_as_python_squares_them():
    # U-THM3 and U-COR6 square the mean 2m/n. Python's square of a float,
    # C's pow(x, 2), is not always x * x, and on this graph the difference
    # reaches both values
    n, m = 49, 1129
    pairs = list(itertools.combinations(range(n), 2))
    f = GraphFacts(graph_core.graph_from_edges(n, random.Random(0).sample(pairs, m)), 1.0)
    mean, m1 = 2 * m / n, f.stats.zagreb_m1
    dd = (f.stats.max_degree - f.stats.min_degree) ** 2
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
    for g in (prism(5), crown(3), star(6), complete(5), graph_from_edges(1, [])):
        assert plain_types(analyze_report(g)) == set(), g
    summary = verify_exhaustive(5)
    assert summary.violations
    assert plain_types([summary.violations, summary.lemma_failures]) == set()
