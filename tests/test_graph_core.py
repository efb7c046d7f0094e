"""Graph construction, families, structure, and serialization."""

import itertools
import random

import pytest

from qspectra.graph_core import (
    FAMILY_KINDS,
    build_family,
    cartesian_product,
    complete,
    complete_bipartite,
    crown,
    cycle,
    degree_stats,
    disjoint_copies,
    disjoint_union,
    emit_edgelist,
    emit_graph6,
    graph_from_edges,
    graph_from_mask,
    matching,
    parse_edgelist,
    parse_graph6,
    path,
    prism,
    random_graph,
    star,
)
from qspectra.spectral import FactsBatch, GraphFacts, structure


def test_graph_from_edges_normalizes():
    g = graph_from_edges(4, [(2, 1), (1, 2), (0, 3)])
    assert g.n == 4
    assert g.edges == ((0, 3), (1, 2))
    assert g.m == 2
    assert g.degrees == (1, 1, 1, 1)
    assert (1, 2) in g.edges and (2, 1) not in g.edges
    assert (0, 1) not in g.edges


def test_graph_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        graph_from_edges(0, [])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 1.5)])


def test_a_graph_holds_its_order_edges_and_degrees_only():
    g = prism(4)
    assert [name for cls in type(g).__mro__
            for name in getattr(cls, "__slots__", ())] == ["n", "edges", "degrees"]
    assert not hasattr(g, "__dict__")


def test_graph_equality_and_hash():
    a = graph_from_edges(3, [(0, 1)])
    b = graph_from_edges(3, [(1, 0)])
    c = graph_from_edges(3, [(0, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_family_sizes_and_degrees():
    assert complete(5).m == 10
    assert complete_bipartite(2, 3).m == 6
    assert star(6).degrees == (5, 1, 1, 1, 1, 1)
    assert cycle(7).degrees == (2,) * 7
    assert path(5).m == 4
    assert matching(3).degrees == (1,) * 6
    g = crown(3)
    assert g.n == 8 and g.m == 12 and g.degrees == (3,) * 8
    p = prism(4)
    assert p.n == 8 and p.m == 12 and p.degrees == (3,) * 8


def test_crown_small_cases():
    # degree-1 crown is two disjoint edges; degree-2 crown is the 6-cycle
    c1 = crown(1)
    assert c1.n == 4 and c1.m == 2 and c1.degrees == (1, 1, 1, 1)
    c2 = crown(2)
    info = structure(c2)
    assert info.is_connected and info.is_bipartite
    assert c2.degrees == (2,) * 6


def test_prism_low_vertices_adjacent_extreme_pair():
    # vertex 0 and vertex 1 are the two copies of the first cycle vertex;
    # the deterministic pair rules in the bound catalog rely on this
    for n in (3, 4, 5):
        assert (0, 1) in prism(n).edges


def test_cartesian_product_matches_prism():
    assert cartesian_product(cycle(5), path(2)) == prism(5)


def test_cartesian_product_degree_sum():
    g, h = path(3), cycle(4)
    prod = cartesian_product(g, h)
    assert prod.n == g.n * h.n
    assert prod.m == g.n * h.m + h.n * g.m
    # degree of (u, v) is deg_g(u) + deg_h(v)
    for u in range(g.n):
        for v in range(h.n):
            assert prod.degrees[u * h.n + v] == g.degrees[u] + h.degrees[v]


def test_disjoint_union_and_copies():
    g = disjoint_union(complete(3), matching(1))
    assert g.n == 5 and g.m == 4
    assert disjoint_copies(3, complete(2)) == matching(3)
    with pytest.raises(ValueError):
        disjoint_union()


def test_build_family_dispatch():
    assert build_family("complete", [4]) == complete(4)
    assert build_family("complete_bipartite", [2, 3]) == complete_bipartite(2, 3)
    assert build_family("copies", [2, "complete", 3]) == disjoint_copies(2, complete(3))
    assert set(FAMILY_KINDS) >= {"complete", "crown", "prism", "copies"}
    with pytest.raises(ValueError):
        build_family("nosuch", [3])
    with pytest.raises(ValueError):
        build_family("complete", [3, 4])
    with pytest.raises(ValueError):
        build_family("complete", ["x"])


@pytest.mark.parametrize("builder", [cycle, prism])
@pytest.mark.parametrize("bad", [4.0, "5", None])
def test_cycle_sizes_must_be_integers(builder, bad):
    # as star(4.0) does, with a ValueError that names the family
    with pytest.raises(ValueError, match=rf"^{builder.__name__}: size parameters must be "
                                         r"integers >= 3"):
        builder(bad)


@pytest.mark.parametrize("builder,message", [
    (cycle, "cycle needs at least 3 vertices, got 2"),
    (prism, "prism needs a cycle length of at least 3, got 2"),
])
def test_cycle_lengths_below_three_name_the_family(builder, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        builder(2)


def test_degree_stats_exact_average():
    stats = degree_stats(path(3))
    assert stats.n == 3 and stats.m == 2
    assert stats.max_degree == 2 and stats.min_degree == 1
    assert stats.average_degree.numerator == 4
    assert stats.average_degree.denominator == 3
    assert stats.zagreb_m1 == 6


def test_structure_components_and_bipartite():
    g = disjoint_union(complete(3), cycle(4), complete(1))
    info = structure(g)
    assert len(info.components) == 3
    assert info.components[0] == (0, 1, 2)
    assert not info.is_connected
    assert info.component_bipartite == (False, True, True)
    assert info.bipartite_component_count == 2
    assert not info.is_bipartite
    assert not info.is_regular

    c = structure(cycle(5))
    assert c.is_connected and c.is_regular and c.regularity_degree == 2
    assert not c.is_bipartite


def test_structural_predicates():
    def is_complete(g):
        return FactsBatch.of(GraphFacts(g, 1.0)).complete.tolist() == [True]

    assert is_complete(complete(4))
    assert not is_complete(cycle(4))


def test_graph6_known_values():
    assert parse_graph6("Bw") == complete(3)
    assert emit_graph6(complete(2)) == "A_"
    assert parse_graph6("A_") == complete(2)
    assert parse_graph6(">>graph6<<Bw") == complete(3)


def test_graph6_round_trip_random():
    rng = random.Random(1905)
    for _ in range(120):
        n = rng.randint(1, 30)
        g = random_graph(n, rng.choice([0.15, 0.5, 0.85]), rng)
        assert parse_graph6(emit_graph6(g)) == g


def reference_graph6(g):
    """graph6 by its definition: one bit per vertex pair i < j in column
    order, set when the pair is an edge, six bits per character."""
    n, edges = g.n, set(g.edges)
    bits = [1 if (i, j) in edges else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    size = [n] if n <= 62 else [63, n >> 12, (n >> 6) & 63, n & 63]
    chars = size + [int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    return "".join(chr(c + 63) for c in chars)


def test_graph6_equals_the_set_membership_reference():
    # both header forms: one byte up to n = 62, four from n = 63
    rng = random.Random(62)
    for n in (1, 2, 62, 63, 64, 300):
        for p in (0.0, 0.1, 0.5, 1.0):
            g = random_graph(n, p, rng)
            assert emit_graph6(g) == reference_graph6(g), (n, p)
    assert reference_graph6(complete(2)) == "A_" and reference_graph6(complete(3)) == "Bw"


def test_graph6_long_form_round_trip():
    rng = random.Random(77)
    g = random_graph(70, 0.1, rng)
    text = emit_graph6(g)
    assert text.startswith("~")
    assert parse_graph6(text) == g


def test_graph6_errors():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError, match="empty input"):
        parse_graph6(">>graph6<<")     # a header and no graph
    with pytest.raises(ValueError):
        parse_graph6("B" + chr(30))
    with pytest.raises(ValueError):
        parse_graph6("B")          # truncated edge bits
    with pytest.raises(ValueError):
        parse_graph6("Bwz")        # trailing garbage
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(63 + 16))   # nonzero padding bits for n=2


def test_edgelist_round_trip_and_errors():
    g = graph_from_edges(5, [(0, 1), (2, 4)])
    assert parse_edgelist(emit_edgelist(g)) == g
    text = "# comment\n4\n0 1\n2 3\n"
    assert parse_edgelist(text) == matching(2)
    # reversed and repeated pairs give one canonical edge each
    assert parse_edgelist("4\n3 2\n1 0\n0 1\n2 3\n") == matching(2)
    with pytest.raises(ValueError, match="line 2"):
        parse_edgelist("3\n0 0\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_edgelist("3\n0 1\n0 9\n")
    with pytest.raises(ValueError):
        parse_edgelist("# nothing\n")
    # the graph6 limit caps the vertex count, so a count line alone cannot
    # make Graph allocate without bound
    with pytest.raises(ValueError, match="258047"):
        parse_edgelist("258048\n")


def test_graph_from_mask_matches_iana_order():
    # bit i of the mask selects the i-th pair of combinations(range(n), 2)
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(64):
        g = graph_from_mask(4, mask)
        assert g.n == 4
        assert g.edges == tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
    assert graph_from_mask(4, 63).m == 6
    # the masks of an order give each of its labeled graphs exactly once
    for n, count in ((1, 1), (3, 8), (4, 64)):
        assert len({graph_from_mask(n, mask) for mask in range(count)}) == count


@pytest.mark.parametrize("n", [0, -2, 2.0, "3"])
def test_random_graph_refuses_an_order_that_is_not_a_positive_integer(n):
    rng = random.Random(0)
    with pytest.raises(ValueError, match=r"^random_graph: size parameters must be integers >= 1"):
        random_graph(n, 0.5, rng)
    assert rng.getstate() == random.Random(0).getstate()     # before the first draw


def test_random_graph_extremes():
    rng = random.Random(5)
    assert random_graph(6, 0.0, rng).m == 0
    assert random_graph(6, 1.0, rng) == complete(6)
