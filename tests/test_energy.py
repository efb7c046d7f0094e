"""Energy values on families with known closed forms, the deviation sequence's
ordering contract, the regular-graph coincidence of the three energies, and
the spectral identities of bipartite and regular graphs.
"""

import math
import random
import sys

import pytest

from qspectra.reports import energies
from qspectra.spectral import GraphFacts, gamma_sequence, q_spectrum, structure
from qspectra.graph_core import (
    complete,
    complete_bipartite,
    crown,
    cycle,
    graph_from_mask,
    matching,
    prism,
    random_graph,
    star,
)


# -- closed-form signless Laplacian energies ---------------------------------


@pytest.mark.parametrize("n", range(2, 10))
def test_qe_complete(n):
    assert abs(energies(complete(n)).signless_laplacian_energy - (2 * n - 2)) <= 1e-9


@pytest.mark.parametrize("n", range(3, 11))
def test_qe_star(n):
    expected = (2 * n * n - 4 * n + 4) / n
    assert abs(energies(star(n)).signless_laplacian_energy - expected) <= 1e-9


@pytest.mark.parametrize("k", range(1, 6))
def test_qe_disjoint_edges(k):
    assert abs(energies(matching(k)).signless_laplacian_energy - 2 * k) <= 1e-9


@pytest.mark.parametrize("r", range(1, 6))
def test_qe_crown(r):
    assert abs(energies(crown(r)).signless_laplacian_energy - 4 * r) <= 1e-9


@pytest.mark.parametrize("a", range(1, 6))
def test_qe_balanced_complete_bipartite(a):
    g = complete_bipartite(a, a)
    assert abs(energies(g).signless_laplacian_energy - 2 * a) <= 1e-9


def test_qe_four_cycle():
    assert abs(energies(cycle(4)).signless_laplacian_energy - 4.0) <= 1e-9


def test_qe_triangle():
    assert abs(energies(complete(3)).signless_laplacian_energy - 4.0) <= 1e-9


# -- coincidences on regular graphs -------------------------------------------


def test_regular_graphs_share_all_three_energies():
    for g in (cycle(5), cycle(6), prism(3), prism(4), complete(6), crown(3)):
        rep = energies(g)
        assert structure(g).is_regular
        assert rep.qe_equals_adjacency_energy
        assert abs(rep.signless_laplacian_energy - rep.adjacency_energy) <= 1e-9
        assert abs(rep.laplacian_energy - rep.adjacency_energy) <= 1e-9


def test_bipartite_and_regular_graphs_meet_the_spectral_identities():
    """On every labeled graph with 2 <= n <= 5, its A, L and Q solved as one
    stack: Spec_Q = Spec_L when the graph is bipartite, so QE = LE; and
    q_i - r = lambda_i = r - mu_{n+1-i} when it is r-regular. Each pair of
    spectra agrees within the sum of its two solves' error_bounds plus
    8 n eps max(1, q_1), and the energies within n times that."""
    bipartite = regular = 0
    for n in range(2, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            f = GraphFacts(graph_from_mask(n, mask))
            f.solve_all()
            a, lap, q = f.adjacency, f.laplacian, f.signless_laplacian
            rounding = 8 * n * sys.float_info.epsilon * max(1.0, q.values[0])

            def err(s, t):
                return s.solve.error_bound + t.solve.error_bound + rounding

            if not f.batch.odd.any():
                bipartite += 1
                assert all(abs(x - y) <= err(q, lap) for x, y in zip(q.values, lap.values)), f
                le = math.fsum(abs(mu - 2 * f.graph.m / n) for mu in lap.values)
                assert abs(f.qe - le) <= n * err(q, lap), f
            r = f.graph.degrees[0]
            if set(f.graph.degrees) == {r}:
                regular += 1
                assert all(abs(x - r - y) <= err(q, a) for x, y in zip(q.values, a.values)), f
                assert all(abs(r - x - y) <= err(lap, a)
                           for x, y in zip(reversed(lap.values), a.values)), f
    assert (bipartite, regular) == (426, 26)


def test_star_energies_differ():
    rep = energies(star(4))
    assert not structure(star(4)).is_regular
    assert not rep.qe_equals_adjacency_energy
    # adjacency energy of a star is 2*sqrt(n-1)
    assert abs(rep.adjacency_energy - 2 * math.sqrt(3)) <= 1e-9


# -- deviation sequence --------------------------------------------------------


def test_gamma_sequence_of_the_four_cycle():
    gam = gamma_sequence(cycle(4))
    assert [round(v, 9) for v in gam.values] == [2.0, 2.0, 0.0, 0.0]
    assert gam.mean == 2.0
    assert gam.min_is_zero


def test_gamma_min_not_zero_on_triangle():
    gam = gamma_sequence(complete(3))
    assert not gam.min_is_zero
    assert [round(v, 9) for v in gam.values] == [2.0, 1.0, 1.0]


def test_gamma_sequence_is_consistent_on_random_graphs():
    rng = random.Random(55)
    for _ in range(60):
        g = random_graph(rng.randrange(1, 11), rng.choice([0.2, 0.5, 0.8]), rng)
        gam = gamma_sequence(g)
        assert abs(gam.mean - 2 * g.m / g.n) <= 1e-15
        assert all(gam.values[i] >= gam.values[i + 1] for i in range(g.n - 1))
        deviations = sorted((abs(q - gam.mean) for q in q_spectrum(g).values), reverse=True)
        assert gam.values == tuple(deviations)
        total = math.fsum(gam.values)
        assert abs(total - energies(g).signless_laplacian_energy) == 0.0
