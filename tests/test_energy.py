"""Energy values on families with known closed forms, the deviation sequence's
ordering contract, and the regular-graph coincidence of the three energies.
"""

import math
import random

import pytest

from qspectra.reports import energies
from qspectra.spectral import gamma_sequence, q_spectrum, structure
from qspectra.graph_core import (
    complete,
    complete_bipartite,
    crown,
    cycle,
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
