"""Graph energies: adjacency energy, Laplacian energy, and signless Laplacian
energy, together with the deviation sequence the signless Laplacian energy sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tolerances
from .graph_core import Graph
from .spectral import GammaSequence, GraphFacts, graph_facts

__all__ = ["EnergyReport", "gamma_sequence", "energies"]


def gamma_sequence(g: Graph | GraphFacts) -> GammaSequence:
    return graph_facts(g).gamma


@dataclass(frozen=True)
class EnergyReport:
    adjacency_energy: float
    laplacian_energy: float
    signless_laplacian_energy: float
    mean_degree: float
    qe_equals_adjacency_energy: bool   # coincidence guaranteed for regular graphs
    is_regular: bool


def energies(g: Graph | GraphFacts) -> EnergyReport:
    f = graph_facts(g)
    f.solve_all()
    mean = 2 * f.graph.m / f.graph.n
    e = math.fsum(abs(v) for v in f.adjacency.values)
    le = math.fsum(abs(v - mean) for v in f.laplacian.values)
    qe = f.qe
    same = abs(qe - e) <= tolerances.tight_tol(qe, scale=f.scale)
    return EnergyReport(
        adjacency_energy=e,
        laplacian_energy=le,
        signless_laplacian_energy=qe,
        mean_degree=mean,
        qe_equals_adjacency_energy=same,
        is_regular=f.info.is_regular,
    )
