"""Per-graph facts: each spectrum is solved once per top-level call, the
tolerance scale is read once per graph at most, and no result outlives the
call that computed it.
"""

import pytest

from qspectra import graph_core, spectral, tolerances
from qspectra.bounds import all_bounds
from qspectra.cli import main
from qspectra.graph_core import cycle, prism
from qspectra.reports import analyze_report, reproduce_table1, verify_exhaustive
from qspectra.spectral import q_spectrum


def test_tolerance_change_does_not_outlive_the_call(monkeypatch):
    g = cycle(7)
    monkeypatch.setenv("QSPECTRA_TOL", "1e9")
    assert len(q_spectrum(g).groups) == 1
    all_bounds(g)
    monkeypatch.undo()
    assert len(q_spectrum(g).groups) == 4
    thm1 = {b.bound_id: b for b in all_bounds(g)}["L-THM1"]
    assert thm1.applicable


@pytest.fixture
def counts(monkeypatch):
    seen = {"solves": 0, "scale_reads": 0}
    solve, scale = spectral.symmetric_eigenvalues, tolerances.scale

    def counted_solve(mat):
        seen["solves"] += 1
        return solve(mat)

    def counted_scale():
        seen["scale_reads"] += 1
        return scale()

    monkeypatch.setattr(spectral, "symmetric_eigenvalues", counted_solve)
    monkeypatch.setattr(tolerances, "scale", counted_scale)
    return seen


def test_cli_bounds_solves_only_the_signless_laplacian(counts, capsys):
    assert main(["bounds", "--graph6", "OP?gQPC?CAXDEVAPg@CHK", "--json"]) == 0
    capsys.readouterr()
    assert counts["solves"] == 1


@pytest.mark.parametrize("call,solves", [
    (lambda: analyze_report(cycle(5)), 3),     # A, L and Q, each once
    (lambda: all_bounds(prism(5)), 1),
    (reproduce_table1, 8),                     # one prism per row
])
def test_each_spectrum_is_solved_once_per_call(counts, call, solves):
    call()
    assert counts["solves"] == solves


def test_verify_solves_once_and_reads_the_scale_at_most_once_per_graph(counts):
    assert verify_exhaustive(4).ok
    assert counts["solves"] == 64
    assert counts["scale_reads"] <= 64


def test_verify_computes_each_graphs_structure_once(monkeypatch):
    calls = []
    structure = graph_core.structure

    def counted_structure(g):
        calls.append(g)
        return structure(g)

    # GraphFacts.info looks the function up in spectral, the bipartite test in graph_core
    monkeypatch.setattr(graph_core, "structure", counted_structure)
    monkeypatch.setattr(spectral, "structure", counted_structure)
    summary = verify_exhaustive(5)
    assert summary.ok
    assert len(calls) == summary.graphs_checked == 1024
