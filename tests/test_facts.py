"""Per-graph facts: each spectrum is solved once per top-level call, the
batch's common-neighbour counts are computed once per graph at most, the
batch of one is built once per graph, the tolerance scale is read once per graph at most,
and no result outlives the call that computed it. Facts are cached once per
graph; the catalog and lemma rules are pure functions of a batch, so each
report and each verdict walks the whole catalog, in order, on that one
batch, and an analyze report renders the lemma records once.
"""

from collections import Counter
from functools import cached_property

import pytest

from qspectra import bounds, families_verify, graph_core, reports, spectral, tolerances
from qspectra.bounds import all_bounds
from qspectra.cli import main
from qspectra.graph_core import crown, cycle, emit_graph6, prism
from qspectra.reports import (
    analyze_report, batch_verdict, energies, reproduce_table1, reproduce_table2,
    verify_exhaustive)
from qspectra.spectral import a_spectrum, l_spectrum, q_spectrum


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
    """Matrices solved by the kernel, the size of each jacobi_stack call (the
    one entry point the library calls), and tolerance scale reads."""
    seen = {"solves": 0, "calls": [], "scale_reads": 0}
    kernel, scale = spectral._KERNEL, tolerances.scale

    class CountedKernel:
        @staticmethod
        def jacobi_stack(a):
            seen["solves"] += len(a)
            seen["calls"].append(len(a))
            return kernel.jacobi_stack(a)

    def counted_scale():
        seen["scale_reads"] += 1
        return scale()

    monkeypatch.setattr(spectral, "_KERNEL", CountedKernel)
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


def test_each_table_solves_its_own_prisms(counts):
    # each table solves its 8 prisms in one zero-padded stack
    assert len(reproduce_table1().rows) == 8 and counts["calls"] == [8]
    # after the other table, in the same process, each still solves its own 8
    assert len(reproduce_table2().rows) == 8 and counts["calls"] == [8, 8]
    assert len(reproduce_table1().rows) == 8 and counts["calls"] == [8, 8, 8]


def test_analyze_solves_a_l_and_q_in_one_stack(counts):
    analyze_report(cycle(5))
    assert counts["calls"] == [3]
    all_bounds(prism(5))
    assert counts["calls"] == [3, 1]


def test_joint_solve_solves_only_the_kinds_not_solved_yet(counts):
    f = spectral.GraphFacts(prism(4))
    q_spectrum(f)
    energies(f)                  # A and L, in one stack
    analyze_report(f)            # nothing left to solve
    other = spectral.GraphFacts(cycle(6))
    q_spectrum(other)
    # every pair solved already: no call
    spectral.solve_spectra([(f, "adjacency"), (f, "laplacian"), (other, "signless_laplacian")])
    assert counts["calls"] == [1, 2, 1]


def test_no_library_path_calls_jacobi_sweeps(monkeypatch, capsys):
    # every solve, a lone matrix's too, is one jacobi_stack call; jacobi_sweeps
    # is left to the benchmarks and the kernel twin tests
    kernel = spectral._KERNEL

    class StackOnly:
        jacobi_stack = staticmethod(kernel.jacobi_stack)

        @staticmethod
        def jacobi_sweeps(a):
            raise AssertionError("a library path called jacobi_sweeps")

    monkeypatch.setattr(spectral, "_KERNEL", StackOnly)
    analyze_report(cycle(5))
    all_bounds(prism(5))
    reproduce_table1()
    assert verify_exhaustive(4).ok
    values, report = spectral.symmetric_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
    assert values.tolist() == [3.0, 1.0] and report.converged
    f = spectral.GraphFacts(prism(4))
    assert a_spectrum(f).solve.converged and l_spectrum(f).solve.converged
    assert q_spectrum(f).solve.converged and f.qe > 0
    assert main(["bounds", "--graph6", "OP?gQPC?CAXDEVAPg@CHK", "--json"]) == 0
    assert main(["analyze", "--family", "prism", "4"]) == 0
    capsys.readouterr()


def test_no_library_path_calls_symmetric_eigenvalues(monkeypatch, capsys):
    # a graph's spectra are built and solved by solve_spectra alone, a lazy
    # read's too; symmetric_eigenvalues is left to matrices from outside
    def refused(mat):
        raise AssertionError("a library path called symmetric_eigenvalues")

    for module in (graph_core, spectral, bounds, families_verify, reports):
        if hasattr(module, "symmetric_eigenvalues"):
            monkeypatch.setattr(module, "symmetric_eigenvalues", refused)
    analyze_report(cycle(5))
    all_bounds(prism(5))
    assert main(["bounds", "--graph6", "OP?gQPC?CAXDEVAPg@CHK", "--json"]) == 0
    capsys.readouterr()
    assert len(reproduce_table1().rows) == len(reproduce_table2().rows) == 8
    assert verify_exhaustive(4).ok
    assert families_verify.classify_q_pattern(crown(4)).pattern_found
    assert families_verify.detect_srg(cycle(5)).is_srg
    assert energies(prism(4)).signless_laplacian_energy > 0
    assert q_spectrum(cycle(6)).solve.converged


def test_verify_solves_once_and_reads_the_scale_at_most_once_per_graph(counts):
    assert verify_exhaustive(4).ok
    assert counts["solves"] == 64
    assert counts["scale_reads"] <= 64


def test_verify_builds_a_graph_only_for_a_failing_graph(monkeypatch):
    calls = {"structure": 0, "graphs": 0}
    structure, init = spectral.structure, graph_core.Graph.__init__

    def counted_structure(g):
        calls["structure"] += 1
        return structure(g)

    def counted_init(self, n, edges):
        calls["graphs"] += 1
        init(self, n, edges)

    monkeypatch.setattr(spectral, "structure", counted_structure)
    monkeypatch.setattr(graph_core.Graph, "__init__", counted_init)
    summary = verify_exhaustive(5)
    assert summary.ok and summary.graphs_checked == 1024
    assert calls == {"structure": 0, "graphs": 0}
    # a vanishing tolerance makes graphs fail; each is built once, to name it
    monkeypatch.setenv("QSPECTRA_TOL", "1e-300")
    summary = verify_exhaustive(5)
    failing = {v[0] for v in summary.violations} | {f[0] for f in summary.lemma_failures}
    assert len(failing) > 100
    assert calls == {"structure": 0, "graphs": len(failing)}


@pytest.mark.parametrize("argv,lemma_runs,neighbour_counts", [
    (["analyze", "--family", "prism", "12"], 1, 1),
    (["bounds", "--family", "crown", "4"], 0, 1),
])
def test_cli_runs_the_lemma_checks_and_neighbour_counts_once(
        monkeypatch, capsys, argv, lemma_runs, neighbour_counts):
    seen = {"lemmas": 0, "neighbours": 0}
    lemma_checks = spectral.check_spectral_lemmas
    counts = spectral.FactsBatch.common_neighbours.func

    def counted_lemmas(g):
        seen["lemmas"] += 1
        return lemma_checks(g)

    def counted_neighbours(b):
        seen["neighbours"] += 1
        return counts(b)

    # counted in every module that holds the name, however it was imported
    for module in (graph_core, spectral, bounds, families_verify, reports):
        if hasattr(module, "check_spectral_lemmas"):
            monkeypatch.setattr(module, "check_spectral_lemmas", counted_lemmas)
    counted = cached_property(counted_neighbours)
    counted.__set_name__(spectral.FactsBatch, "common_neighbours")
    monkeypatch.setattr(spectral.FactsBatch, "common_neighbours", counted)
    assert main(argv) == 0
    capsys.readouterr()
    assert (seen["lemmas"], seen["neighbours"]) == (lemma_runs, neighbour_counts)


@pytest.fixture
def catalog(monkeypatch):
    """Batches of one built, and the ids of the catalog rows evaluated, in
    order."""
    seen = {"batches": 0, "rows": []}
    from_adjacency = spectral.FactsBatch.from_adjacency

    def counted_from_adjacency(cls, *args):
        seen["batches"] += 1
        return from_adjacency(*args)

    def counted(bound_id, rule):
        def run(b):
            seen["rows"].append(bound_id)
            return rule(b)
        return run

    monkeypatch.setattr(spectral.FactsBatch, "from_adjacency",
                        classmethod(counted_from_adjacency))
    monkeypatch.setattr(bounds, "_CATALOG", tuple(
        (*row[:4], counted(row[0], row[4]), row[5]) for row in bounds._CATALOG))
    return seen


@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "prism", "5"],
    ["analyze", "--family", "prism", "5", "--json"],
    ["bounds", "--family", "crown", "4"],
    ["bounds", "--family", "crown", "4", "--json"],
])
def test_cli_builds_one_batch_and_walks_the_whole_catalog_twice(catalog, capsys, argv):
    assert main(argv) == 0
    capsys.readouterr()
    assert catalog["batches"] == 1
    # once for the records, once for the verdict, each in catalog order
    assert catalog["rows"] == [*bounds.BOUND_IDS, *bounds.BOUND_IDS]


def test_a_table_builds_one_batch_per_row_and_evaluates_its_columns_once(catalog):
    report = reproduce_table1()
    rows = len(report.rows)
    assert catalog["batches"] == rows
    # its L-GAN5 column is the two-case form, read off the batch, not the row
    columns = [name for name in report.column_names
               if name in bounds.BOUND_IDS and name != "L-GAN5"]
    assert Counter(catalog["rows"]) == {bound_id: rows for bound_id in columns}


def test_a_kept_batch_sees_a_solve_made_after_it(catalog, monkeypatch):
    f = spectral.GraphFacts(prism(4))
    assert batch_verdict(f.batch) == ([], [])   # Q solved, the batch kept
    kernel = spectral._KERNEL

    class Unconverged:
        @staticmethod
        def jacobi_stack(a):
            return [(sweeps, False, off, top) for sweeps, _, off, top in kernel.jacobi_stack(a)]

    monkeypatch.setattr(spectral, "_KERNEL", Unconverged)
    f.solve_all()                               # A and L, neither converged
    # the kept batch flags its Q solve only; the facts name the A and L solves
    assert batch_verdict(f.batch) == ([], [])
    assert f.unconverged() == tuple(f"{kind} of {emit_graph6(f.graph)}"
                                    for kind in ("adjacency", "laplacian"))
    # one batch, and one whole walk of the catalog per verdict
    assert catalog["batches"] == 1 and catalog["rows"] == [*bounds.BOUND_IDS, *bounds.BOUND_IDS]


def test_a_batch_flags_only_its_signless_laplacian_solve(monkeypatch, capsys):
    kernel = spectral._KERNEL

    class AdjacencyUnconverged:
        """The active kernel, reporting lane 0 of a stack as not converged:
        the adjacency matrix, in the A, L and Q stack of one graph."""
        @staticmethod
        def jacobi_stack(a):
            (sweeps, _, off, top), *rest = kernel.jacobi_stack(a)
            return [(sweeps, False, off, top), *rest]

    monkeypatch.setattr(spectral, "_KERNEL", AdjacencyUnconverged)
    f = spectral.GraphFacts(prism(4))
    analyze_report(f)
    assert f.batch.converged.tolist() == [True]
    assert batch_verdict(f.batch) == ([], [])
    assert f.unconverged() == (f"adjacency of {emit_graph6(prism(4))}",)
    assert main(["analyze", "--family", "prism", "4"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"qspectra: eigensolve did not converge: adjacency of {emit_graph6(prism(4))}"]
