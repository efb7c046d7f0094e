"""Reference-table reproduction, analysis report serialization, the exhaustive
verification harness, and the command-line interface's exit-code contract.
"""

import json
import os
import subprocess
import sys

import pytest

from qspectra import graph_core, reports, spectral
from qspectra.cli import main
from qspectra.graph_core import cycle, emit_graph6, prism, render_json, star
from qspectra.reports import (
    analyze_report,
    reproduce_table1,
    reproduce_table2,
    table_report_dict,
    verify_exhaustive,
    verify_report,
)


# -- reference tables ---------------------------------------------------------------


def test_table1_reproduces_reference():
    report = reproduce_table1()
    assert report.ok
    assert report.max_deviation <= report.tolerance
    assert report.column_names == (
        "exact", "L-GAN1", "L-GAN2", "L-GAN3", "L-GAN4", "L-GAN5", "prism_lower")
    assert [r.label for r in report.rows] == [f"prism({n})" for n in range(3, 11)]
    assert abs(report.rows[0].exact_qe - 8.0) <= 1e-6


def test_table2_reproduces_reference():
    report = reproduce_table2()
    assert report.ok
    assert report.column_names == (
        "exact", "U-ABR1", "U-ABR2", "U-LI", "U-GAN", "prism_upper")
    assert len(report.rows) == 8
    # every tabulated upper estimate sits above the exact energy
    for row in report.rows:
        for name in report.column_names[1:]:
            assert row.columns[name] >= row.exact_qe - 1e-9


def test_table1_lower_estimates_sit_below_exact():
    report = reproduce_table1()
    for row in report.rows:
        for name in report.column_names[1:]:
            assert row.columns[name] <= row.exact_qe + 1e-9


def test_table_report_dict_has_no_duration():
    d = table_report_dict(reproduce_table1())
    assert "wall_time" not in d
    assert d["ok"] is True
    assert len(d["rows"]) == 8
    render_json(d)   # must be JSON-safe


# -- analysis report -----------------------------------------------------------------


def test_analyze_report_is_json_safe_and_deterministic():
    g = star(5)
    first = render_json(analyze_report(g))
    second = render_json(analyze_report(g))
    assert first == second
    payload = json.loads(first)
    assert payload["graph"]["n"] == 5
    assert payload["graph"]["graph6"] == emit_graph6(g)
    assert {b["bound_id"] for b in payload["bounds"]} >= {"L-GAN1", "U-THM3"}
    assert len(payload["bounds"]) == 18
    assert payload["energies"]["signless_laplacian_energy"] == pytest.approx(6.8)


def test_render_json_canonical_form():
    text = render_json({"b": 1, "a": [1.5, True, None]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    with pytest.raises(ValueError):
        render_json({"x": float("nan")})


# -- exhaustive verification -----------------------------------------------------------


def test_verify_covers_all_labeled_graphs():
    summary = verify_exhaustive(4)
    assert summary.graphs_checked == 64
    assert summary.ok
    assert summary.violations == ()
    assert summary.lemma_failures == ()
    assert verify_exhaustive(3).graphs_checked == 8


def test_verify_five_vertices_clean():
    summary = verify_exhaustive(5)
    assert summary.graphs_checked == 1024
    assert summary.ok


def test_verify_sample_is_reproducible():
    a = verify_exhaustive(5, sample=50, seed=9)
    b = verify_exhaustive(5, sample=50, seed=9)
    assert a.graphs_checked == b.graphs_checked == 50
    assert a.violations == b.violations
    assert a.lemma_failures == b.lemma_failures


def test_verify_sample_capped_at_population():
    assert verify_exhaustive(3, sample=100, seed=1).graphs_checked == 8


def test_verify_workers_match_sequential(monkeypatch, pool_sizes):
    # in jobs of 256, 1024 graphs are 4 jobs, and a 600-graph sample is 3, so
    # both runs pool, on any machine
    monkeypatch.setattr(reports, "_VERIFY_BATCH", 256)
    monkeypatch.setattr(reports, "_usable_cpus", lambda: 2)
    for kwargs in ({"max_n": 5}, {"max_n": 6, "sample": 600, "seed": 11}):
        seq = verify_exhaustive(**kwargs)
        par = verify_exhaustive(workers=2, **kwargs)
        assert seq.graphs_checked >= 600
        assert verify_report(par) == verify_report(seq)
    assert pool_sizes == [2, 2]


@pytest.fixture
def unconverged_kernel(monkeypatch):
    """The active kernel, reporting every solve as not converged."""
    kernel = spectral._KERNEL

    class Unconverged:
        @staticmethod
        def jacobi_sweeps(a):
            sweeps, _, off_fro, max_off = kernel.jacobi_sweeps(a)
            return sweeps, False, off_fro, max_off

        @staticmethod
        def jacobi_stack(a):
            return [(sweeps, False, off_fro, max_off)
                    for sweeps, _, off_fro, max_off in kernel.jacobi_stack(a)]

    monkeypatch.setattr(spectral, "_KERNEL", Unconverged)


def test_verify_fails_on_an_unconverged_solve(unconverged_kernel):
    summary = verify_exhaustive(3)
    assert not summary.ok
    flagged = [g6 for g6, check in summary.lemma_failures
               if check == "solver:not_converged"]
    assert len(flagged) == len(set(flagged)) == summary.graphs_checked == 8


def test_verify_pool_is_no_larger_than_its_job_count(monkeypatch):
    import multiprocessing

    sizes = []

    class InProcessPool:
        """Records its size and runs every job in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(reports, "_VERIFY_BATCH", 256)
    monkeypatch.setattr(reports, "_usable_cpus", lambda: 64)
    summary = verify_exhaustive(3, workers=16)   # 8 graphs, one job
    assert sizes == []
    assert verify_report(summary) == verify_report(verify_exhaustive(3))
    summary = verify_exhaustive(5, workers=16)   # 1024 graphs, 4 jobs of 256
    assert sizes == [4]
    assert verify_report(summary) == verify_report(verify_exhaustive(5))
    # the fake pool starts no process, so an absurd worker count is safe here:
    # 128 jobs of 8 graphs on 64 usable CPUs
    monkeypatch.setattr(reports, "_VERIFY_BATCH", 8)
    summary = verify_exhaustive(5, workers=10**6)
    assert sizes == [4, 64]
    assert verify_report(summary) == verify_report(verify_exhaustive(5))


def test_verify_input_validation():
    for bad in (0, 8, -1):
        with pytest.raises(ValueError):
            verify_exhaustive(bad)
    with pytest.raises(ValueError):
        verify_exhaustive(3, workers=0)
    with pytest.raises(ValueError):
        verify_exhaustive(3, sample=0)


def test_verify_report_shape():
    d = verify_report(verify_exhaustive(3))
    assert d == {"max_n": 3, "graphs_checked": 8, "violations": [],
                 "lemma_failures": [], "ok": True}
    assert "wall_time" not in d


# -- command-line interface -------------------------------------------------------------


def test_cli_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])          # missing required input group
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--graph6", "Bw", "--no-such-flag"])
    assert exc.value.code == 1


def test_cli_parse_errors_exit_two(capsys, tmp_path):
    assert main(["analyze", "--graph6", "B"]) == 2          # truncated
    assert "parse error" in capsys.readouterr().err
    assert main(["analyze", "--edgelist", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 zero\n", encoding="utf-8")
    assert main(["analyze", "--edgelist", str(bad)]) == 2


def test_cli_header_only_graph6_exits_two(capsys):
    assert main(["analyze", "--graph6", ">>graph6<<"]) == 2
    assert capsys.readouterr().err == "qspectra: parse error: graph6: empty input\n"


def test_cli_edgelist_that_is_not_utf8_exits_two(capsys, tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"2\n0 1 # \xe9\n")
    assert main(["bounds", "--edgelist", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qspectra: parse error: cannot read {bad}: ")
    assert err.count("\n") == 1


def test_cli_refuses_a_graph_above_the_order_cap(capsys, monkeypatch):
    import io

    class NoSolve:
        """A kernel that fails the test on any solve, by either entry point."""
        @staticmethod
        def jacobi_sweeps(a):
            raise AssertionError("a matrix was solved")

        jacobi_stack = jacobi_sweeps

    monkeypatch.setattr(spectral, "_KERNEL", NoSolve)
    n = graph_core.MAX_ORDER + 1
    for command in ("bounds", "analyze"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{n}\n"))
        assert main([command, "--edgelist", "-"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (f"qspectra: parse error: graph has {n} vertices; the dense "
                                f"solver accepts at most {graph_core.MAX_ORDER}\n")


@pytest.fixture
def no_graph_is_built(monkeypatch):
    """Fails the test if any Graph is constructed."""

    def fail(self, n, edges):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(graph_core.Graph, "__init__", fail)


@pytest.mark.parametrize("args, stdin, n", [
    (["--family", "complete", "1025"], "", 1025),
    (["--family", "copies", "2", "complete", "600"], "", 1200),
    (["--edgelist", "-"], "258047\n", 258047),
], ids=["complete", "copies", "edgelist"])
def test_cli_refuses_an_oversize_input_before_building_it(args, stdin, n, capsys,
                                                          monkeypatch, no_graph_is_built):
    import io
    import tracemalloc

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    tracemalloc.start()
    try:
        code = main(["bounds", *args])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20, peak    # no edge tuples were built either
    assert capsys.readouterr() == ("", f"qspectra: parse error: graph has {n} vertices; "
                                       f"the dense solver accepts at most {graph_core.MAX_ORDER}\n")


@pytest.mark.parametrize("spec, n", [
    (["complete", "1025"], 1025),
    (["copies", "2", "complete", "600"], 1200),
], ids=["complete", "copies"])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_cli_family_refuses_an_order_above_the_cap_before_building_it(
        spec, n, fmt, capsys, no_graph_is_built):
    assert main(["family", *spec, *fmt]) == 2
    assert capsys.readouterr() == ("", f"qspectra: parse error: graph has {n} vertices; "
                                       f"the dense solver accepts at most {graph_core.MAX_ORDER}\n")


@pytest.mark.parametrize("family, message", [
    (["copies", "0", "complete", "2000"],
     "disjoint_copies: size parameters must be integers >= 1, got 0"),
    (["copies", "2000", "cycle", "2"], "cycle needs at least 3 vertices, got 2"),
], ids=["count", "inner"])
def test_cli_bad_family_parameters_above_the_cap_exit_one(family, message, capsys,
                                                         no_graph_is_built):
    assert main(["analyze", "--family", *family]) == 1
    assert capsys.readouterr() == ("", f"qspectra: error: {message}\n")


def test_cli_refuses_a_tolerance_that_is_not_finite(capsys, monkeypatch):
    monkeypatch.setenv("QSPECTRA_TOL", "inf")
    assert main(["table1", "--json"]) == 1
    assert capsys.readouterr() == (
        "", "qspectra: error: QSPECTRA_TOL must be positive and finite, got 'inf'\n")


def test_cli_family_errors_exit_one(capsys):
    assert main(["family", "complete"]) == 1        # missing parameter
    assert main(["family", "heptagram", "7"]) == 1  # unknown kind
    assert main(["analyze", "--family", "complete", "0"]) == 1
    capsys.readouterr()


def test_cli_analyze_text(capsys):
    assert main(["analyze", "--family", "complete", "4"]) == 0
    out = capsys.readouterr().out
    assert "graph: n=4 m=6" in out
    assert "spectrum[Q]: 6.0000 2.0000 2.0000 2.0000" in out
    assert "lemma checks: 6 run, all hold" in out
    assert "srg: no" in out


def test_cli_analyze_json_deterministic(capsys):
    assert main(["analyze", "--graph6", "Bw", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "--graph6", "Bw", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["graph"]["n"] == 3 and payload["graph"]["m"] == 3


def test_cli_analyze_edgelist_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO("2\n0 1\n"))
    assert main(["analyze", "--edgelist", "-"]) == 0
    assert "graph: n=2 m=1" in capsys.readouterr().out


def test_cli_family_output(capsys):
    assert main(["family", "prism", "3", "--edges"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == emit_graph6(prism(3))
    assert out[1] == "6"                      # vertex-count line
    assert len(out) == 2 + 9                  # then one line per edge
    assert main(["family", "crown", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "crown"
    assert payload["n"] == 8 and payload["m"] == 12
    assert payload["degrees"] == [3] * 8
    assert len(payload["edges"]) == 12


def test_cli_bounds(capsys):
    assert main(["bounds", "--family", "complete", "4"]) == 0
    out = capsys.readouterr().out
    assert "QE = 6.0000" in out
    assert "L-GAN1" in out and "U-COR7" in out
    assert main(["bounds", "--family", "star", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["bounds"]) == 18
    assert payload["signless_laplacian_energy"] == pytest.approx(6.8)


def test_cli_tables(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "prism(3)" in out and "-> ok" in out
    assert main(["table2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert "wall_time" not in payload


def test_cli_verify(capsys):
    assert main(["verify", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"max_n": 4, "graphs_checked": 64, "violations": [],
                       "lemma_failures": [], "ok": True}
    assert main(["verify", "3"]) == 0
    out = capsys.readouterr().out
    assert "result: ok" in out
    assert main(["verify", "9"]) == 1
    assert main(["verify", "3", "--sample", "4", "--seed", "7"]) == 0


@pytest.mark.parametrize("flags", [["--sample", "50"], ["--seed", "3"]],
                         ids=["sample-without-seed", "seed-without-sample"])
def test_cli_verify_sample_and_seed_go_together(flags, capsys):
    # an unseeded sample would print different JSON on every run
    assert main(["verify", "6", *flags, "--json"]) == 1
    assert capsys.readouterr() == (
        "", "qspectra: error: --sample and --seed must be given together\n")


def test_cli_table_mismatch_exits_three():
    # shrinking the global tolerance multiplier below the solver's real
    # deviation from the printed reference forces the mismatch exit path;
    # the subprocess reads the shrunken tolerance from its own environment
    env = dict(os.environ, QSPECTRA_TOL="1e-12")
    proc = subprocess.run(
        [sys.executable, "-m", "qspectra.cli", "table1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert "MISMATCH" in proc.stdout


def test_cli_exits_three_on_an_unconverged_solve(unconverged_kernel, capsys):
    g6 = emit_graph6(star(4))
    cases = (
        (["analyze", "--graph6", g6],
         [f"{kind} of {g6}" for kind in ("adjacency", "laplacian", "signless_laplacian")]),
        (["bounds", "--graph6", g6], [f"signless_laplacian of {g6}"]),
        (["table1"], [f"signless_laplacian of {emit_graph6(prism(n))}" for n in range(3, 11)]),
    )
    for argv, named in cases:
        for fmt in ([], ["--json"]):
            assert main(argv + fmt) == 3, argv + fmt
            out, err = capsys.readouterr()
            assert out
            assert err.splitlines() == [
                "qspectra: eigensolve did not converge: " + ", ".join(named)]


def test_cli_analyze_exits_three_when_a_check_fails(monkeypatch, capsys):
    # a vanishing tolerance multiplier turns rounding error into failures:
    # the crown violates two bounds it attains, and the star fails three
    # spectral checks while its bound catalog still holds. analyze judges a
    # graph as verify does; bounds judges only the catalog
    monkeypatch.setenv("QSPECTRA_TOL", "1e-300")
    assert main(["analyze", "--family", "crown", "3"]) == 3
    assert "FAILED" in capsys.readouterr().out
    assert main(["analyze", "--family", "star", "5", "--json"]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["graph"]["n"] == 5
    assert err == "qspectra: verification failed: q_sum, q_square_sum, zero_multiplicity_bipartite\n"
    assert main(["bounds", "--family", "star", "5"]) == 0


def test_cli_analyze_names_every_failure_on_stderr(monkeypatch, capsys):
    # the complete graph fails a check with no field in the report and no line
    # in the text, so only stderr can name it; bound ids come first
    monkeypatch.setenv("QSPECTRA_TOL", "1e-300")
    cases = (
        (["analyze", "--family", "complete", "5"],
         "min_vs_average:equality, two_distinct_q_complete"),
        (["analyze", "--family", "crown", "3", "--json"],
         "L-THM1, L-COR3, q_square_sum, zero_multiplicity_bipartite, "
         "radius_vs_average, radius_degree_window"),
    )
    for argv, named in cases:
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out
        assert err.splitlines() == ["qspectra: verification failed: " + named]


def test_cli_bounds_names_the_violated_bounds_on_stderr(monkeypatch, capsys):
    monkeypatch.setenv("QSPECTRA_TOL", "1e-300")
    for fmt in ([], ["--json"]):
        assert main(["bounds", "--family", "crown", "3", *fmt]) == 3
        out, err = capsys.readouterr()
        assert out
        assert err.splitlines() == ["qspectra: verification failed: L-THM1, L-COR3"]


def test_cli_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qspectra.cli", "family", "cycle", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == emit_graph6(cycle(5))
