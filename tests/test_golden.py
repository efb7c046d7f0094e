"""Byte-identity gate: the canonical --json output of every subcommand that
computes something, on a fixed corpus, must match the files in golden/.

The files were written by the program before its per-graph facts were
restructured; any change to a printed number, key or verdict shows up here.
The only normalization is the solver backend name, which depends on whether
the compiled kernel is built (the two kernels agree bit for bit).
"""

from pathlib import Path

import pytest

from qspectra import reports
from qspectra.cli import main
from qspectra.spectral import BACKEND

GOLDEN = Path(__file__).parent / "golden"

GRAPHS = {
    "k1": ["--graph6", "@"],
    "k3": ["--graph6", "Bw"],
    "star6": ["--family", "star", "6"],
    "cycle5": ["--family", "cycle", "5"],
    "cycle7": ["--family", "cycle", "7"],
    "prism5": ["--family", "prism", "5"],
    "crown3": ["--family", "crown", "3"],
    "k33": ["--family", "complete_bipartite", "3", "3"],
    "two_k4": ["--family", "copies", "2", "complete", "4"],
    "isolated_vertex": ["--edgelist", str(GOLDEN / "isolated_vertex.edgelist")],
    # random_graph(16, 0.3, random.Random(2020))
    "gnp16": ["--graph6", "OP?gQPC?CAXDEVAPg@CHK"],
}

CASES = {
    **{f"{cmd}-{name}": [cmd, *args, "--json"]
       for name, args in GRAPHS.items() for cmd in ("analyze", "bounds")},
    "table1": ["table1", "--json"],
    "table2": ["table2", "--json"],
    "verify4": ["verify", "4", "--json"],
    "verify5": ["verify", "5", "--json"],
    "verify6-sample500-seed7": ["verify", "6", "--sample", "500", "--seed", "7", "--json"],
}


def expected_output(name: str) -> str:
    expected = (GOLDEN / f"{name}.json").read_text(encoding="ascii")
    return expected.replace('"backend": "python"', f'"backend": "{BACKEND}"')


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == expected_output(name)


def test_verify_json_with_violations_matches_golden(monkeypatch, capsys):
    # a vanishing tolerance multiplier turns rounding error into 9 bound
    # violations and 1457 failed checks, which pins the (graph6, bound, gap)
    # list that every clean golden leaves empty
    monkeypatch.setenv("QSPECTRA_TOL", "1e-300")
    assert main(["verify", "5", "--json"]) == 3
    assert capsys.readouterr().out == expected_output("verify5-tol1e-300")


def test_sampled_order7_verify_json_with_violations_matches_golden(monkeypatch, capsys):
    # an order-7 sample pins 3 violations and 3428 failed checks with their
    # gaps, at the order where verify spends most of its time
    monkeypatch.setenv("QSPECTRA_TOL", "1e-300")
    argv = ["verify", "7", "--sample", "3000", "--seed", "2", "--workers", "2", "--json"]
    assert main(argv) == 3
    assert capsys.readouterr().out == expected_output("verify7-sample3000-seed2-tol1e-300")


def test_pooled_verify_json_with_violations_matches_golden(monkeypatch, capsys, pool_sizes):
    # the same run in 4 jobs of 256 on 2 processes: the violations and failed
    # checks of every job must merge into the serial run's sorted lists, on
    # any machine
    monkeypatch.setattr(reports, "_VERIFY_BATCH", 256)
    monkeypatch.setattr(reports, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("QSPECTRA_TOL", "1e-300")
    assert main(["verify", "5", "--workers", "2", "--json"]) == 3
    assert capsys.readouterr().out == expected_output("verify5-tol1e-300")
    assert pool_sizes == [2]
