"""Graph energies, reference-table reproduction, whole-graph analysis
reports, and the exhaustive verification harness.

Reports are plain dictionaries of JSON-safe values so that serialized output
is byte-stable: keys are sorted at dump time and no timestamps are embedded.
Wall-clock durations live on the summary objects for programmatic use but are
kept out of the JSON rendering.
"""

from __future__ import annotations

import math
import os
import random
import time
from importlib import resources
from typing import Any, NamedTuple

import numpy as np

from . import tolerances
from .bounds import all_bounds, batch_violations, evaluate_bound, gan5_two_case_value
from .families_verify import classify_q_pattern, detect_srg, prism_bounds
from .graph_core import Graph, emit_graph6, graph_from_mask, prism, record_dict
from .spectral import (FactsBatch, GraphFacts, a_spectrum, batch_lemma_failures,
                       check_spectral_lemmas, gamma_sequence, graph_facts, l_spectrum,
                       q_spectrum, solve_spectra)

__all__ = [
    "EnergyReport",
    "energies",
    "TableRow",
    "TableReport",
    "reproduce_table1",
    "reproduce_table2",
    "analyze_report",
    "VerifySummary",
    "verify_exhaustive",
    "verify_report",
    "table_report_dict",
]


# -- energies ------------------------------------------------------------------------

class EnergyReport(NamedTuple):
    adjacency_energy: float
    laplacian_energy: float
    signless_laplacian_energy: float
    qe_equals_adjacency_energy: bool   # coincidence guaranteed for regular graphs


def energies(g: Graph | GraphFacts) -> EnergyReport:
    """The adjacency energy (sum of |eigenvalue|), the Laplacian energy (sum
    of |mu_i - 2m/n|) and the signless Laplacian energy QE of one graph."""
    f = graph_facts(g)
    f.solve_all()
    mean = gamma_sequence(f).mean
    e = math.fsum(abs(v) for v in a_spectrum(f).values)
    le = math.fsum(abs(v - mean) for v in l_spectrum(f).values)
    qe = f.qe
    same = abs(qe - e) <= tolerances.tight_tol(qe, scale=f.scale)
    return EnergyReport(
        adjacency_energy=e,
        laplacian_energy=le,
        signless_laplacian_energy=qe,
        qe_equals_adjacency_energy=same,
    )


# -- reference tables ---------------------------------------------------------------

class TableRow(NamedTuple):
    label: str
    exact_qe: float
    columns: dict[str, float]     # computed values, in table column order
    expected: dict[str, float]
    deviation: dict[str, float]   # |computed - expected| per column


class TableReport(NamedTuple):
    title: str
    column_names: tuple[str, ...]
    rows: tuple[TableRow, ...]
    tolerance: float
    max_deviation: float
    ok: bool                       # within tolerance, and every solve converged
    wall_time: float
    unconverged: tuple[str, ...]   # GraphFacts.unconverged() over the rows


def _load_expected(name: str) -> tuple[tuple[str, ...], dict[int, dict[str, float]]]:
    text = resources.files("qspectra.data").joinpath(name).read_text(encoding="ascii")
    lines = (line.strip() for line in text.splitlines())
    header, *body = [line.split(",") for line in lines if line and not line.startswith("#")]
    names = tuple(header[1:])
    return names, {int(row[0]): dict(zip(names, map(float, row[1:]))) for row in body}


def _column_value(name: str, cycle_n: int, f: GraphFacts) -> float:
    """The computed value of one reference-table column on prism(cycle_n)."""
    if name == "exact":
        return f.qe
    if name == "prism_lower":
        return prism_bounds(cycle_n).lower
    if name == "prism_upper":
        return prism_bounds(cycle_n).upper
    if name == "L-GAN5":
        # the reference table tabulates the two-case form on every row, even
        # the bipartite ones where the catalog entry switches branch
        return gan5_two_case_value(f)
    return evaluate_bound(f, name).value


def _table_report(title: str, data_file: str) -> TableReport:
    t0 = time.perf_counter()
    names, expected_rows = _load_expected(data_file)
    scale = tolerances.scale()
    tol = tolerances.TABLE_ABS * scale
    rows = []
    worst = 0.0
    unconverged: list[str] = []
    facts = {cycle_n: GraphFacts(prism(cycle_n), scale) for cycle_n in sorted(expected_rows)}
    solve_spectra((f, "signless_laplacian") for f in facts.values())
    for cycle_n, f in facts.items():
        computed = {name: _column_value(name, cycle_n, f) for name in names}
        unconverged.extend(f.unconverged())
        expected = expected_rows[cycle_n]
        deviation = {k: abs(computed[k] - expected[k]) for k in names}
        worst = max(worst, max(deviation.values()))
        rows.append(TableRow(label=f"prism({cycle_n})", exact_qe=computed["exact"],
                             columns=computed, expected=expected, deviation=deviation))
    return TableReport(title=title, column_names=names, rows=tuple(rows),
                       tolerance=tol, max_deviation=worst,
                       ok=worst <= tol and not unconverged,
                       wall_time=time.perf_counter() - t0,
                       unconverged=tuple(unconverged))


def reproduce_table1() -> TableReport:
    """Lower-bound table on circular ladders: the five general estimates next
    to the exact energy and the family closed form."""
    return _table_report("lower bounds on circular ladders", "table_lower_expected.csv")


def reproduce_table2() -> TableReport:
    """Upper-bound table on circular ladders: the four general estimates next
    to the exact energy and the family closed form."""
    return _table_report("upper bounds on circular ladders", "table_upper_expected.csv")


# -- whole-graph analysis -------------------------------------------------------------

def _spectrum_dict(spec) -> dict[str, Any]:
    return {
        "values": list(spec.values),
        "groups": [[rep, mult] for rep, mult in spec.groups],
        "solver": record_dict(spec.solve),
    }


def analyze_report(g: Graph | GraphFacts) -> dict[str, Any]:
    """Everything the library knows about one graph, as a JSON-safe dict."""
    f = graph_facts(g)
    f.solve_all()
    g, b, gam = f.graph, f.batch, gamma_sequence(f)
    pattern = classify_q_pattern(f)
    srg = detect_srg(f)
    return {
        "graph": {
            "n": g.n,
            "m": g.m,
            "graph6": emit_graph6(g),
            "degrees": list(g.degrees),
        },
        "degree_stats": {
            "max_degree": b.max_degree.tolist()[0],
            "min_degree": b.min_degree.tolist()[0],
            "average_degree": gam.mean,
            "zagreb_m1": b.m1.tolist()[0],
        },
        "structure": {
            "is_connected": b.connected.tolist()[0],
            "component_count": b.component_count.tolist()[0],
            "is_bipartite": (b.bipartite_components == b.component_count).tolist()[0],
            "bipartite_component_count": b.bipartite_components.tolist()[0],
            "is_regular": b.regular.tolist()[0],
            "regularity_degree": b.max_degree.tolist()[0] if b.regular[0] else None,
        },
        "spectra": {
            "adjacency": _spectrum_dict(a_spectrum(f)),
            "laplacian": _spectrum_dict(l_spectrum(f)),
            "signless_laplacian": _spectrum_dict(q_spectrum(f)),
        },
        "gamma": {
            "values": list(gam.values),
            "mean": gam.mean,
            "min_is_zero": gam.min_is_zero,
        },
        "energies": record_dict(energies(f)),
        "lemma_checks": [record_dict(c) for c in check_spectral_lemmas(f)],
        "bounds": [record_dict(b) for b in all_bounds(f)],
        "q_pattern": record_dict(pattern),
        "srg": record_dict(srg),
    }


# -- exhaustive verification -----------------------------------------------------------

class VerifySummary(NamedTuple):
    max_n: int
    graphs_checked: int
    violations: tuple[tuple[str, str, float], ...]    # (graph6, bound_id, gap)
    lemma_failures: tuple[tuple[str, str], ...]       # (graph6, check_id)
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.violations and not self.lemma_failures


def batch_verdict(b: FactsBatch) -> tuple[list[tuple[int, str, float]],
                                          list[tuple[int, str]]]:
    """The verdict on every graph of a batch: (lane, bound_id, gap) for each
    violated bound, as bounds.batch_violations gives them, and (lane,
    check_id) for each failed check, rule by rule. A lane with neither has
    every applicable bound and every spectral check holding, and its signless
    Laplacian solve converged."""
    failures = batch_lemma_failures(b)
    failures.extend((lane, "solver:not_converged")
                    for lane in np.flatnonzero(~b.converged).tolist())
    # a connected graph has exactly two distinct grouped eigenvalues exactly
    # when it is complete
    wrong = b.connected & (b.n >= 2) & ((b.groups == 2) != b.complete)
    failures.extend((lane, "two_distinct_q_complete") for lane in np.flatnonzero(wrong).tolist())
    return batch_violations(b), failures


# Graphs in one verify job, judged as one FactsBatch: each rotation's numpy
# calls in the Python stack kernel serve every graph of the job at once.
_VERIFY_BATCH = 1024


def _verify_batch(args: tuple[int, Any, float]) -> tuple[list, list]:
    """One verify job: the (graph6, bound_id, gap) violations and the
    (graph6, check_id) failures of one stack batch of masks. A Graph is
    built only for a failing graph, to name it."""
    n, masks, scale = args
    violated, failed = batch_verdict(FactsBatch.from_masks(n, masks, scale))
    names: dict[int, str] = {}

    def name(lane: int) -> str:
        if lane not in names:
            names[lane] = emit_graph6(graph_from_mask(n, masks[lane]))
        return names[lane]

    return ([(name(lane), bid, gap) for lane, bid, gap in violated],
            [(name(lane), cid) for lane, cid in failed])


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def verify_exhaustive(max_n: int, workers: int = 1, sample: int | None = None,
                      seed: int | None = None) -> VerifySummary:
    """Check every invariant the library claims, over all labeled graphs on
    exactly max_n vertices (or a seeded uniform sample of them).

    Per graph: the signless Laplacian solve must converge, every applicable
    bound must respect its direction within the tightness tolerance, every
    spectral check must hold with its equality condition consistent, and
    connected graphs must witness the two-distinct-eigenvalue characterization
    of completeness.

    A job is one stack batch of masks. With several workers and several jobs,
    the jobs run in a pool of min(workers, jobs, usable CPUs) processes.
    """
    if not isinstance(max_n, int) or not (1 <= max_n <= 7):
        raise ValueError("vertex count must be an integer between 1 and 7")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    scale = tolerances.scale()   # one snapshot for the whole run, workers included
    t0 = time.perf_counter()
    total = 1 << (max_n * (max_n - 1) // 2)
    if sample is None:
        masks: Any = range(total)
    else:
        if sample < 1:
            raise ValueError("sample size must be at least 1")
        rng = random.Random(seed)
        masks = sorted(rng.sample(range(total), min(sample, total)))

    jobs = [(max_n, masks[i:i + _VERIFY_BATCH], scale)
            for i in range(0, len(masks), _VERIFY_BATCH)]
    processes = min(workers, len(jobs), _usable_cpus())
    if processes == 1:
        parts = list(map(_verify_batch, jobs))
    else:
        import multiprocessing

        with multiprocessing.Pool(processes) as pool:
            parts = list(pool.imap_unordered(_verify_batch, jobs))

    return VerifySummary(max_n=max_n, graphs_checked=len(masks),
                         violations=tuple(sorted(v for vs, _ in parts for v in vs)),
                         lemma_failures=tuple(sorted(f for _, fs in parts for f in fs)),
                         wall_time=time.perf_counter() - t0)


def verify_report(summary: VerifySummary) -> dict[str, Any]:
    """JSON-safe dict for a verification run (durations deliberately omitted)."""
    return {
        "max_n": summary.max_n,
        "graphs_checked": summary.graphs_checked,
        "violations": [list(v) for v in summary.violations],
        "lemma_failures": [list(f) for f in summary.lemma_failures],
        "ok": summary.ok,
    }


def table_report_dict(report: TableReport) -> dict[str, Any]:
    """JSON-safe dict for a table reproduction (durations deliberately omitted)."""
    return {
        "title": report.title,
        "column_names": list(report.column_names),
        "tolerance": report.tolerance,
        "max_deviation": report.max_deviation,
        "ok": report.ok,
        "rows": [record_dict(r) for r in report.rows],
    }
