"""Per-layer measurement: call counters installed in the library's own
modules, the bottom-up layer pipeline with in-memory spans, and the fixed
probes (kernel, tables, imports) every traced run makes.

Layers are qspectra's modules. The pipeline calls each layer's public
functions from the bottom up (build, structure, graph6, matrix, spectra with
the eigensolves inside, gamma, energies, lemmas, bounds, classifiers, report,
JSON), so the cached layers below a call are already filled and each span is
that layer's own work. structure() and degree_stats() are not cached, so the
lemma, catalog and report spans include re-running them.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from qspectra import (
    a_spectrum,
    adjacency_matrix,
    all_bounds,
    analyze_report,
    check_spectral_lemmas,
    classify_q_pattern,
    degree_stats,
    detect_srg,
    emit_graph6,
    energies,
    gamma_sequence,
    graph_from_mask,
    l_spectrum,
    laplacian_matrix,
    parse_graph6,
    q_spectrum,
    random_graph,
    render_json,
    signless_laplacian_matrix,
    spectral,
    structure,
    tolerances,
    verify_exhaustive,
)

from common import ROOT, child_env, median
from workloads import EPS, build, check_analysis, pair_count


# -- counters -------------------------------------------------------------------

class Counters:
    """Counts symmetric_eigenvalues and tolerances.scale calls, and the solver
    statistics from each EigenSolveReport, by wrapping both functions in their
    own modules (where the library looks them up at call time)."""

    FIELDS = ("solves", "sweeps", "rotations", "not_converged", "scale_calls")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def install(self) -> None:
        solve, scale = spectral.symmetric_eigenvalues, tolerances.scale

        def counted_solve(mat):
            values, report = solve(mat)
            n = len(values)
            self.solves += 1
            self.sweeps += report.sweeps
            self.rotations += report.sweeps * pair_count(n)
            self.not_converged += not report.converged
            return values, report

        def counted_scale():
            self.scale_calls += 1
            return scale()

        spectral.symmetric_eigenvalues = counted_solve
        tolerances.scale = counted_scale

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}


def count_metrics(counts: dict[str, int], graphs: int) -> dict[str, float]:
    graphs = max(graphs, 1)
    return {
        "spectral.solves_per_graph": counts["solves"] / graphs,
        "spectral.sweeps_mean": counts["sweeps"] / max(counts["solves"], 1),
        "spectral.rotations": counts["rotations"] / graphs,
        "spectral.not_converged": counts["not_converged"],
        "tolerances.scale_calls_per_graph": counts["scale_calls"] / graphs,
    }


# -- spans ------------------------------------------------------------------------

class Tracer:
    """Spans (id, parent, name, start_ns, end_ns) kept in memory; written out
    once, when the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.prefix = ""

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, self.prefix + name, time.perf_counter_ns(), 0])
        self.stack.append(sid)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[sid][4] = time.perf_counter_ns()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def install_solve_span(self) -> None:
        solve = spectral.symmetric_eigenvalues

        def traced_solve(mat):
            with self.span("spectral.eigensolve"):
                return solve(mat)

        spectral.symmetric_eigenvalues = traced_solve

    def self_ms(self) -> dict[str, tuple[float, int]]:
        """name -> (total self time in ms, span count)."""
        child_ns = [0] * len(self.spans)
        for sid, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, tuple[float, int]] = {}
        for sid, _, name, t0, t1 in self.spans:
            total, count = out.get(name, (0.0, 0))
            out[name] = (total + (t1 - t0 - child_ns[sid]) / 1e6, count + 1)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- bottom-up pipeline ------------------------------------------------------------

PIPELINE_LAYERS = (
    "graph_core.build", "graph_core.structure", "graph_core.graph6",
    "spectral.matrix", "energy.gamma", "energy.energies",
    "spectral.lemmas", "bounds.catalog", "families_verify.classify",
    "reports.analyze", "reports.render_json",
)


def verdict_problems(g, lemmas, bounds) -> list[str]:
    """The per-graph criteria verify applies: no applicable bound violated
    beyond the tightness tolerance, every lemma holds with a consistent
    equality flag."""
    qe = math.fsum(gamma_sequence(g).values)
    tol = tolerances.tight_tol(qe)
    problems = [f"{b.bound_id} violated by {b.gap:.3e}" for b in bounds
                if b.applicable and b.gap < -tol]
    problems += [f"lemma {c.check_id} fails" for c in lemmas
                 if (c.applicable and c.holds is False) or c.consistent is False]
    return problems


def pipeline_graph(tr: Tracer, spec) -> list[str]:
    with tr.span("graph"):
        g = tr.call("graph_core.build", build, spec)
        tr.call("graph_core.structure", lambda: (structure(g), degree_stats(g)))
        g2 = tr.call("graph_core.graph6", lambda: parse_graph6(emit_graph6(g)))
        tr.call("spectral.matrix", lambda: (adjacency_matrix(g), laplacian_matrix(g),
                                            signless_laplacian_matrix(g)))
        tr.call("spectral.spectra", lambda: (a_spectrum(g), l_spectrum(g), q_spectrum(g)))
        gam = tr.call("energy.gamma", gamma_sequence, g)
        en = tr.call("energy.energies", energies, g)
        lemmas = tr.call("spectral.lemmas", check_spectral_lemmas, g)
        bounds = tr.call("bounds.catalog", all_bounds, g)
        tr.call("families_verify.classify", lambda: (classify_q_pattern(g), detect_srg(g)))
        report = tr.call("reports.analyze", analyze_report, g)
        text = tr.call("reports.render_json", render_json, report)
    problems = [] if g2 == g else ["graph6 round trip changed the graph"]
    if en.signless_laplacian_energy != math.fsum(gam.values):
        problems.append("QE is not the sum of its gamma values")
    return problems + verdict_problems(g, lemmas, bounds) + check_analysis(g, report, text)


def verify_probe(tr: Tracer, n: int) -> tuple[float, list[str]]:
    """reports.verify self time per graph: verify_exhaustive(n) with every
    cached layer filled, minus the uncached layers it re-runs (build,
    structure, lemmas, and the catalog on a filled cache), measured on the
    same graphs."""
    total = 1 << pair_count(n)
    tr.prefix = "probe."
    try:
        for mask in range(total):
            with tr.span("graph"):
                g = tr.call("graph_core.build", graph_from_mask, n, mask)
                tr.call("graph_core.structure", structure, g)
                tr.call("spectral.spectra", q_spectrum, g)
                tr.call("energy.gamma", gamma_sequence, g)
                tr.call("spectral.lemmas", check_spectral_lemmas, g)
                tr.call("bounds.fill", all_bounds, g)     # fills the catalog's cache
                tr.call("bounds.catalog", all_bounds, g)
        summary = tr.call("reports.verify", verify_exhaustive, n)
    finally:
        tr.prefix = ""
    ms = tr.self_ms()
    rerun = sum(ms[f"probe.{name}"][0] for name in
                ("graph_core.build", "graph_core.structure", "spectral.lemmas", "bounds.catalog"))
    self_ms = (ms["probe.reports.verify"][0] - rerun) / total
    problems = [] if summary.ok and summary.graphs_checked == total else [
        f"verify {n} probe: ok={summary.ok} graphs={summary.graphs_checked}"]
    return self_ms, problems


def layer_metrics(tr: Tracer, graphs: int) -> dict[str, float]:
    ms = tr.self_ms()
    per_graph = {name: ms.get(name, (0.0, 0))[0] / max(graphs, 1) for name in PIPELINE_LAYERS}
    solve_ms, solves = ms.get("spectral.eigensolve", (0.0, 0))
    rerun = sum(per_graph[name] for name in ("graph_core.structure", "spectral.lemmas",
                                             "bounds.catalog", "families_verify.classify"))
    return {
        "graph_core.build_ms": per_graph["graph_core.build"],
        "graph_core.structure_ms": per_graph["graph_core.structure"],
        "graph_core.graph6_ms": per_graph["graph_core.graph6"],
        "spectral.matrix_ms": per_graph["spectral.matrix"],
        "spectral.eigensolve_ms": solve_ms / max(solves, 1),
        "spectral.lemmas_ms": per_graph["spectral.lemmas"],
        "energy.gamma_ms": per_graph["energy.gamma"],
        "energy.energies_ms": per_graph["energy.energies"],
        "bounds.catalog_ms": per_graph["bounds.catalog"],
        "families_verify.classify_ms": per_graph["families_verify.classify"],
        "reports.analyze_self_ms": per_graph["reports.analyze"] - rerun,
        "reports.render_json_ms": per_graph["reports.render_json"],
    }


# -- fixed probes -------------------------------------------------------------------

KERNEL_COUNTS = {8: 16, 16: 8, 32: 4, 64: 3}


def kernel_probe(seed: int, smoke: bool) -> tuple[dict, dict, int, list[str]]:
    """The eigensolver microbenchmark: per-solve kernel time on seeded Q
    matrices at n = 8..64, for every importable backend, with the compiled
    and Python kernels required to agree bit for bit. Without a compiled
    kernel, each diagonal is checked against LAPACK instead."""
    from qspectra import _jacobi_py
    kernels = {"python": _jacobi_py}
    try:
        from qspectra import _jacobi_cy
        kernels["compiled"] = _jacobi_cy
    except ImportError:
        pass
    rng = random.Random(seed)
    metrics, detail, attempted, problems = {}, {}, 0, []
    for n, count in KERNEL_COUNTS.items():
        mats = [signless_laplacian_matrix(random_graph(n, rng.choice((0.2, 0.5, 0.8)), rng))
                for _ in range(1 if smoke else count)]
        diagonals = {}
        for name, kernel in kernels.items():
            times, diagonals[name] = [], []
            for mat in mats:
                work = np.array(mat, dtype=np.float64, order="C", copy=True)
                t0 = time.perf_counter()
                _, _, off_fro, _ = kernel.jacobi_sweeps(work)
                times.append(time.perf_counter() - t0)
                diagonals[name].append((np.diagonal(work).copy(), off_fro))
            detail[f"{name}.n{n}"] = 1e3 * median(times)
        metrics[f"spectral.kernel_ms.n{n}"] = detail[f"{spectral.BACKEND}.n{n}"]
        for i, mat in enumerate(mats):
            attempted += 1
            diag, off_fro = diagonals["python"][i]
            if "compiled" in kernels:
                if not np.array_equal(diag, diagonals["compiled"][i][0]):
                    problems.append(f"kernels differ at n={n}, matrix {i}")
                continue
            ref = np.linalg.eigvalsh(mat)
            tol = off_fro + 8 * n * EPS * max(abs(ref[0]), abs(ref[-1]), 1.0)
            if not float(np.max(np.abs(np.sort(diag) - ref))) <= tol:
                problems.append(f"python kernel off LAPACK at n={n}, matrix {i}")
    detail["bit_identity"] = "checked" if "compiled" in kernels else "compiled kernel not importable"
    return metrics, detail, attempted, problems


TABLES_PROBE = (
    "import json, time\n"
    "from qspectra import reproduce_table1, reproduce_table2\n"
    "t = time.perf_counter()\n"
    "a, b = reproduce_table1(), reproduce_table2()\n"
    "print(json.dumps({'ms': 1e3 * (time.perf_counter() - t), 'ok': a.ok and b.ok}))\n"
)

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import {module}\n"
    "print(1e3 * (time.perf_counter() - t))\n"
)


def fresh_python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.strip().splitlines()[-1]


def process_probes(repeats: int) -> tuple[dict, int, list[str]]:
    """Fresh-interpreter probes: both tables from empty caches, and the import
    of qspectra.cli next to numpy alone (the floor the program cannot move)."""
    tables = [json.loads(fresh_python(TABLES_PROBE)) for _ in range(repeats)]
    cli = [float(fresh_python(IMPORT_PROBE.format(module="qspectra.cli"))) for _ in range(repeats)]
    numpy_ms = [float(fresh_python(IMPORT_PROBE.format(module="numpy"))) for _ in range(repeats)]
    problems = [f"table reproduction not ok in probe {i}" for i, t in enumerate(tables) if not t["ok"]]
    metrics = {
        "reports.tables_ms": median(t["ms"] for t in tables),
        "cli.import_ms": median(cli),
        "cli.numpy_import_ms": median(numpy_ms),
    }
    return metrics, len(tables), problems
