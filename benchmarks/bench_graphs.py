"""Measure what one Graph holds and time the graph calls an analyzed graph
goes through, on the input mix of perfbench's analyze-mid workload.

The rows are seeded G(n, p) graphs for n = 16, 24, ..., 64 and p = 0.1, 0.3
and 0.6, and one prism, crown and complete bipartite member each, near the
middle size n = 40, as analyze-mid draws them. Per row it prints the bytes
one Graph holds: the rise of ``tracemalloc``'s traced memory while a Graph is
built from a fresh copy of the edges and kept, edge pairs included. Then
the microseconds of one call of Graph construction from the sorted edges,
``structure()`` (one graph's component facts, from ``spectral._components``),
``emit_graph6`` and ``parse_graph6``, each the best of REPEATS (5) timings of
CALLS (20) calls on ``time.process_time``. The last line sums the rows.
Exits 1 when a graph's graph6 line does not parse back to the graph.
``--json FILE`` also writes the rows and their sum to FILE, each with its
label, n, m, cells and round-trip check, next to the backend and the git
commit of the source tree, as ``bench_cold.py`` gives it.

Usage: PYTHONPATH=src python3 benchmarks/bench_graphs.py [--seed 1] [--smoke] [--json FILE]
"""

from __future__ import annotations

import argparse
import json
import math
import random
import time
import tracemalloc

from qspectra.graph_core import Graph, build_family, emit_graph6, parse_graph6, random_graph
from qspectra.spectral import BACKEND, structure

from bench_cold import SRC, source_commit

REPEATS = 5     # timings per call, of which the fastest counts; --smoke runs one
CALLS = 20      # calls per timing; --smoke runs one
SIZES = range(16, 65, 8)
DENSITIES = (0.1, 0.3, 0.6)
MEMBERS = (("prism", (19,)), ("crown", (20,)), ("complete_bipartite", (19, 22)))
COLUMNS = ("bytes", "build_us", "structure_us", "emit_us", "parse_us")


def inputs(seed: int) -> list[tuple[str, Graph]]:
    """(row label, graph) of every row."""
    rng = random.Random(seed)
    rows = [(f"gnp {n} {p}", random_graph(n, p, rng)) for n in SIZES for p in DENSITIES]
    rows += [(f"{kind} {' '.join(map(str, params))}", build_family(kind, params))
             for kind, params in MEMBERS]
    return rows


def held_bytes(g: Graph) -> int:
    """Traced bytes still allocated after building a copy of g and keeping it.
    The interpreter reuses freed tuples from a free list that tracemalloc
    does not see (at most 2,000 per size), so the edge pairs are built while
    more fresh pairs than that are held."""
    spare = [(i, -i) for i in range(4096)]
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    kept = Graph(g.n, tuple((u, v) for u, v in g.edges))
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    del spare
    assert kept == g
    return held


def best_us(fn, arg, repeats: int, calls: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.process_time()
        for _ in range(calls):
            fn(arg)
        best = min(best, time.process_time() - t0)
    return best / calls * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="one timing of one call per cell")
    parser.add_argument("--json", metavar="FILE", help="also write the rows to FILE")
    args = parser.parse_args()
    repeats, calls = (1, 1) if args.smoke else (REPEATS, CALLS)
    rows = inputs(args.seed)
    print(f"bytes one Graph holds (tracemalloc); CPU us per call, best of {repeats} "
          f"timings of {calls} calls")
    header = f"{'graph':<26} {'n':>3} {'m':>5}" + "".join(f" {c:>12}" for c in COLUMNS)
    print(header + f" {'round trip':>10}")
    print("-" * (len(header) + 11))
    totals = dict.fromkeys(COLUMNS, 0.0)
    mismatch, records = False, []
    for label, g in rows:
        text = emit_graph6(g)
        same = parse_graph6(text) == g
        mismatch |= not same
        cells = {
            "bytes": held_bytes(g),
            "build_us": best_us(lambda h: Graph(h.n, h.edges), g, repeats, calls),
            "structure_us": best_us(structure, g, repeats, calls),
            "emit_us": best_us(emit_graph6, g, repeats, calls),
            "parse_us": best_us(parse_graph6, text, repeats, calls),
        }
        for c in COLUMNS:
            totals[c] += cells[c]
        print(f"{label:<26} {g.n:>3} {g.m:>5} {cells['bytes']:>12}"
              + "".join(f" {cells[c]:>12.1f}" for c in COLUMNS[1:])
              + f" {'yes' if same else 'NO':>10}")
        records.append({"graph": label, "n": g.n, "m": g.m,
                        **{c: round(cells[c], 3) for c in COLUMNS}, "round_trip": same})
    print(f"{'total':<26} {'':>3} {'':>5} {totals['bytes']:>12.0f}"
          + "".join(f" {totals[c]:>12.1f}" for c in COLUMNS[1:]))
    records.append({"graph": "total", **{c: round(totals[c], 3) for c in COLUMNS}})
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"backend": BACKEND, "commit": source_commit(), "source": SRC,
                       "seed": args.seed, "repeats": repeats, "calls": calls,
                       "rows": records}, out, indent=2)
            out.write("\n")
    return 1 if mismatch else 0


if __name__ == "__main__":
    raise SystemExit(main())
