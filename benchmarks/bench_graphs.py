"""Measure what one Graph holds and time the graph calls an analyzed graph
goes through, on the input mix of perfbench's analyze-mid workload.

The rows are seeded G(n, p) graphs for n = 16, 24, ..., 64 and p = 0.1, 0.3
and 0.6, and one prism, crown and complete bipartite member each, near the
middle size n = 40, as analyze-mid draws them. Per row it prints the bytes
one Graph holds: the rise of ``tracemalloc``'s traced memory while a Graph is
built from a fresh copy of the edges and kept, edge pairs included. Then
the microseconds of one call of Graph construction from the sorted edges,
``structure()`` (one graph's component facts, from ``spectral._components``),
``emit_graph6`` and ``parse_graph6``. A pass is one call, timed with
``time.process_time``, and every cell takes REPEATS (5) samples by the rule of
``bench_cold.sample``; the table prints each cell's least sample. The last
line sums the rows, sample by sample. Exits 1 when a graph's graph6 line does
not parse back to the graph. ``--json FILE`` also writes the rows and their
sum to FILE, each with its label, n, m, bytes, timed cells
(``bench_cold.summary``) and round-trip check.

Usage: PYTHONPATH=src python3 benchmarks/bench_graphs.py [--seed 1] [--smoke] [--json FILE]
"""

from __future__ import annotations

import argparse
import random
import time
import tracemalloc

import numpy as np

from qspectra.graph_core import Graph, build_family, emit_graph6, parse_graph6, random_graph
from qspectra.spectral import BACKEND, structure

from bench_cold import REPEATS, sample, summary, write_json

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


def call(fn, arg) -> callable:
    """A row whose pass is one call of fn(arg), on CPU seconds."""
    def row() -> tuple[float, None]:
        t0 = time.process_time()
        fn(arg)
        return time.process_time() - t0, None
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="one sample per cell")
    parser.add_argument("--json", metavar="FILE", help="also write the rows to FILE")
    args = parser.parse_args()
    count = 1 if args.smoke else REPEATS
    rows = inputs(args.seed)
    texts = [emit_graph6(g) for _, g in rows]
    trips = [parse_graph6(text) == g for text, (_, g) in zip(texts, rows)]
    held = [held_bytes(g) for _, g in rows]
    calls = [call(fn, arg) for (_, g), text in zip(rows, texts)
             for fn, arg in ((lambda h: Graph(h.n, h.edges), g), (structure, g),
                             (emit_graph6, g), (parse_graph6, text))]
    # per graph, one (count,) array of samples per timed column
    timed = np.reshape(sample(calls, count)[0], (len(rows), len(COLUMNS) - 1, count))
    print(f"bytes one Graph holds (tracemalloc); CPU us per call, least of {count} sample(s)")
    header = f"{'graph':<26} {'n':>3} {'m':>5}" + "".join(f" {c:>12}" for c in COLUMNS)
    print(header + f" {'round trip':>10}")
    print("-" * (len(header) + 11))
    mismatch, records = False, []
    for (label, g), same, size, cells in zip(rows, trips, held, timed):
        mismatch |= not same
        records.append({"graph": label, "n": g.n, "m": g.m, "bytes": size,
                        **{c: summary(x, 1e6) for c, x in zip(COLUMNS[1:], cells)},
                        "round_trip": same})
        print(f"{label:<26} {g.n:>3} {g.m:>5} {size:>12}"
              + "".join(f" {min(x) * 1e6:>12.1f}" for x in cells)
              + f" {'yes' if same else 'NO':>10}")
    total = timed.sum(axis=0)
    print(f"{'total':<26} {'':>3} {'':>5} {sum(held):>12}"
          + "".join(f" {min(x) * 1e6:>12.1f}" for x in total))
    records.append({"graph": "total", "bytes": sum(held),
                    **{c: summary(x, 1e6) for c, x in zip(COLUMNS[1:], total)}})
    write_json(args.json, BACKEND, records, seed=args.seed, samples=count)
    return 1 if mismatch else 0


if __name__ == "__main__":
    raise SystemExit(main())
