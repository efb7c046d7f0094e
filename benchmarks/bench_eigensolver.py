"""Benchmark the compiled Jacobi kernel against its pure-Python twin.

Solves signless Laplacian matrices of seeded random graphs at several sizes
with every kernel that imports, one matrix at a time (ms per solve) and each
size's matrices as one stack (us per matrix). A second table solves the
adjacency, Laplacian and signless Laplacian matrices of each of those graphs,
as analyze does: three one-matrix calls against one stack of three (ms per
graph). A third table solves the signless Laplacians of the eight prisms
that table1 and table2 tabulate (orders 6 to 20), as those tables do: eight
one-matrix calls against one stack, each matrix zero-padded to order 20
(ms per table). A pass is one solve of the row's graphs, timed with
``time.process_time``, and every row takes REPEATS (5) samples by the rule of
``bench_cold.sample``; the tables print each row's least sample. Confirms bit
for bit, on every matrix, returned tuple and sample, that the two kernels
agree and that each kernel's stack entry agrees with its one-matrix entry, a
padded lane in its tuple, its leading block and its padding, which must stay
+0.0. The stack check also
covers a stack of at least 17 of the graphs' Laplacians per size (the
``L stack`` column): like every graph matrix they meet
``_jacobi_py.identity_skips``, so the Python kernel solves them lanes last
while more than 16 lanes iterate. Exits 1 when any result differs.
``--json FILE`` also writes the rows of the three tables to FILE, each with
its table, size or kernel, checks and timed cells (``bench_cold.summary``).

Usage: PYTHONPATH=src python3 benchmarks/bench_eigensolver.py [--sizes 8,16,32,64] [--count 20]
       [--json FILE]
"""

from __future__ import annotations

import argparse
import random
import time
from functools import partial

import numpy as np

from qspectra import _jacobi_py
from qspectra.graph_core import prism, random_graph
from qspectra.spectral import (
    BACKEND, adjacency_matrix, laplacian_matrix, signless_laplacian_matrix)

from bench_cold import REPEATS, sample, summary, write_json

KERNELS = {"python": _jacobi_py}
try:
    from qspectra import _jacobi_cy
    KERNELS["compiled"] = _jacobi_cy
except ImportError:
    pass


def make_graphs(sizes: list[int], count: int, seed: int) -> dict[int, list]:
    rng = random.Random(seed)
    return {n: [random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng) for _ in range(count)]
            for n in sizes}


def laplacian_stack(graphs: list) -> list[np.ndarray]:
    """The Laplacians of the graphs, cycled to more lanes than the Python
    stack kernel runs lanes first."""
    count = max(len(graphs), _jacobi_py.LANES_FIRST_MAX + 1)
    return [laplacian_matrix(graphs[i % len(graphs)]) for i in range(count)]


def bench_kernel(kernel, mats: list[np.ndarray]) -> tuple[float, list]:
    """Seconds per solve, one matrix per call, and each matrix's (result
    repr, solved bytes)."""
    results = []
    t0 = time.process_time()
    for m in mats:
        work = np.array(m, dtype=np.float64, order="C", copy=True)
        results.append((kernel.jacobi_sweeps(work), work))
    elapsed = time.process_time() - t0
    return elapsed / len(mats), [(repr(r), w.tobytes()) for r, w in results]


def bench_stack(kernel, mats: list[np.ndarray]) -> tuple[float, list]:
    """Seconds per matrix, all matrices in one stack call, and each matrix's
    (result repr, solved bytes)."""
    t0 = time.process_time()
    stack = np.stack(mats)
    results = kernel.jacobi_stack(stack)
    elapsed = time.process_time() - t0
    return elapsed / len(mats), [(repr(r), w.tobytes()) for r, w in zip(results, stack)]


def bench_padded(kernel, mats: list[np.ndarray]) -> tuple[float, list]:
    """Seconds per matrix, all matrices zero-padded to the largest order in
    one stack call, and each matrix's (result repr, solved bytes of its
    leading block), with None for the bytes where the padding is not all
    +0.0 after the solve."""
    t0 = time.process_time()
    size = max(len(m) for m in mats)
    stack = np.zeros((len(mats), size, size))
    for lane, m in zip(stack, mats):
        lane[:len(m), :len(m)] = m
    results = kernel.jacobi_stack(stack)
    elapsed = time.process_time() - t0
    solved = []
    for result, lane, m in zip(results, stack, mats):
        block, padding = lane[:len(m), :len(m)].tobytes(), lane.copy()
        padding[:len(m), :len(m)] = 0.0
        # all bits zero: every padding entry is +0.0
        solved.append((repr(result), None if padding.view(np.uint64).any() else block))
    return elapsed / len(mats), solved


def bench_triples(kernel, graphs: list, stacked: bool) -> tuple[float, list]:
    """Seconds per graph to solve its A, L and Q, as three one-matrix calls or
    one stack of three, and each matrix's (result repr, solved bytes)."""
    triples = [[build(g) for build in (adjacency_matrix, laplacian_matrix,
                                       signless_laplacian_matrix)] for g in graphs]
    solved = []
    t0 = time.process_time()
    for mats in triples:
        if stacked:
            work = np.stack(mats)
            solved.extend(zip(kernel.jacobi_stack(work), work))
        else:
            for m in mats:
                work = np.array(m, dtype=np.float64, order="C", copy=True)
                solved.append((kernel.jacobi_sweeps(work), work))
    elapsed = time.process_time() - t0
    return elapsed / len(graphs), [(repr(r), w.tobytes()) for r, w in solved]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="8,16,32,64",
                        help="comma-separated matrix sizes")
    parser.add_argument("--count", type=int, default=20,
                        help="matrices per size")
    parser.add_argument("--seed", type=int, default=20240601)
    parser.add_argument("--json", metavar="FILE", help="also write the rows to FILE")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    graphs = make_graphs(sizes, args.count, args.seed)
    suite = {n: [signless_laplacian_matrix(g) for g in gs] for n, gs in graphs.items()}
    if "compiled" not in KERNELS:
        print("compiled kernel not available; timing the pure-Python kernel only")
    rows = {}
    for n in sizes:
        for name, kernel in KERNELS.items():
            rows[n, name, "single"] = partial(bench_kernel, kernel, suite[n])
            rows[n, name, "stack"] = partial(bench_stack, kernel, suite[n])
            rows[n, name, "3 calls"] = partial(bench_triples, kernel, graphs[n], False)
            rows[n, name, "stack of 3"] = partial(bench_triples, kernel, graphs[n], True)
    # the rows of table1 and table2, prism(3) to prism(10)
    prisms = [signless_laplacian_matrix(prism(k)) for k in range(3, 11)]
    for name, kernel in KERNELS.items():
        rows[name, "prisms", "single"] = partial(bench_kernel, kernel, prisms)
        rows[name, "prisms", "padded"] = partial(bench_padded, kernel, prisms)
    # each row's samples and the results of their last passes
    timed = dict(zip(rows, zip(*sample(list(rows.values()), REPEATS))))
    header = f"{'n':>5}"
    for name in KERNELS:
        header += f" {name + ' (ms)':>14}"
    if len(KERNELS) == 2:
        header += f" {'speedup':>9}"
    for name in KERNELS:
        header += f" {name + ' stack (us)':>20}"
    header += f" {'identical':>10} {'L stack':>8}"
    print(header)
    print("-" * len(header))
    mismatch, records = False, []
    for n in sizes:
        # the reference is the pure-Python kernel, one matrix per call
        single = {name: timed[n, name, "single"] for name in KERNELS}
        stacked = {name: timed[n, name, "stack"] for name in KERNELS}
        reference = single["python"][1][0]
        same = all(out == reference for _, outs in (*single.values(), *stacked.values())
                   for out in outs)
        laplacians = laplacian_stack(graphs[n])
        lap_reference = bench_kernel(_jacobi_py, laplacians)[1]
        lap_same = all(bench_stack(kernel, laplacians)[1] == lap_reference
                       for kernel in KERNELS.values())
        mismatch |= not (same and lap_same)
        line = f"{n:>5}"
        for seconds, _ in single.values():
            line += f" {min(seconds) * 1e3:>14.3f}"
        if len(KERNELS) == 2:
            line += f" {min(single['python'][0]) / min(single['compiled'][0]):>8.1f}x"
        for seconds, _ in stacked.values():
            line += f" {min(seconds) * 1e6:>20.1f}"
        print(f"{line} {'yes' if same else 'NO':>10} {'yes' if lap_same else 'NO':>8}")
        records.append({"table": "solve", "n": n,
                        **{f"{name}_ms": summary(single[name][0], 1e3) for name in KERNELS},
                        **{f"{name}_stack_us": summary(stacked[name][0], 1e6)
                           for name in KERNELS},
                        "identical": same, "l_stack": lap_same})

    print()
    print("A, L and Q of one graph: three one-matrix calls against one stack of three")
    header = f"{'n':>5}"
    for name in KERNELS:
        header += f" {name + ' 3 calls (ms)':>22} {name + ' stack (ms)':>20} {'speedup':>8}"
    header += f" {'identical':>10}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        line, outputs, record = f"{n:>5}", [], {"table": "triples", "n": n}
        for name in KERNELS:
            calls, stack = timed[n, name, "3 calls"], timed[n, name, "stack of 3"]
            line += (f" {min(calls[0]) * 1e3:>22.3f} {min(stack[0]) * 1e3:>20.3f}"
                     f" {min(calls[0]) / min(stack[0]):>7.2f}x")
            outputs += [*calls[1], *stack[1]]
            record.update({f"{name}_3_calls_ms": summary(calls[0], 1e3),
                           f"{name}_stack_ms": summary(stack[0], 1e3)})
        same = all(out == outputs[0] for out in outputs)
        mismatch |= not same
        print(f"{line} {'yes' if same else 'NO':>10}")
        records.append({**record, "identical": same})

    print()
    print(f"Q of the {len(prisms)} table prisms, orders 6 to 20: one call per matrix "
          "against one zero-padded stack")
    header = (f"{'kernel':>8} {f'{len(prisms)} calls (ms)':>14} {'padded stack (ms)':>18}"
              f" {'speedup':>8} {'identical':>10}")
    print(header)
    print("-" * len(header))
    # the reference is the pure-Python kernel, one matrix per call
    reference = timed["python", "prisms", "single"][1][0]
    for name in KERNELS:
        calls, padded = (timed[name, "prisms", how] for how in ("single", "padded"))
        same = all(out == reference for out in (*calls[1], *padded[1]))
        mismatch |= not same
        print(f"{name:>8} {min(calls[0]) * len(prisms) * 1e3:>14.3f}"
              f" {min(padded[0]) * len(prisms) * 1e3:>18.3f}"
              f" {min(calls[0]) / min(padded[0]):>7.2f}x {'yes' if same else 'NO':>10}")
        records.append({"table": "prisms", "kernel": name,
                        "calls_ms": summary(calls[0], len(prisms) * 1e3),
                        "padded_stack_ms": summary(padded[0], len(prisms) * 1e3),
                        "identical": same})
    write_json(args.json, BACKEND, records, sizes=sizes, count=args.count, seed=args.seed,
               samples=REPEATS)
    return 1 if mismatch else 0


if __name__ == "__main__":
    raise SystemExit(main())
