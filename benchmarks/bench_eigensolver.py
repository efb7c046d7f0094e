"""Benchmark the compiled Jacobi kernel against its pure-Python twin.

Solves signless Laplacian matrices of seeded random graphs at several sizes
with every kernel that imports, one matrix at a time (ms per solve) and each
size's matrices as one stack (us per matrix). A second table solves the
adjacency, Laplacian and signless Laplacian matrices of each of those graphs,
as analyze does: three one-matrix calls against one stack of three (ms per
graph). Each row is the best of REPEATS (5) samples, timed with
``time.process_time``. A sample is one pass over the size's graphs or, where a
warm-up pass takes under MIN_SAMPLE_S (20 ms), enough back-to-back passes to
pass that, divided by their number. Confirms bit for bit, on every matrix and
returned tuple, that the two kernels agree and that each kernel's stack entry
agrees with its one-matrix entry. The stack check also covers a stack of at
least 17 of the graphs' Laplacians per size (the ``L stack`` column): like
every graph matrix they meet ``_jacobi_py.identity_skips``, so the Python
kernel solves them lanes last while more than 16 lanes iterate. Exits 1 when
any result differs.

Usage: python3 benchmarks/bench_eigensolver.py [--sizes 8,16,32,64] [--count 20]
"""

from __future__ import annotations

import argparse
import math
import random
import time

import numpy as np

from qspectra import _jacobi_py
from qspectra.graph_core import random_graph
from qspectra.spectral import adjacency_matrix, laplacian_matrix, signless_laplacian_matrix

REPEATS = 5         # samples per row, of which the fastest counts
MIN_SAMPLE_S = 0.02     # CPU seconds below which a sample runs several passes
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


def best_of(bench, *args) -> tuple[float, list]:
    """The least seconds of REPEATS samples of bench(*args), each the mean of
    enough back-to-back passes to take MIN_SAMPLE_S, and what the last pass
    solved."""
    t0 = time.process_time()
    bench(*args)        # the warm-up pass, which sets the passes per sample
    passes = math.ceil(MIN_SAMPLE_S / max(time.process_time() - t0, 1e-9))
    samples = []
    for _ in range(REPEATS):
        runs = [bench(*args) for _ in range(passes)]
        samples.append(sum(seconds for seconds, _ in runs) / len(runs))
    return min(samples), runs[-1][1]


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
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    graphs = make_graphs(sizes, args.count, args.seed)
    suite = {n: [signless_laplacian_matrix(g) for g in gs] for n, gs in graphs.items()}

    if "compiled" not in KERNELS:
        print("compiled kernel not available; timing the pure-Python kernel only")
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
    mismatch = False
    for n in sizes:
        # the reference is the pure-Python kernel, one matrix per call
        single = {name: best_of(bench_kernel, kernel, suite[n]) for name, kernel in KERNELS.items()}
        stacked = {name: best_of(bench_stack, kernel, suite[n]) for name, kernel in KERNELS.items()}
        reference = single["python"][1]
        same = all(out == reference for _, out in (*single.values(), *stacked.values()))
        laplacians = laplacian_stack(graphs[n])
        lap_reference = bench_kernel(_jacobi_py, laplacians)[1]
        lap_same = all(bench_stack(kernel, laplacians)[1] == lap_reference
                       for kernel in KERNELS.values())
        mismatch |= not (same and lap_same)
        line = f"{n:>5}"
        for seconds, _ in single.values():
            line += f" {seconds * 1e3:>14.3f}"
        if len(KERNELS) == 2:
            line += f" {single['python'][0] / single['compiled'][0]:>8.1f}x"
        for seconds, _ in stacked.values():
            line += f" {seconds * 1e6:>20.1f}"
        print(f"{line} {'yes' if same else 'NO':>10} {'yes' if lap_same else 'NO':>8}")

    print()
    print("A, L and Q of one graph: three one-matrix calls against one stack of three")
    header = f"{'n':>5}"
    for name in KERNELS:
        header += f" {name + ' 3 calls (ms)':>22} {name + ' stack (ms)':>20} {'speedup':>8}"
    header += f" {'identical':>10}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        line, outputs = f"{n:>5}", []
        for name, kernel in KERNELS.items():
            calls, stack = (best_of(bench_triples, kernel, graphs[n], stacked)
                            for stacked in (False, True))
            line += (f" {calls[0] * 1e3:>22.3f} {stack[0] * 1e3:>20.3f}"
                     f" {calls[0] / stack[0]:>7.2f}x")
            outputs += [calls[1], stack[1]]
        same = all(out == outputs[0] for out in outputs)
        mismatch |= not same
        print(f"{line} {'yes' if same else 'NO':>10}")
    return 1 if mismatch else 0


if __name__ == "__main__":
    raise SystemExit(main())
