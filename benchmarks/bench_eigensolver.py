"""Benchmark the compiled Jacobi kernel against its pure-Python twin.

Solves signless Laplacian matrices of seeded random graphs at several sizes
with every kernel that imports, one matrix at a time (ms per solve) and each
size's matrices as one stack (us per matrix). Confirms bit for bit, on every
matrix and returned tuple, that the two kernels agree and that each kernel's
stack entry agrees with its one-matrix entry. Exits 1 when any result differs.

Usage: python3 benchmarks/bench_eigensolver.py [--sizes 8,16,32,64] [--count 20]
"""

from __future__ import annotations

import argparse
import random
import time

import numpy as np

from qspectra import _jacobi_py
from qspectra.graph_core import random_graph
from qspectra.spectral import signless_laplacian_matrix

KERNELS = {"python": _jacobi_py}
try:
    from qspectra import _jacobi_cy
    KERNELS["compiled"] = _jacobi_cy
except ImportError:
    pass


def make_matrices(sizes: list[int], count: int, seed: int) -> dict[int, list[np.ndarray]]:
    rng = random.Random(seed)
    out: dict[int, list[np.ndarray]] = {}
    for n in sizes:
        mats = []
        for _ in range(count):
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            mats.append(signless_laplacian_matrix(g))
        out[n] = mats
    return out


def bench_kernel(kernel, mats: list[np.ndarray]) -> tuple[float, list]:
    """Seconds per solve, one matrix per call, and each matrix's (result
    repr, solved bytes)."""
    results = []
    t0 = time.perf_counter()
    for m in mats:
        work = np.array(m, dtype=np.float64, order="C", copy=True)
        results.append((kernel.jacobi_sweeps(work), work))
    elapsed = time.perf_counter() - t0
    return elapsed / len(mats), [(repr(r), w.tobytes()) for r, w in results]


def bench_stack(kernel, mats: list[np.ndarray]) -> tuple[float, list]:
    """Seconds per matrix, all matrices in one stack call, and each matrix's
    (result repr, solved bytes)."""
    t0 = time.perf_counter()
    stack = np.stack(mats)
    results = kernel.jacobi_stack(stack)
    elapsed = time.perf_counter() - t0
    return elapsed / len(mats), [(repr(r), w.tobytes()) for r, w in zip(results, stack)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="8,16,32,64",
                        help="comma-separated matrix sizes")
    parser.add_argument("--count", type=int, default=20,
                        help="matrices per size")
    parser.add_argument("--seed", type=int, default=20240601)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    suite = make_matrices(sizes, args.count, args.seed)

    if "compiled" not in KERNELS:
        print("compiled kernel not available; timing the pure-Python kernel only")
    header = f"{'n':>5}"
    for name in KERNELS:
        header += f" {name + ' (ms)':>14}"
    if len(KERNELS) == 2:
        header += f" {'speedup':>9}"
    for name in KERNELS:
        header += f" {name + ' stack (us)':>20}"
    header += f" {'identical':>10}"
    print(header)
    print("-" * len(header))
    mismatch = False
    for n in sizes:
        # the reference is the pure-Python kernel, one matrix per call
        single = {name: bench_kernel(kernel, suite[n]) for name, kernel in KERNELS.items()}
        stacked = {name: bench_stack(kernel, suite[n]) for name, kernel in KERNELS.items()}
        reference = single["python"][1]
        same = all(out == reference for _, out in (*single.values(), *stacked.values()))
        mismatch |= not same
        line = f"{n:>5}"
        for seconds, _ in single.values():
            line += f" {seconds * 1e3:>14.3f}"
        if len(KERNELS) == 2:
            line += f" {single['python'][0] / single['compiled'][0]:>8.1f}x"
        for seconds, _ in stacked.values():
            line += f" {seconds * 1e6:>20.1f}"
        print(f"{line} {'yes' if same else 'NO':>10}")
    return 1 if mismatch else 0


if __name__ == "__main__":
    raise SystemExit(main())
