"""Benchmark the compiled Jacobi kernel against its pure-Python twin.

Solves signless Laplacian matrices of seeded random graphs at several sizes
with both kernels, reports per-solve times and the speedup, and confirms the
two kernels agree bit for bit on every diagonal. Exits 1 when they do not.

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

try:
    from qspectra import _jacobi_cy
except ImportError:
    _jacobi_cy = None


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


def bench_kernel(kernel, mats: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    results = []
    t0 = time.perf_counter()
    for m in mats:
        work = np.array(m, dtype=np.float64, order="C", copy=True)
        kernel.jacobi_sweeps(work)
        results.append(work)
    return (time.perf_counter() - t0) / len(mats), results


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

    if _jacobi_cy is None:
        print("compiled kernel not available; timing the pure-Python kernel only")
    header = f"{'n':>5} {'python (ms)':>14} {'compiled (ms)':>14} {'speedup':>9} {'identical':>10}"
    print(header)
    print("-" * len(header))
    mismatch = False
    for n in sizes:
        py_time, py_out = bench_kernel(_jacobi_py, suite[n])
        if _jacobi_cy is None:
            print(f"{n:>5} {py_time * 1e3:>14.3f} {'-':>14} {'-':>9} {'-':>10}")
            continue
        cy_time, cy_out = bench_kernel(_jacobi_cy, suite[n])
        same = all(np.array_equal(a, b) for a, b in zip(py_out, cy_out))
        mismatch |= not same
        print(f"{n:>5} {py_time * 1e3:>14.3f} {cy_time * 1e3:>14.3f} "
              f"{py_time / cy_time:>8.1f}x {'yes' if same else 'NO':>10}")
    return 1 if mismatch else 0


if __name__ == "__main__":
    raise SystemExit(main())
