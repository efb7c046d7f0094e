"""Time verify's batch path stage by stage on the active kernel.

Builds seeded batches of 1024 edge masks on each order, as verify's jobs are,
and prints the CPU milliseconds each stage takes over all batches of an
order: ``FactsBatch.from_masks``; within it ``jacobi_stack`` and
``_components``, run again on the arrays it built; ``batch_violations``;
``batch_lemma_failures``; and ``row_sums``, the three exactly rounded row
sums a batch reads, run again: QE's over the deviations (part of
``from_masks``) and the two trace lemmas' over the eigenvalues and their
squares (part of ``batch_lemma_failures``). The ``identity`` column says
whether every Q stack of the order meets ``_jacobi_py.identity_skips``, under
which the Python kernel's lanes-last loop rotates a skipped lane by the
identity and writes every lane with plain copies; a stack that fails it still
solves bit for bit, but lanes first throughout. The re-run stages must give
what the batch holds, each row sum must equal ``math.fsum`` of its row bit for
bit, and every batch's verdict must equal what ``reports._verify_batch`` gives
for its masks; exits 1 otherwise. The verdicts are empty at the default
tolerance; under ``QSPECTRA_TOL=1e-300`` they are not.

Usage: PYTHONPATH=src python3 benchmarks/bench_verify.py [--orders 5,6,7] [--seed 1] [--smoke]
"""

from __future__ import annotations

import argparse
import math
import random
import time

import numpy as np

from qspectra import reports, spectral, tolerances
from qspectra._jacobi_py import identity_skips
from qspectra.bounds import batch_violations
from qspectra.graph_core import emit_graph6, graph_from_mask
from qspectra.spectral import FactsBatch, batch_lemma_failures

BATCHES = 15        # batches per order; --smoke runs one
STAGES = ("from_masks", "jacobi_stack", "_components", "batch_violations",
          "batch_lemma_failures", "row_sums")


def sample_batches(n: int, count: int, seed: int) -> list[list[int]]:
    """count seeded batches of distinct masks on n vertices, fewer when the
    order has fewer graphs, each sorted as verify's sampled jobs are."""
    total = 1 << (n * (n - 1) // 2)
    size = reports._VERIFY_BATCH
    masks = sorted(random.Random(seed).sample(range(total), min(count * size, total)))
    return [masks[i:i + size] for i in range(0, len(masks), size)]


def timed(seconds: dict, stage: str, fn, *args):
    t0 = time.process_time()
    result = fn(*args)
    seconds[stage] += time.process_time() - t0
    return result


def row_sums(arrays: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    return [spectral._row_fsums(a) for a in arrays]


def fsums_per_row(a: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(row) for row in a.tolist()])


def run_batch(n: int, masks: list[int], scale: float, seconds: dict) -> tuple[bool, bool]:
    """Times each stage on one batch. Returns whether every check holds, and
    whether its Q stack meets identity_skips."""
    b = timed(seconds, "from_masks", FactsBatch.from_masks, n, masks, scale)
    q = b.adjacency.astype(np.float64)
    q[:, np.arange(n), np.arange(n)] = b.degrees
    identity = identity_skips(q)
    timed(seconds, "jacobi_stack", spectral._KERNEL.jacobi_stack, q)
    values = np.sort(np.diagonal(q, axis1=1, axis2=2), axis=1)[:, ::-1]
    connected, bipartite = timed(seconds, "_components", spectral._components, b.adjacency)
    violated = timed(seconds, "batch_violations", batch_violations, b)
    failed = timed(seconds, "batch_lemma_failures", batch_lemma_failures, b)
    # QE's deviations, and the eigenvalues and their squares of the trace lemmas
    summed = (b.gamma, b.eigenvalues, b.eigenvalues * b.eigenvalues)
    sums = timed(seconds, "row_sums", row_sums, summed)

    def name(lane: int) -> str:
        return emit_graph6(graph_from_mask(n, masks[lane]))

    verdict = reports.batch_verdict(b)
    named = ([(name(lane), bid, gap) for lane, bid, gap in verdict[0]],
             [(name(lane), cid) for lane, cid in verdict[1]])
    return (values.tobytes() == b.eigenvalues.tobytes()
            and (connected == b.connected).all() and (bipartite == b.bipartite_components).all()
            and sums[0].tobytes() == b.qe.tobytes()
            and all(x.tobytes() == fsums_per_row(a).tobytes() for x, a in zip(sums, summed))
            and violated == verdict[0] and failed == verdict[1][:len(failed)]
            and named == reports._verify_batch((n, masks, scale))), identity


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", default="5,6,7", help="comma-separated vertex counts")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="one batch per order")
    args = parser.parse_args()
    scale = tolerances.scale()
    print(f"kernel: {spectral.BACKEND}; CPU ms over every batch of an order; "
          f"jacobi_stack and _components are parts of from_masks, and row_sums "
          f"of from_masks and batch_lemma_failures")
    header = f"{'n':>3} {'batches':>8} {'graphs':>7}" + "".join(f" {s:>21}" for s in STAGES)
    print(header + f" {'identity':>8} {'checked':>8}")
    print("-" * (len(header) + 18))
    mismatch = False
    for n in (int(s) for s in args.orders.split(",")):
        seconds = dict.fromkeys(STAGES, 0.0)
        batches = sample_batches(n, 1 if args.smoke else BATCHES, args.seed)
        runs = [run_batch(n, masks, scale, seconds) for masks in batches]
        same = all(same for same, _ in runs)
        identity = all(identity for _, identity in runs)
        mismatch |= not same
        line = f"{n:>3} {len(batches):>8} {sum(map(len, batches)):>7}"
        line += "".join(f" {seconds[s] * 1e3:>21.1f}" for s in STAGES)
        print(f"{line} {'yes' if identity else 'no':>8} {'yes' if same else 'NO':>8}")
    return 1 if mismatch else 0


if __name__ == "__main__":
    raise SystemExit(main())
