"""Time verify's batch path stage by stage on the active kernel.

Builds seeded batches of 1024 edge masks on each order, as verify's jobs are,
and prints the CPU milliseconds each stage takes over all batches of an
order. A pass runs the stage once on each batch of the order, timed with
``time.process_time``, and every (order, stage) row takes REPEATS (5)
samples by the rule of ``bench_cold.sample``; the table prints each row's
least sample. The judges are pure functions of a batch, so every sample of
``batch_violations`` and ``batch_lemma_failures`` gets the one batch and
must give the same verdict; each kernel call gets a Q stack of its own,
built before it is timed, which it diagonalizes in place. The stages are
``FactsBatch.from_masks``; within it ``jacobi_stack`` and ``_components``,
run again on the arrays it built; ``batch_violations``;
``batch_lemma_failures``; and ``row_sums``, the three exactly rounded row
sums a batch reads, run again: QE's over the deviations (part of
``from_masks``) and the two trace lemmas' over the eigenvalues and their
squares (part of ``batch_lemma_failures``). The ``identity`` column says
whether every Q stack of the order meets ``_jacobi_py.identity_skips``, under
which the Python kernel's loops rotate a skipped lane by the identity and
write every lane with plain copies; a stack outside the rule is solved one
matrix at a time, each in one-lane lanes-first sweeps, as ``jacobi_sweeps``
solves a matrix. In every sample the timed stages must give what the batch
holds, each row sum must equal ``math.fsum`` of its row bit for bit, and
every batch's verdict must equal what ``reports._verify_batch`` gives for
its masks; exits 1 otherwise. The verdicts are empty at the default
tolerance; under ``QSPECTRA_TOL=1e-300`` they are not. ``--smoke`` takes one
batch per order and one sample per row. ``--json FILE`` also writes the rows
to FILE, each with its order, batch and graph counts, checks and timed cells
(``bench_cold.summary``).

Usage: PYTHONPATH=src python3 benchmarks/bench_verify.py [--orders 5,6,7] [--seed 1] [--smoke]
       [--json FILE]
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

from bench_cold import REPEATS, sample, summary, write_json

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


def q_stack(b: FactsBatch) -> np.ndarray:
    q = b.adjacency.astype(np.float64)
    q[:, np.arange(b.n), np.arange(b.n)] = b.degrees
    return q


def solved(q: np.ndarray) -> np.ndarray:
    spectral._KERNEL.jacobi_stack(q)
    return q


def stage_rows(n: int, batches: list[list[int]], built: list[FactsBatch], scale: float) -> list:
    """A row per stage of STAGES, whose pass calls the stage once on each
    batch of order n and returns the summed CPU seconds of the calls and
    their results. built holds what from_masks gives for the batches."""
    def row(fn, arguments) -> callable:
        def timed() -> tuple[float, list]:
            seconds, results = 0.0, []
            for masks, b in zip(batches, built):
                args = arguments(masks, b)
                t0 = time.process_time()
                results.append(fn(*args))
                seconds += time.process_time() - t0
            return seconds, results
        return timed
    return [row(FactsBatch.from_masks, lambda masks, b: (n, masks, scale)),
            row(solved, lambda masks, b: (q_stack(b),)),
            row(spectral._components, lambda masks, b: (b.adjacency,)),
            row(batch_violations, lambda masks, b: (b,)),
            row(batch_lemma_failures, lambda masks, b: (b,)),
            row(lambda *summed: [spectral._row_fsums(a) for a in summed],
                lambda masks, b: summed_rows(b))]


def summed_rows(b: FactsBatch) -> tuple[np.ndarray, ...]:
    """QE's deviations, and the eigenvalues and their squares of the trace
    lemmas: the arrays whose row sums a batch reads."""
    return b.gamma, b.eigenvalues, b.eigenvalues * b.eigenvalues


def checked(masks: list[int], b: FactsBatch, got: dict[str, list]) -> bool:
    """Whether each sample's result of each stage in got, on the batch b of
    masks, is what b holds, and b's verdict is verify's."""
    def name(lane: int) -> str:
        return emit_graph6(graph_from_mask(b.n, masks[lane]))

    verdict = reports.batch_verdict(b)
    named = ([(name(lane), bid, gap) for lane, bid, gap in verdict[0]],
             [(name(lane), cid) for lane, cid in verdict[1]])
    values = b.eigenvalues.tobytes()
    fsums = [np.array([math.fsum(row) for row in a.tolist()]).tobytes() for a in summed_rows(b)]
    return (all(x.eigenvalues.tobytes() == values for x in got["from_masks"])
            and all(np.sort(np.diagonal(q, axis1=1, axis2=2), axis=1)[:, ::-1].tobytes() == values
                    for q in got["jacobi_stack"])
            and all((labels == b.labels).all() and (odd == b.odd).all()
                    for labels, odd in got["_components"])
            and all(v == verdict[0] for v in got["batch_violations"])
            and all(f == verdict[1][:len(f)] for f in got["batch_lemma_failures"])
            and all(sums[0].tobytes() == b.qe.tobytes()
                    and [x.tobytes() for x in sums] == fsums for sums in got["row_sums"])
            and named == reports._verify_batch((b.n, masks, b.scale)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", default="5,6,7", help="comma-separated vertex counts")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="one batch per order, one sample per row")
    parser.add_argument("--json", metavar="FILE", help="also write the rows to FILE")
    args = parser.parse_args()
    scale = tolerances.scale()
    rows, orders = {}, []
    for n in (int(s) for s in args.orders.split(",")):
        batches = sample_batches(n, 1 if args.smoke else BATCHES, args.seed)
        built = [FactsBatch.from_masks(n, masks, scale) for masks in batches]
        orders.append((n, batches, built))
        rows.update(zip(((n, s) for s in STAGES), stage_rows(n, batches, built, scale)))
    count = 1 if args.smoke else REPEATS
    # each row's samples and the results of their last passes
    timed = dict(zip(rows, zip(*sample(list(rows.values()), count))))
    print(f"kernel: {spectral.BACKEND}; CPU ms over every batch of an order, least of {count} "
          f"sample(s); jacobi_stack and _components are parts of from_masks, and row_sums "
          f"of from_masks and batch_lemma_failures")
    header = f"{'n':>3} {'batches':>8} {'graphs':>7}" + "".join(f" {s:>21}" for s in STAGES)
    print(header + f" {'identity':>8} {'checked':>8}")
    print("-" * (len(header) + 18))
    mismatch, records = False, []
    for n, batches, built in orders:
        same = all(checked(masks, b, {s: [got[j] for got in timed[n, s][1]] for s in STAGES})
                   for j, (masks, b) in enumerate(zip(batches, built)))
        identity = all(identity_skips(q_stack(b)) for b in built)
        mismatch |= not same
        line = f"{n:>3} {len(batches):>8} {sum(map(len, batches)):>7}"
        line += "".join(f" {min(timed[n, s][0]) * 1e3:>21.1f}" for s in STAGES)
        print(f"{line} {'yes' if identity else 'no':>8} {'yes' if same else 'NO':>8}")
        records.append({"n": n, "batches": len(batches), "graphs": sum(map(len, batches)),
                        **{f"{s}_ms": summary(timed[n, s][0], 1e3) for s in STAGES},
                        "identity": identity, "checked": same})
    write_json(args.json, spectral.BACKEND, records, seed=args.seed, samples=count)
    return 1 if mismatch else 0


if __name__ == "__main__":
    raise SystemExit(main())
