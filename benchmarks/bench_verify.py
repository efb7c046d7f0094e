"""Time verify's batch path stage by stage on the active kernel.

Builds seeded batches of 1024 edge masks on each order, as verify's jobs are,
and prints the CPU milliseconds each stage takes over all batches of an
order, each stage of a batch timed as the best of REPEATS (5) calls with
``time.process_time``. The judges are pure functions of a batch, so every
call of ``batch_violations`` and ``batch_lemma_failures`` gets the one batch,
and all five must give the same verdict; each kernel call gets a Q stack of
its own, which it diagonalizes in place. The stages are
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
solves a matrix. The re-run stages must give what the batch holds, each row
sum must equal ``math.fsum`` of its row bit for bit, and every batch's
verdict must equal what ``reports._verify_batch`` gives for its masks; exits
1 otherwise. The verdicts are empty at the default tolerance; under
``QSPECTRA_TOL=1e-300`` they are not. ``--json FILE`` also writes the rows
to FILE, each with its order, batch and graph counts, stage milliseconds and
checks, next to the backend and the git commit of the source tree, as
``bench_cold.py`` gives it.

Usage: PYTHONPATH=src python3 benchmarks/bench_verify.py [--orders 5,6,7] [--seed 1] [--smoke]
       [--json FILE]
"""

from __future__ import annotations

import argparse
import json
import math
import random
import time

import numpy as np

from qspectra import reports, spectral, tolerances
from qspectra._jacobi_py import identity_skips
from qspectra.bounds import batch_violations
from qspectra.graph_core import emit_graph6, graph_from_mask
from qspectra.spectral import FactsBatch, batch_lemma_failures

from bench_cold import SRC, source_commit

BATCHES = 15        # batches per order; --smoke runs one
REPEATS = 5         # calls per stage and batch, of which the fastest counts
STAGES = ("from_masks", "jacobi_stack", "_components", "batch_violations",
          "batch_lemma_failures", "row_sums")


def sample_batches(n: int, count: int, seed: int) -> list[list[int]]:
    """count seeded batches of distinct masks on n vertices, fewer when the
    order has fewer graphs, each sorted as verify's sampled jobs are."""
    total = 1 << (n * (n - 1) // 2)
    size = reports._VERIFY_BATCH
    masks = sorted(random.Random(seed).sample(range(total), min(count * size, total)))
    return [masks[i:i + size] for i in range(0, len(masks), size)]


def timed(seconds: dict, stage: str, fn, calls: list[tuple]) -> list:
    """Calls fn once on each argument tuple of calls, adds the least CPU
    seconds of one call to the stage, and returns the results."""
    results, best = [], math.inf
    for args in calls:
        t0 = time.process_time()
        results.append(fn(*args))
        best = min(best, time.process_time() - t0)
    seconds[stage] += best
    return results


def row_sums(arrays: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    return [spectral._row_fsums(a) for a in arrays]


def fsums_per_row(a: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(row) for row in a.tolist()])


def run_batch(n: int, masks: list[int], scale: float, seconds: dict) -> tuple[bool, bool]:
    """Times each stage on one batch. Returns whether every check holds, and
    whether its Q stack meets identity_skips."""
    b = timed(seconds, "from_masks", FactsBatch.from_masks, [(n, masks, scale)] * REPEATS)[-1]
    q = b.adjacency.astype(np.float64)
    q[:, np.arange(n), np.arange(n)] = b.degrees
    identity = identity_skips(q)
    stacks = [(q.copy(),) for _ in range(REPEATS)]
    timed(seconds, "jacobi_stack", spectral._KERNEL.jacobi_stack, stacks)
    q = stacks[-1][0]
    values = np.sort(np.diagonal(q, axis1=1, axis2=2), axis=1)[:, ::-1]
    labels, odd = timed(seconds, "_components", spectral._components,
                        [(b.adjacency,)] * REPEATS)[-1]
    violated = timed(seconds, "batch_violations", batch_violations, [(b,)] * REPEATS)
    failed = timed(seconds, "batch_lemma_failures", batch_lemma_failures, [(b,)] * REPEATS)
    # QE's deviations, and the eigenvalues and their squares of the trace lemmas
    summed = (b.gamma, b.eigenvalues, b.eigenvalues * b.eigenvalues)
    sums = timed(seconds, "row_sums", row_sums, [(summed,)] * REPEATS)[-1]

    def name(lane: int) -> str:
        return emit_graph6(graph_from_mask(n, masks[lane]))

    verdict = reports.batch_verdict(b)
    named = ([(name(lane), bid, gap) for lane, bid, gap in verdict[0]],
             [(name(lane), cid) for lane, cid in verdict[1]])
    return (values.tobytes() == b.eigenvalues.tobytes()
            and (labels == b.labels).all() and (odd == b.odd).all()
            and sums[0].tobytes() == b.qe.tobytes()
            and all(x.tobytes() == fsums_per_row(a).tobytes() for x, a in zip(sums, summed))
            and all(v == verdict[0] for v in violated)
            and all(f == verdict[1][:len(f)] for f in failed)
            and named == reports._verify_batch((n, masks, scale))), identity


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--orders", default="5,6,7", help="comma-separated vertex counts")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="one batch per order")
    parser.add_argument("--json", metavar="FILE", help="also write the rows to FILE")
    args = parser.parse_args()
    scale = tolerances.scale()
    print(f"kernel: {spectral.BACKEND}; CPU ms over every batch of an order, best of "
          f"{REPEATS} per batch; "
          f"jacobi_stack and _components are parts of from_masks, and row_sums "
          f"of from_masks and batch_lemma_failures")
    header = f"{'n':>3} {'batches':>8} {'graphs':>7}" + "".join(f" {s:>21}" for s in STAGES)
    print(header + f" {'identity':>8} {'checked':>8}")
    print("-" * (len(header) + 18))
    mismatch, records = False, []
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
        records.append({"n": n, "batches": len(batches), "graphs": sum(map(len, batches)),
                        **{f"{s}_ms": round(seconds[s] * 1e3, 3) for s in STAGES},
                        "identity": identity, "checked": same})
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"backend": spectral.BACKEND, "commit": source_commit(), "source": SRC,
                       "seed": args.seed, "repeats": REPEATS, "rows": records}, out, indent=2)
            out.write("\n")
    return 1 if mismatch else 0


if __name__ == "__main__":
    raise SystemExit(main())
