"""Time the CLI's cold start: one fresh ``python -m qspectra.cli`` process per
request kind of the cli-cold benchmark mix, and the bare imports of
``qspectra.cli`` and ``qspectra.reports``; and hold what every harness in
this directory shares: the one timing rule (``sample``, ``summary``) and
the ``--json`` writer (``write_json``).

Every process compiles qspectra from source, with one BLAS thread and no
``QSPECTRA_*`` variable, on the qspectra this script imports: each run
copies its source tree, leaving out every ``__pycache__``, to a temporary
directory that goes first on the child's PYTHONPATH, and no child writes
bytecode. ``PYTHONDONTWRITEBYTECODE`` stops writes, not reads, so without
the copy a cache that an earlier import left in the tree would be timed in
place of the compile; a fresh ``PYTHONPYCACHEPREFIX`` would make numpy
compile from source too.
A row is one process, timed by ``run`` on wall time and on CPU time (user
plus system, from ``getrusage(RUSAGE_CHILDREN)`` deltas), and takes ROUNDS
(15) samples; the table prints their median wall and least CPU time. The
``cycle`` row sums the seven request rows of each round, one of each kind,
as one cli-cold cycle runs them. One more run of each row under ``-X
importtime`` names which of numpy, dataclasses and fractions it loaded.
Exits 1 when a process exits with another code than its row expects, or when
a row's stdout differs between runs. ``--json FILE`` also writes the rows.

Usage: PYTHONPATH=src python3 benchmarks/bench_cold.py [--smoke] [--json FILE]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

import qspectra
from qspectra.graph_core import emit_graph6, random_graph

REPEATS = 5         # samples per row in process; --smoke takes one
ROUNDS = 15         # samples per row of this harness; --smoke takes one
MIN_SAMPLE_S = 0.02     # seconds below which a sample runs several passes
WATCHED = ("numpy", "dataclasses", "fractions")
SRC = str(Path(qspectra.__file__).resolve().parent.parent)


def sample(rows: list, count: int) -> tuple[list[list], list[list]]:
    """count samples of each row, a callable that runs one pass and returns
    its seconds (a float, or a tuple of clocks) and its result; and the
    result of each sample's last pass. A warm-up pass of each row sets its
    passes per sample, enough for the longest clock to take MIN_SAMPLE_S; a
    sample is the mean of its passes. Sample k of every row runs before
    sample k + 1 of any."""
    passes = [math.ceil(MIN_SAMPLE_S / max(np.max(row()[0]), 1e-9)) for row in rows]
    samples, results = [[] for _ in rows], [[] for _ in rows]
    for _ in range(count):
        for row, k, kept, last in zip(rows, passes, samples, results):
            runs = [row() for _ in range(k)]
            kept.append(np.mean([seconds for seconds, _ in runs], axis=0))
            last.append(runs[-1][1])
    return samples, results


def summary(seconds, unit: float) -> dict[str, float]:
    """The least, lower quartile, median and upper quartile (linear, as
    ``statistics.quantiles`` inclusive) of the seconds, times unit and
    rounded to 4 decimals; one sample is all four."""
    return {stat: round(float(x) * unit, 4) for stat, x in
            zip(("min", "q1", "median", "q3"), np.percentile(seconds, [0, 25, 50, 75]))}


def write_json(path: str | None, backend: str, rows: list, **settings) -> None:
    """When path is given, writes the rows there, after the backend, the
    commit and path of SRC and the settings."""
    if path:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"backend": backend, "commit": source_commit(), "source": SRC,
                       **settings, "rows": rows}, out, indent=2)
            out.write("\n")


def rows() -> tuple[list[tuple[str, list[str], int]], list[tuple[str, list[str], int]]]:
    """(name, interpreter arguments, expected exit code) of each row: the
    seven request kinds of the cli-cold mix, and the two imports."""
    g6 = emit_graph6(random_graph(12, 0.5, random.Random(1)))
    requests = [
        (["table1", "--json"], 0),
        (["table2", "--json"], 0),
        (["verify", "4", "--json"], 0),
        (["analyze", "--family", "prism", "8", "--json"], 0),
        (["bounds", "--graph6", g6, "--json"], 0),
        # one character short: the graph6 body length no longer matches n
        (["bounds", "--graph6", g6[:-1], "--json"], 2),
        (["family", "crown", "20", "--json"], 0),
    ]
    return ([(" ".join(args), ["-m", "qspectra.cli", *args], code) for args, code in requests],
            [(f"import {module}", ["-c", f"import {module}"], 0)
             for module in ("qspectra.cli", "qspectra.reports")])


def source_copy(directory: str) -> str:
    """A copy of SRC in directory, with no ``__pycache__``, compiled
    extensions included; returns its path."""
    return shutil.copytree(SRC, os.path.join(directory, "src"),
                           ignore=shutil.ignore_patterns("__pycache__"))


def child_env(src: str) -> dict[str, str]:
    """The environment of a child that imports qspectra from src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QSPECTRA_")}
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env.update(PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run(argv: list[str], env: dict[str, str]) -> tuple[tuple[float, float],
                                                       subprocess.CompletedProcess]:
    """The wall and CPU seconds, and the completed process, of one child."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=600)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return (wall, cpu), proc


def clocks(samples: list) -> tuple[dict[str, dict[str, float]], str]:
    """The wall_ms and cpu_ms cells of a row's (wall, CPU) samples, and their
    median wall and least CPU ms as the table prints them."""
    wall, cpu = np.transpose(samples)
    cells = {"wall_ms": summary(wall, 1e3), "cpu_ms": summary(cpu, 1e3)}
    return cells, f" {cells['wall_ms']['median']:>9.1f} {cells['cpu_ms']['min']:>9.1f}"


def loaded(importtime_stderr: str) -> list[str]:
    """The watched modules that an ``-X importtime`` report lists."""
    names = {line.rpartition("|")[2].strip() for line in importtime_stderr.splitlines()
             if line.startswith("import time:")}
    return [m for m in WATCHED if m in names]


def source_commit() -> str | None:
    """The commit of the git checkout that holds SRC, as ``git describe``
    gives it with every tag left out ("-dirty" when tracked files differ from
    it), or None outside a checkout."""
    git = subprocess.run(["git", "-C", SRC, "describe", "--always", "--dirty", "--abbrev=40",
                          "--exclude=*"], capture_output=True, text=True)
    return git.stdout.strip() if git.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="one sample per row")
    parser.add_argument("--json", metavar="FILE", help="also write the rows to FILE")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as directory:
        return measure(args, child_env(source_copy(directory)))


def measure(args: argparse.Namespace, env: dict[str, str]) -> int:
    """Runs every row in children with env, prints the table, writes the
    --json file, and returns the exit code."""
    requests, imports = rows()
    table = requests + imports
    backend = run(["-c", "import qspectra; print(qspectra.BACKEND)"], env)[1].stdout.strip()
    count = 1 if args.smoke else ROUNDS
    samples, procs = sample([partial(run, argv, env) for _, argv, _ in table], count)
    for (_, argv, _), runs in zip(table, procs):
        runs.append(run(["-X", "importtime", *argv], env)[1])

    print(f"qspectra from a copy of {SRC} with no __pycache__, backend {backend}; median "
          f"wall and least CPU ms over {count} sample(s) per row, no bytecode written")
    width = max(len(name) for name, _, _ in table)
    header = (f"{'row':<{width}} {'exit':>4} {'wall ms':>9} {'CPU ms':>9} {'stdout':>7}"
              f"  loads of {', '.join(WATCHED)}")
    print(header)
    print("-" * len(header))
    failed, records = False, []
    for i, (name, _, code) in enumerate(table):
        codes, same = {p.returncode for p in procs[i]}, len({p.stdout for p in procs[i]}) == 1
        failed |= not (codes == {code} and same)
        cells, text = clocks(samples[i])
        loads = loaded(procs[i][-1].stderr)
        records.append({"name": name, "exit": sorted(codes), **cells, "loads": loads})
        print(f"{name:<{width}} {str(code) if codes == {code} else 'NO':>4}{text}"
              f" {'same' if same else 'DIFFER':>7}  {' '.join(loads) or '-'}")
        if i == len(requests) - 1:
            cells, text = clocks(np.sum(samples[:i + 1], axis=0))
            records.append({"name": f"cycle ({len(requests)} requests)", **cells})
            print(f"{records[-1]['name']:<{width}} {'':>4}{text}")
    write_json(args.json, backend, records, samples=count)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
