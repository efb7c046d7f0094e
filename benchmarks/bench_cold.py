"""Time the CLI's cold start: one fresh ``python -m qspectra.cli`` process per
request kind of the cli-cold benchmark mix, and the bare imports of
``qspectra.cli`` and ``qspectra.reports``.

Every process runs with no bytecode written, so each compiles qspectra from
source, with one BLAS thread and no ``QSPECTRA_*`` variable, on the qspectra
this script imports (its source tree goes first on the child's PYTHONPATH).
Each of ROUNDS (15) rounds runs every row once, in row order. A row gives the
median wall time and the least CPU time (user plus system, from
``getrusage(RUSAGE_CHILDREN)`` deltas) of its process over the rounds; the
``cycle`` row sums the seven request rows, one of each kind, as one cli-cold
cycle runs them. One more run of each row under ``-X importtime`` names which
of numpy, dataclasses and fractions it loaded. Exits 1 when a process exits
with another code than its row expects, or when a row's stdout differs
between runs. ``--json FILE`` also writes the rows to FILE, each with its
name, exit codes, median wall ms, least CPU ms and loads, next to the
backend and the git commit of the source tree ("-dirty" when its tracked
files differ from it, null outside a checkout).

Usage: PYTHONPATH=src python3 benchmarks/bench_cold.py [--smoke] [--json FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import qspectra
from qspectra.graph_core import emit_graph6, random_graph

ROUNDS = 15         # runs per row; --smoke runs one
WATCHED = ("numpy", "dataclasses", "fractions")
SRC = str(Path(qspectra.__file__).resolve().parent.parent)


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


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QSPECTRA_")}
    path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env.update(PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run(argv: list[str], env: dict[str, str]) -> tuple[float, float, subprocess.CompletedProcess]:
    """Wall seconds, CPU seconds and the completed process of one child."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=600)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, proc


def loaded(importtime_stderr: str) -> list[str]:
    """The watched modules that an ``-X importtime`` report lists."""
    names = {line.rpartition("|")[2].strip() for line in importtime_stderr.splitlines()
             if line.startswith("import time:")}
    return [m for m in WATCHED if m in names]


def source_commit() -> str | None:
    """The commit of the git checkout that holds SRC, as ``git describe``
    gives it with every tag left out, or None outside a checkout."""
    git = subprocess.run(["git", "-C", SRC, "describe", "--always", "--dirty", "--abbrev=40",
                          "--exclude=*"], capture_output=True, text=True)
    return git.stdout.strip() if git.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="one run per row")
    parser.add_argument("--json", metavar="FILE", help="also write the rows to FILE")
    args = parser.parse_args()
    requests, imports = rows()
    env, table = child_env(), requests + imports
    backend = subprocess.run([sys.executable, "-c", "import qspectra; print(qspectra.BACKEND)"],
                             env=env, capture_output=True, text=True, check=True).stdout.strip()
    walls = [[] for _ in table]
    cpus = [[] for _ in table]
    outputs = [set() for _ in table]
    codes = [set() for _ in table]
    for _ in range(1 if args.smoke else ROUNDS):
        for i, (_, argv, _) in enumerate(table):
            wall, cpu, proc = run(argv, env)
            walls[i].append(wall)
            cpus[i].append(cpu)
            outputs[i].add(proc.stdout)
            codes[i].add(proc.returncode)
    loads = []
    for i, (_, argv, _) in enumerate(table):
        _, _, proc = run(["-X", "importtime", *argv], env)
        outputs[i].add(proc.stdout)
        codes[i].add(proc.returncode)
        loads.append(loaded(proc.stderr))

    print(f"qspectra from {SRC}, backend {backend}; median wall and least CPU ms "
          f"over {len(walls[0])} run(s) per row, no bytecode written")
    width = max(len(name) for name, _, _ in table)
    header = (f"{'row':<{width}} {'exit':>4} {'wall ms':>9} {'CPU ms':>9} {'stdout':>7}"
              f"  loads of {', '.join(WATCHED)}")
    print(header)
    print("-" * len(header))
    failed, records = False, []
    for i, (name, _, code) in enumerate(table):
        ok_code, same = codes[i] == {code}, len(outputs[i]) == 1
        failed |= not (ok_code and same)
        exit_text = str(code) if ok_code else "NO"
        records.append({"name": name, "exit": sorted(codes[i]),
                        "wall_ms": round(statistics.median(walls[i]) * 1e3, 3),
                        "cpu_ms": round(min(cpus[i]) * 1e3, 3), "loads": loads[i]})
        print(f"{name:<{width}} {exit_text:>4} {records[-1]['wall_ms']:>9.1f}"
              f" {records[-1]['cpu_ms']:>9.1f} {'same' if same else 'DIFFER':>7}"
              f"  {' '.join(loads[i]) or '-'}")
        if i == len(requests) - 1:
            k = len(requests)
            records.append({"name": f"cycle ({k} requests)",
                            "wall_ms": sum(r["wall_ms"] for r in records[:k]),
                            "cpu_ms": sum(r["cpu_ms"] for r in records[:k])})
            print(f"{records[-1]['name']:<{width}} {'':>4} {records[-1]['wall_ms']:>9.1f}"
                  f" {records[-1]['cpu_ms']:>9.1f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump({"backend": backend, "commit": source_commit(), "source": SRC,
                       "runs_per_row": len(walls[0]), "rows": records}, out, indent=2)
            out.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
