"""Run every benchmark harness on the active backend and write one results
file, ``BENCH_<backend>.json`` at the top of the repository.

Pins itself, and so every child it starts, to the highest CPU it may run on,
as perfbench does. Copies the source tree of the qspectra it imports to a
temporary directory, leaving out every ``__pycache__``
(``bench_cold.source_copy``), and runs each harness in a child process that
imports qspectra from the copy and writes no bytecode, with one BLAS thread
and no ``QSPECTRA_*`` variable (``bench_cold.child_env``):
``bench_eigensolver.py``, ``bench_verify.py``, ``bench_graphs.py`` and
``bench_cold.py``, each with ``--json``, then a full serial ``verify 7
--json`` through the CLI, then ``src_lines.py --json``. The file holds the
machine (CPU model, CPU count, the pinned CPU, platform), the Python and
numpy versions, the backend, the git commit of the source tree as
``bench_cold.source_commit`` gives it, each harness's arguments, exit code
and rows as the harness wrote them, the verify run's wall and CPU seconds
(``getrusage(RUSAGE_CHILDREN)`` deltas) and its summary, and the line
counts. A harness's own ``commit`` and ``source`` name the temporary copy,
so they are left out. Exits 1 when a harness or the verify run exits with
another code than 0 or writes no JSON, or the verify run is not ok.

``--smoke`` runs each harness in its smoke mode (``bench_eigensolver.py`` on
two small sizes) and ``verify 5`` in place of ``verify 7``, and writes
``BENCH_<backend>.json`` in a new temporary directory, so the tracked file
holds full runs only; ``--json FILE`` writes the results to FILE in either
mode (``results_path``).

Usage: PYTHONPATH=src python3 benchmarks/bench_all.py [--smoke] [--json FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_cold import child_env, run, source_commit, source_copy

HERE = Path(__file__).resolve().parent
# each harness, run with its defaults, and its arguments under --smoke
SMOKE = {
    "bench_eigensolver": ["--sizes", "7,16", "--count", "4"],
    "bench_verify": ["--smoke"],
    "bench_graphs": ["--smoke"],
    "bench_cold": ["--smoke"],
}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine(cpu: int) -> dict:
    return {"cpu_model": cpu_model(), "cpu_count": os.cpu_count(), "pinned_cpu": cpu,
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def results_path(backend: str, smoke: bool, named: str | None) -> str:
    """Where the results go: the named file, else a new temporary directory's
    BENCH_<backend>.json for a smoke run, else the tracked one."""
    if named:
        return named
    directory = tempfile.mkdtemp(prefix="bench_all-smoke-") if smoke else str(HERE.parent)
    return os.path.join(directory, f"BENCH_{backend}.json")


def harness(name: str, argv: list[str], env: dict[str, str], directory: str) -> dict:
    """Runs one harness with --json; its exit code and what its JSON holds."""
    out = os.path.join(directory, f"{name}.json")
    (wall, cpu), proc = run([str(HERE / f"{name}.py"), *argv, "--json", out], env)
    print(f"{name} {' '.join(argv)}: exit {proc.returncode}, {wall:.1f} s", flush=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    try:
        with open(out, encoding="utf-8") as written:
            report = json.load(written)
    except (OSError, ValueError) as exc:
        report = {"error": f"no JSON: {exc}"}
    for key in ("commit", "source"):
        report.pop(key, None)
    return {"argv": argv, "exit": proc.returncode, "wall_s": round(wall, 3),
            "cpu_s": round(cpu, 3), **report}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="each harness's smoke mode, and verify 5 in place of verify 7")
    parser.add_argument("--json", metavar="FILE",
                        help="write the results to FILE in place of BENCH_<backend>.json "
                             "(a smoke run's goes to a temporary directory)")
    args = parser.parse_args()
    pinned = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned})
    with tempfile.TemporaryDirectory() as directory:
        env = child_env(source_copy(directory))
        _, proc = run(["-c", "import qspectra; print(qspectra.BACKEND)"], env)
        backend = proc.stdout.strip()
        print(f"backend {backend}", flush=True)
        results = {name: harness(name, smoke if args.smoke else [], env, directory)
                   for name, smoke in SMOKE.items()}
        order = 5 if args.smoke else 7
        (wall, cpu), proc = run(["-m", "qspectra.cli", "verify", str(order), "--json"], env)
        print(f"verify {order}: exit {proc.returncode}, {wall:.1f} s wall, {cpu:.1f} s CPU",
              flush=True)
        try:
            summary = json.loads(proc.stdout)
            summary = {key: summary[key] for key in ("ok", "graphs_checked", "max_n")}
        except (ValueError, KeyError):
            summary = {"error": proc.stderr[-2000:]}
        verify = {"argv": ["verify", str(order), "--json"], "exit": proc.returncode,
                  "wall_s": round(wall, 3), "cpu_s": round(cpu, 3), **summary}
        results["src_lines"] = harness("src_lines", [], env, directory)
    failed = [name for name, r in results.items() if r["exit"] != 0 or "error" in r]
    if verify["exit"] != 0 or not verify.get("ok"):
        failed.append(f"verify {order}")
    # the commit is read before the file is opened: BENCH_<backend>.json is tracked
    report = {"backend": backend, "commit": source_commit(), "machine": machine(pinned),
              "smoke": args.smoke, "harnesses": results, "verify": verify, "failed": failed}
    path = results_path(backend, args.smoke, args.json)
    with open(path, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2)
        out.write("\n")
    print(f"wrote {path}" + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
