"""Run every benchmark harness on the active backend and write one results
file, ``BENCH_<backend>.json`` at the top of the repository.

Copies the source tree of the qspectra it imports to a temporary directory,
leaving out every ``__pycache__`` (``bench_cold.source_copy``), and runs
each harness in a child process that imports qspectra from the copy and
writes no bytecode, with one BLAS thread and no ``QSPECTRA_*`` variable
(``bench_cold.child_env``): ``bench_eigensolver.py``, ``bench_verify.py``,
``bench_graphs.py`` and ``bench_cold.py``, each with ``--json``, then a full
serial ``verify 7 --json`` through the CLI, then ``src_lines.py --json``.
The file holds the machine (CPU model, CPU count, the CPUs this process may
run on, platform), the Python and numpy versions, the backend, the git
commit of the source tree as ``bench_cold.source_commit`` gives it, each
harness's arguments, exit code and rows as the harness wrote them, the
verify run's wall and CPU seconds (``getrusage(RUSAGE_CHILDREN)`` deltas)
and its summary, and the line counts. A harness's own ``commit`` and
``source`` name the temporary copy, so they are left out. Exits 1 when a
harness or the verify run exits with another code than 0 or writes no JSON,
or the verify run is not ok.

``--smoke`` runs each harness in its smoke mode (``bench_eigensolver.py`` on
two small sizes) and ``verify 5`` in place of ``verify 7``; ``--json FILE``
writes the results to FILE in place of ``BENCH_<backend>.json``.

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


def machine() -> dict:
    return {"cpu_model": cpu_model(), "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else None, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def harness(name: str, argv: list[str], env: dict[str, str], directory: str) -> dict:
    """Runs one harness with --json; its exit code and what its JSON holds."""
    out = os.path.join(directory, f"{name}.json")
    wall, cpu, proc = run([str(HERE / f"{name}.py"), *argv, "--json", out], env)
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
                        help="write the results to FILE in place of BENCH_<backend>.json")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as directory:
        env = child_env(source_copy(directory))
        _, _, proc = run(["-c", "import qspectra; print(qspectra.BACKEND)"], env)
        backend = proc.stdout.strip()
        print(f"backend {backend}", flush=True)
        results = {name: harness(name, smoke if args.smoke else [], env, directory)
                   for name, smoke in SMOKE.items()}
        order = 5 if args.smoke else 7
        wall, cpu, proc = run(["-m", "qspectra.cli", "verify", str(order), "--json"], env)
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
    path = args.json or str(HERE.parent / f"BENCH_{backend}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump({"backend": backend, "commit": source_commit(), "machine": machine(),
                   "smoke": args.smoke, "harnesses": results, "verify": verify,
                   "failed": failed}, out, indent=2)
        out.write("\n")
    print(f"wrote {path}" + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
