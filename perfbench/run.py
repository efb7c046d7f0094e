"""Pipeline benchmark for qspectra.

Usage:
  python3 perfbench/run.py --workload {verify-small,analyze-mid,cli-cold}
                           --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; qspectra is imported from its src/. Every
measured process is a fresh, single-process interpreter in a pinned
environment (see common.PINNED_ENV).

--trace 0 runs the workload's seeded units (graphs, verify calls or CLI
requests; about S seconds of work) in one fresh process, each unit timed by
common.SpeedProbe, which cancels most of the contention from the machine's
other tenants. setup_s is the median over SETUP_REPEATS set-up-only processes
and the measuring one. It prints the end-to-end metrics; the wall-clock
figures are in the report line.

--trace 1 runs three fresh processes of S/3 seconds each: the untraced
workload, the same workload with call counters wrapped around
spectral.symmetric_eigenvalues and tolerances.scale, and the bottom-up layer
pipeline on the workload's inputs followed by fixed probes. It prints the
per-layer metrics; trace.overhead_pct compares the counted process with the
untraced one. Spans go to .bench_build/perfbench/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it holds the run metadata,
sample counts and any failed checks. --smoke runs tiny sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

from common import (BENCH, ROOT, SRC, WORKLOADS, child_env, median, percentile,
                    tail_percentile)

SETUP_REPEATS = 4

# per-layer metric -> (end-to-end metric it should move, workload it should move it on)
LAYER_TARGETS = {
    "graph_core.build_ms": ("graphs_per_s", "verify-small"),
    "graph_core.structure_ms": ("graphs_per_s", "verify-small"),
    "graph_core.graph6_ms": ("latency_ms_p50", "cli-cold"),
    "spectral.matrix_ms": ("latency_ms_p50", "analyze-mid"),
    "spectral.eigensolve_ms": ("graphs_per_s / latency_ms_p50", "verify-small / analyze-mid"),
    "spectral.kernel_ms.n8": ("latency_ms_p50", "analyze-mid"),
    "spectral.kernel_ms.n16": ("latency_ms_p50", "analyze-mid"),
    "spectral.kernel_ms.n32": ("latency_ms_p50", "analyze-mid"),
    "spectral.kernel_ms.n64": ("latency_ms_p50", "analyze-mid"),
    "spectral.solves_per_graph": ("graphs_per_s", "verify-small, analyze-mid"),
    "spectral.sweeps_mean": ("graphs_per_s", "verify-small"),
    "spectral.rotations": ("graphs_per_s", "verify-small"),
    "spectral.not_converged": ("graphs_per_s", "verify-small"),
    "spectral.lemmas_ms": ("graphs_per_s", "verify-small"),
    "energy.gamma_ms": ("graphs_per_s", "verify-small"),
    "energy.energies_ms": ("graphs_per_s", "verify-small"),
    "bounds.catalog_ms": ("graphs_per_s", "verify-small (not analyze-mid)"),
    "families_verify.classify_ms": ("latency_ms_p50", "analyze-mid"),
    "reports.verify_self_ms": ("graphs_per_s", "verify-small"),
    "reports.analyze_self_ms": ("latency_ms_p50", "analyze-mid, cli-cold"),
    "reports.render_json_ms": ("latency_ms_p50", "analyze-mid, cli-cold"),
    "reports.tables_ms": ("latency_ms_p50", "cli-cold"),
    "tolerances.scale_calls_per_graph": ("graphs_per_s", "verify-small"),
    "cli.import_ms": ("latency_ms_p50, setup_s", "cli-cold"),
    "cli.numpy_import_ms": ("latency_ms_p50, setup_s", "cli-cold"),
    "trace.overhead_pct": ("none: cost of the counters on the real path", "all"),
}

UNITS = {"setup_s": "s", "graphs_per_s": "1/s", "latency_ms_p50": "ms",
         "latency_ms_p90": "ms", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or ".kernel_ms." in name:
        return "ms"
    if name.endswith("_per_graph") or name == "spectral.rotations":
        return "1/graph"
    if name.endswith("_pct"):
        return "%"
    return "count"


class ChildFailed(Exception):
    pass


def spawn(args, mode: str, budget: float, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", repr(budget), "--mode", mode,
           "--t0", repr(t0)]
    if args.smoke:
        cmd.append("--smoke")
    # its own session, so a timeout also stops the CLI requests it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} process timed out") from exc
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"{mode} process exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def source_meta() -> dict:
    files = sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    lines = 0
    for p in files:
        data = p.read_bytes()
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + data)
        if p.suffix in (".py", ".pyx"):
            lines += data.count(b"\n")
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip()
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_pycache_present": any(p.name == "__pycache__" for p in SRC.rglob("__pycache__")),
    }


def end_to_end(run: dict, key: str = "unit_ms") -> dict[str, float]:
    unit_ms, graphs = run[key], run["unit_graphs"]
    if run["latency_per_graph"]:
        latency, weights = [ms / g for ms, g in zip(unit_ms, graphs)], graphs
    else:
        latency, weights = unit_ms, None
    return {
        "graphs_per_s": 1e3 * sum(graphs) / sum(unit_ms),
        "latency_ms_p50": percentile(latency, 50, weights),
        "latency_ms_p90": percentile(latency, 90, weights),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def run_untraced(args, deadline: float) -> tuple[dict, dict]:
    setups = [spawn(args, "setup", args.seconds, deadline)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    run = spawn(args, "run", args.seconds, deadline)
    setups.append(run["setup_s"])
    metrics = {**end_to_end(run), "setup_s": median(setups)}
    samples = sum(run["unit_graphs"]) if run["latency_per_graph"] else len(run["unit_ms"])
    report = {
        "meta": run["meta"],
        "setup_samples_s": setups,
        "latency_samples": samples,
        "latency_tail_percentile_with_10_beyond": tail_percentile(samples),
        "units": len(run["unit_ms"]),
        "wall_clock": end_to_end(run, "unit_raw_ms"),
        "problems": run["problems"],
    }
    return {"attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}, report


def run_traced(args, deadline: float) -> tuple[dict, dict]:
    budget = args.seconds / 3
    base = spawn(args, "run", budget, deadline)
    counted = spawn(args, "count", budget, deadline)
    traced = spawn(args, "layers", budget, deadline)
    base_ms, counted_ms = sum(base["unit_ms"]), sum(counted["unit_ms"])
    metrics = {**traced["metrics"], **counted["counts"],
               "trace.overhead_pct": 100 * (counted_ms / base_ms - 1)}
    report = {
        "meta": base["meta"],
        "layer_targets": LAYER_TARGETS,
        "overhead": {
            "untraced_ms": base_ms,
            "counted_ms": counted_ms,
            "pipeline_ms_per_graph": traced["pipeline_ms_per_graph"],
            "untraced_ms_per_graph": base_ms / sum(base["unit_graphs"]),
        },
        "kernel_ms": traced["kernel"],
        "pipeline_graphs": traced["graphs"],
        "problems": base["problems"] + counted["problems"] + traced["problems"],
    }
    parts = (base, counted, traced)
    result = {"attempted": sum(p["attempted"] for p in parts),
              "failed": sum(p["failed"] for p in parts), "metrics": metrics}
    return result, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark")
    args = parser.parse_args()
    deadline = time.monotonic() + 175
    if not (SRC / "qspectra" / "__init__.py").is_file():
        print(f"perfbench: no qspectra sources under {SRC}", file=sys.stderr)
        return 2
    meta = source_meta()
    try:
        result, report = (run_traced if args.trace else run_untraced)(args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report["meta"].update(meta)
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"perfbench_report": report}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(result["metrics"].items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
