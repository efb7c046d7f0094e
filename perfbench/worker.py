"""One benchmark process: set a workload up, then, by --mode,

  setup   stop (one more set-up time sample),
  run     measure the workload untraced,
  count   measure it with the call counters installed,
  layers  trace the layers bottom-up on the workload's inputs, then run the
          fixed probes.

Started by run.py in the pinned environment; prints one JSON object as the
last line of its standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from common import BENCH, OUT, WORKLOADS, SpeedProbe, pin_to_one_cpu


def machine_meta() -> dict:
    import numpy
    import qspectra
    from qspectra import spectral
    try:
        from qspectra import _jacobi_cy  # noqa: F401
        compiled = True
    except ImportError:
        compiled = False
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "backend": spectral.BACKEND,
        "compiled_kernel_importable": compiled,
        "qspectra_file": qspectra.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "dont_write_bytecode": sys.dont_write_bytecode,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark process")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="nominal seconds of work in this process")
    parser.add_argument("--mode", required=True, choices=("setup", "run", "count", "layers"))
    parser.add_argument("--t0", type=float, required=True,
                        help="the parent's time.monotonic() just before this process started")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    pin_to_one_cpu()
    out: dict = {"mode": args.mode}
    import layers
    import workloads

    counters = None
    cli_counts = {name: 0 for name in layers.Counters.FIELDS}
    if args.mode == "count":
        counters = layers.Counters()
        counters.install()

    cls = workloads.WORKLOAD_CLASSES[args.workload]
    if cls is workloads.CliCold and args.mode == "count":
        def observe(request, stderr):
            counts = json.loads(stderr.strip().splitlines()[-1])
            for name in cli_counts:
                cli_counts[name] += counts[name]
        wl = cls(args.seed, args.budget, args.smoke, observer=observe,
                 launcher=[sys.executable, str(BENCH / "clicount.py")])
    else:
        wl = cls(args.seed, args.budget, args.smoke)

    if args.mode != "layers":
        wl.setup()
    out["setup_s"] = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode in ("run", "count"):
        if counters:
            counters.reset()
        with SpeedProbe() as probe:
            m = wl.measure(probe)
        out.update(unit_ms=m.unit_ms, unit_raw_ms=m.unit_raw_ms, unit_graphs=m.unit_graphs,
                   latency_per_graph=cls.latency_per_graph,
                   peak_rss_mb=workloads.peak_rss_mb(wl),
                   attempted=m.attempted, failed=m.failed, problems=m.problems)
        if args.mode == "run":
            out["meta"] = machine_meta()
        else:
            counts = counters.as_dict() if cls is not workloads.CliCold else cli_counts
            out["counts"] = layers.count_metrics(counts, sum(m.unit_graphs))
        print(json.dumps(out))
        return 0

    # layers
    tr = layers.Tracer()
    tr.install_solve_span()
    problems: list[str] = []
    verify_self, found = layers.verify_probe(tr, 4 if args.smoke else 5)
    problems += found
    attempted = 1
    graphs = 0
    t0 = time.perf_counter()
    deadline = t0 + args.budget
    for spec in wl.graphs():
        if time.perf_counter() >= deadline:
            break
        found = layers.pipeline_graph(tr, spec)
        if found:
            problems.append(f"{spec}: {'; '.join(found)}")
        graphs += 1
    wall_ms = 1e3 * (time.perf_counter() - t0) / max(graphs, 1)
    attempted += graphs
    metrics = layers.layer_metrics(tr, graphs)
    metrics["reports.verify_self_ms"] = verify_self
    kernel, kernel_detail, n, found = layers.kernel_probe(args.seed, args.smoke)
    metrics.update(kernel)
    attempted += n
    problems += found
    probe_metrics, n, found = layers.process_probes(1 if args.smoke else 3)
    metrics.update(probe_metrics)
    attempted += n
    problems += found
    tr.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    # one problem per failed operation: a pipeline graph, a kernel matrix, a probe
    out.update(graphs=graphs, attempted=attempted, failed=len(problems), problems=problems[:20],
               metrics=metrics, kernel=kernel_detail, pipeline_ms_per_graph=wall_ms)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
