"""Command-line interface.

Subcommands: analyze, family, bounds, table1, table2, verify. Exit codes:
0 success; 1 usage error; 2 input parse error or a graph above the order
cap (qspectra.MAX_ORDER); 3 a violated bound, a failed spectral check
(analyze and verify), a table mismatch, or an eigensolve that did not
converge, with analyze and bounds naming the failures on stderr; 141
(128 + SIGPIPE) when stdout is a pipe whose reader has closed it, which
ends the command quietly. Text output prints values to four decimals
(banker's rounding); --json emits the canonical sorted-key rendering.

``run()`` is the process entry point, which the ``qspectra`` console
script and ``python -m qspectra.cli`` call. ``main(argv)`` is the
in-process one: it returns the exit code and neither exits nor touches the
collector.

At top level this module imports only graph_core, which loads none of
numpy, dataclasses and fractions. Each command imports the library modules
it runs after its input has been parsed and checked against the order cap,
so ``family``, refused input, usage errors and ``--help`` load none of
them.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .graph_core import (MAX_ORDER, Graph, build_family, emit_edgelist, emit_graph6,
                         parse_edgelist, parse_graph6, record_dict, render_json)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VIOLATIONS = 3


class ParseInputError(ValueError):
    """Graph input the program refuses: malformed graph6 text or edge-list
    file, or a graph above the order cap."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this interface reserves 2
    # for input parse errors, so usage errors are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_graph_input(p: _Parser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph6", metavar="TEXT",
                       help="graph in graph6 encoding")
    group.add_argument("--edgelist", metavar="FILE",
                       help="edge-list file ('-' for stdin): first a vertex "
                            "count line, then one 'u v' pair per line")
    group.add_argument("--family", nargs="+", metavar=("KIND", "PARAM"),
                       help="construct a named family, e.g. --family prism 5")


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise ParseInputError(f"graph has {n} vertices; the dense solver "
                              f"accepts at most {MAX_ORDER}")


def _graph_from_args(args) -> Graph:
    """The input graph. A family or an edge list above the order cap is
    refused before it is built."""
    if args.graph6 is not None:
        try:
            g = parse_graph6(args.graph6)
        except ValueError as exc:
            raise ParseInputError(str(exc)) from exc
        _check_order(g.n)
        return g
    if args.edgelist is not None:
        try:
            if args.edgelist == "-":
                text = sys.stdin.read()
            else:
                with open(args.edgelist, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseInputError(f"cannot read {args.edgelist}: {exc}") from exc
        try:
            return parse_edgelist(text, check_order=_check_order)
        except ValueError as exc:   # _check_order's ParseInputError too, same text
            raise ParseInputError(str(exc)) from exc
    kind, *params = args.family
    # a ValueError here is a usage error, and _check_order's a parse error
    return build_family(kind, params, check_order=_check_order)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _name_failures(ids: list[str]) -> None:
    """Name the failures behind exit 3 on one stderr line."""
    if ids:
        print(f"qspectra: verification failed: {', '.join(ids)}", file=sys.stderr)


def _status(ok: bool, unconverged: tuple[str, ...]) -> int:
    """Exit status of a command that has printed its results: 3 when a check
    failed or an eigensolve it read did not converge, 0 otherwise. The
    unconverged solves are named on one stderr line."""
    if unconverged:
        print(f"qspectra: eigensolve did not converge: {', '.join(unconverged)}",
              file=sys.stderr)
    return EXIT_OK if ok and not unconverged else EXIT_VIOLATIONS


def _print_grid(headers: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    print(line(headers))
    print(line(["-" * w for w in widths]))
    for row in rows:
        print(line(row))


# -- subcommands ----------------------------------------------------------------------

def analyze_command(args) -> int:
    g = _graph_from_args(args)
    from .reports import analyze_report, batch_verdict
    from .spectral import GraphFacts
    f = GraphFacts(g)
    report = analyze_report(f)
    violated, failures = batch_verdict(f.batch)
    if args.json:
        sys.stdout.write(render_json(report))
    else:
        _print_analysis(report)
    # the unconverged line of _status names solver:not_converged itself
    _name_failures([bid for _, bid, _ in violated]
                   + [cid for _, cid in failures if cid != "solver:not_converged"])
    return _status(not violated and not failures, f.unconverged())


def _print_analysis(report) -> None:
    gr, st, sp = report["graph"], report["structure"], report["spectra"]
    print(f"graph: n={gr['n']} m={gr['m']} graph6={gr['graph6']}")
    ds = report["degree_stats"]
    print(f"degrees: min={ds['min_degree']} max={ds['max_degree']} "
          f"average={_fmt(ds['average_degree'])} zagreb_m1={ds['zagreb_m1']}")
    shape = "regular" if st["is_regular"] else "irregular"
    if st["is_regular"]:
        shape += f"({st['regularity_degree']})"
    print(f"structure: {'connected' if st['is_connected'] else 'disconnected'} "
          f"{shape} {'bipartite' if st['is_bipartite'] else 'non-bipartite'} "
          f"components={st['component_count']}")
    solver = sp["signless_laplacian"]["solver"]
    print(f"solver: backend={solver['backend']} sweeps={solver['sweeps']} "
          f"converged={_fmt(solver['converged'])} "
          f"error_bound={solver['error_bound']:.3e}")
    for key, tag in (("adjacency", "A"), ("laplacian", "L"),
                     ("signless_laplacian", "Q")):
        vals = " ".join(_fmt(v) for v in sp[key]["values"])
        print(f"spectrum[{tag}]: {vals}")
    gam = report["gamma"]
    print(f"gamma: {' '.join(_fmt(v) for v in gam['values'])} "
          f"(mean={_fmt(gam['mean'])} min_is_zero={_fmt(gam['min_is_zero'])})")
    en = report["energies"]
    print(f"energies: E={_fmt(en['adjacency_energy'])} "
          f"LE={_fmt(en['laplacian_energy'])} "
          f"QE={_fmt(en['signless_laplacian_energy'])}")
    bad = sum(c["holds"] is False or c["consistent"] is False for c in report["lemma_checks"])
    print(f"lemma checks: {len(report['lemma_checks'])} run, "
          f"{'all hold' if not bad else f'{bad} FAILED'}")
    pat = report["q_pattern"]
    if pat["pattern_found"]:
        print(f"q-pattern: {pat['complete_copies']} complete + "
              f"{pat['crown_copies']} crown copies at degree {pat['degree']} "
              f"(structure verified: {_fmt(pat['structure_verified'])})")
    else:
        print(f"q-pattern: none ({pat['reason']})")
    srg = report["srg"]
    if srg["is_srg"]:
        print(f"srg: yes degree={srg['degree']} adjacent_common="
              f"{srg['adjacent_common']} nonadjacent_common="
              f"{srg['nonadjacent_common']} equal_counts={_fmt(srg['is_S_nr'])}")
    else:
        print(f"srg: no ({srg['reason']})")
    _print_bounds_grid(report["bounds"])


def _print_bounds_grid(bound_dicts) -> None:
    headers = ["bound", "dir", "value", "gap", "tight", "verdict"]
    rows = []
    for b in bound_dicts:
        if b["applicable"]:
            d = b["diagnosis"]
            rows.append([b["bound_id"], b["direction"], _fmt(b["value"]),
                         _fmt(b["gap"]), _fmt(d["tight"]), d["verdict"]])
        else:
            rows.append([b["bound_id"], b["direction"], "-", "-", "-",
                         f"n/a: {b['reason']}"])
    _print_grid(headers, rows)


def family_command(args) -> int:
    kind, *params = args.spec
    g = build_family(kind, params, check_order=_check_order)
    if args.json:
        payload = {
            "kind": kind,
            "params": [str(p) for p in params],
            "n": g.n,
            "m": g.m,
            "graph6": emit_graph6(g),
            "degrees": list(g.degrees),
            "edges": [list(e) for e in g.edges],
        }
        sys.stdout.write(render_json(payload))
        return EXIT_OK
    print(emit_graph6(g))
    if args.edges:
        sys.stdout.write(emit_edgelist(g))
    return EXIT_OK


def bounds_command(args) -> int:
    g = _graph_from_args(args)
    from .bounds import all_bounds, violations
    from .spectral import GraphFacts
    f = GraphFacts(g)
    results = all_bounds(f)
    qe = f.qe
    if args.json:
        payload = {
            "graph6": emit_graph6(g),
            "signless_laplacian_energy": qe,
            "bounds": [record_dict(r) for r in results],
        }
        sys.stdout.write(render_json(payload))
    else:
        print(f"QE = {_fmt(qe)} (n={g.n}, m={g.m}, graph6={emit_graph6(g)})")
        _print_bounds_grid([record_dict(r) for r in results])
    violated = violations(f)
    _name_failures([bid for bid, _ in violated])
    return _status(not violated, f.unconverged())


def table_command(args) -> int:
    from . import reports
    report = getattr(reports, f"reproduce_{args.command}")()
    if args.json:
        sys.stdout.write(render_json(reports.table_report_dict(report)))
        return _status(report.ok, report.unconverged)
    print(report.title)
    headers = ["row"] + [f"{c}" for c in report.column_names]
    rows = []
    for row in report.rows:
        rows.append([row.label] + [_fmt(row.columns[c]) for c in report.column_names])
    _print_grid(headers, rows)
    print(f"max deviation from reference: {report.max_deviation:.2e} "
          f"(tolerance {report.tolerance:.0e}) -> {'ok' if report.ok else 'MISMATCH'}")
    return _status(report.ok, report.unconverged)


def verify_command(args) -> int:
    # a sample is drawn from an explicit seed, so that its output is reproducible
    if (args.sample is None) != (args.seed is None):
        raise ValueError("--sample and --seed must be given together")
    from .reports import verify_exhaustive, verify_report
    from .spectral import BACKEND
    summary = verify_exhaustive(args.max_n, workers=args.workers,
                                sample=args.sample, seed=args.seed)
    if args.json:
        sys.stdout.write(render_json(verify_report(summary)))
    else:
        scope = (f"sample of {summary.graphs_checked}" if args.sample
                 else f"all {summary.graphs_checked}")
        print(f"checked {scope} labeled graphs on {summary.max_n} vertices "
              f"in {summary.wall_time:.2f}s (backend={BACKEND})")
        print(f"bound violations: {len(summary.violations)}")
        for g6, bid, gap in summary.violations[:20]:
            print(f"  {bid} on {g6}: gap {gap:.3e}")
        print(f"lemma failures: {len(summary.lemma_failures)}")
        for g6, cid in summary.lemma_failures[:20]:
            print(f"  {cid} on {g6}")
        print("result: ok" if summary.ok else "result: FAILED")
    return EXIT_OK if summary.ok else EXIT_VIOLATIONS


# -- parser ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="qspectra",
                     description="Signless Laplacian spectra, energies, and "
                                 "bound verification for simple graphs.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("analyze", help="full spectral report for one graph")
    _add_graph_input(p)
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    p.set_defaults(func=analyze_command)

    p = sub.add_parser("family", help="construct a named graph family")
    p.add_argument("spec", nargs="+", metavar="KIND [PARAM...]",
                   help="family kind and integer parameters")
    p.add_argument("--edges", action="store_true",
                   help="also print the edge list")
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    p.set_defaults(func=family_command)

    p = sub.add_parser("bounds", help="evaluate the full bound catalog")
    _add_graph_input(p)
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    p.set_defaults(func=bounds_command)

    for name, side in (("table1", "lower"), ("table2", "upper")):
        p = sub.add_parser(name, help=f"reproduce the {side}-bound reference table")
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        p.set_defaults(func=table_command)

    p = sub.add_parser("verify", help="exhaustively verify bounds and lemmas")
    p.add_argument("max_n", type=int,
                   help="vertex count (1..7); all labeled graphs on exactly "
                        "this many vertices")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default 1); at most one per job of "
                        "1024 graphs and one per usable CPU")
    p.add_argument("--sample", type=int, default=None,
                   help="check a uniform sample of this size instead of all "
                        "(needs --seed)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for --sample (needs --sample)")
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    p.set_defaults(func=verify_command)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a closed pipe shows on the write that reaches it, here at the latest
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141    # 128 + SIGPIPE, the status of a process that SIGPIPE ended
    except ParseInputError as exc:
        print(f"qspectra: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"qspectra: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Runs main with the cyclic collector off and exits with its status,
    every live object frozen first so that shutdown collects none of them.
    This is safe because the solving paths make no reference cycles (a test
    checks). An exception from main escapes unfrozen."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
