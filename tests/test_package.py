"""The package surface, exported lazily, the command-line paths that must
run without numpy: `family`, refused input, usage errors and --help, and the
solving commands, which load no dataclasses or fractions; the process entry
point, the reference cycles it relies on the library not making, and where
a benchmark run writes its results."""

import ast
import gc
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qspectra
from qspectra import bounds, families_verify, graph_core, reports, spectral, tolerances
from qspectra import cli
from qspectra.cli import main

MODULES = (graph_core, spectral, bounds, families_verify, reports)
ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def fresh_python(code: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          **kwargs)


# -- package surface -------------------------------------------------------------------


def test_all_is_the_modules_all_in_order():
    names = [n for m in MODULES for n in m.__all__]
    assert qspectra.__all__ == ["__version__", *names]
    assert len(set(qspectra.__all__)) == len(qspectra.__all__)


def test_every_public_name_is_its_module_attribute():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(qspectra, name) is getattr(m, name), name


def test_star_import_fills_a_fresh_namespace():
    namespace = {}
    exec("from qspectra import *", namespace)
    for name in qspectra.__all__:
        assert namespace[name] is getattr(qspectra, name), name


def test_names_and_submodules_resolve_after_a_bare_import():
    proc = fresh_python("import qspectra; print(qspectra.BACKEND, qspectra.MAX_ORDER, "
                        "qspectra.graph_core.MAX_ORDER, qspectra.graph_core.render_json "
                        "is qspectra.render_json)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [spectral.BACKEND, "1024", "1024", "True"]


def test_the_benchmark_imports_resolve():
    # the benchmark's worker imports these modules in every mode, so a name
    # they import that the package lost fails every benchmark run
    imported = set()
    for source in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(source.read_text(), str(source))
        # an import under `try: ... except ImportError` may fail (the
        # compiled kernel, when it is not built)
        optional = {id(node) for t in ast.walk(tree) if isinstance(t, ast.Try)
                    and any(isinstance(h.type, ast.Name) and h.type.id == "ImportError"
                            for h in t.handlers)
                    for statement in t.body for node in ast.walk(statement)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module == "qspectra"
                    and id(node) not in optional):
                imported.update(alias.name for alias in node.names)
    assert {"energies", "gamma_sequence", "degree_stats", "spectral"} <= imported
    assert [name for name in sorted(imported) if not hasattr(qspectra, name)] == []
    # and the attributes the benchmark patches or calls through the modules
    assert callable(spectral.symmetric_eigenvalues)
    assert callable(tolerances.scale) and callable(tolerances.tight_tol)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qspectra.no_such_name
    assert not hasattr(qspectra, "_no_such_name")
    assert "render_json" in dir(qspectra)


# -- numpy-free command-line paths ---------------------------------------------------------


WITHOUT_NUMPY = ("import sys\n"
                 "sys.modules['numpy'] = None\n"
                 "from qspectra.cli import main\n"
                 "sys.exit(main({argv!r}))\n")


def test_cli_import_loads_no_numpy():
    proc = fresh_python("import sys, qspectra.cli; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
    proc = fresh_python("import sys; sys.modules['numpy'] = None; import qspectra.cli")
    assert proc.returncode == 0, proc.stderr


COLD_PATH_SKIPS = ("numpy", "dataclasses", "fractions")


def test_cli_import_and_family_load_neither_dataclasses_nor_fractions():
    # the records are named tuples and degree_stats imports Fraction itself,
    # so the numpy-free path generates no dataclass code on a cold start
    proc = fresh_python(
        "import sys\n"
        f"skips = {COLD_PATH_SKIPS!r}\n"
        "import qspectra.cli\n"
        "print([m for m in skips if m in sys.modules])\n"
        "code = qspectra.cli.main(['family', 'crown', '3', '--json'])\n"
        "print(code, [m for m in skips if m in sys.modules])\n")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "0 []")


LAZY = ("qspectra.families_verify", "importlib.resources")


def test_solving_commands_load_neither_dataclasses_nor_fractions():
    # GraphFacts and FactsBatch are plain classes, so a command that solves
    # loads numpy alone of the three. Of the LAZY modules, analyze and the
    # tables load families_verify and the tables alone importlib.resources.
    # A site module may import importlib.resources before qspectra runs, so
    # the test names the LAZY modules that main adds to sys.modules.
    for argv, lazy in ((["bounds", "--graph6", "Bw"], set()),
                       (["verify", "4"], set()),
                       (["analyze", "--family", "prism", "5"], {LAZY[0]}),
                       (["table1", "--json"], set(LAZY))):
        proc = fresh_python(
            "import contextlib, io, sys\n"
            "from qspectra.cli import main\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            f"print(code, [m for m in {COLD_PATH_SKIPS!r} if m in sys.modules])\n"
            f"print(sorted(before.intersection({LAZY!r})))\n"
            f"print(sorted(set(sys.modules).difference(before).intersection({LAZY!r})))\n")
        assert proc.returncode == 0, proc.stderr
        skips, preloaded, added = proc.stdout.splitlines()
        assert skips == "0 ['numpy']", argv
        assert added == repr(sorted(lazy.difference(ast.literal_eval(preloaded)))), argv


@pytest.mark.parametrize("argv, code", [
    (["family", "crown", "3", "--json"], 0),
    (["bounds", "--graph6", "Gxx", "--json"], 2),             # truncated graph6
    (["analyze", "--family", "complete", "1025"], 2),         # above the order cap
    (["analyze", "--family", "cycle", "2"], 1),               # bad family parameter
    (["verify", "6", "--sample", "50", "--json"], 1),         # sample without seed
    (["analyze"], 1),                                         # no graph input
], ids=["family", "truncated", "over-cap", "bad-family", "sample-without-seed", "usage"])
def test_cli_runs_without_numpy_as_in_process(argv, code, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")     # one usage-line width for both runs
    try:
        in_process = main(argv)
    except SystemExit as exc:
        in_process = exc.code
    out, err = capsys.readouterr()
    proc = fresh_python(WITHOUT_NUMPY.format(argv=argv))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert in_process == code


def test_cli_help_runs_without_numpy():
    proc = fresh_python(WITHOUT_NUMPY.format(argv=["--help"]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: qspectra")


# -- the process entry point ------------------------------------------------------------


@pytest.fixture
def made(monkeypatch):
    """The calls of gc.disable, main and gc.freeze that cli.run makes, in
    order, with the two gc calls patched so that no test switches off the
    collector of the session or freezes it."""
    made = []
    monkeypatch.setattr(gc, "disable", lambda: made.append("disable"))
    monkeypatch.setattr(gc, "freeze", lambda: made.append("freeze"))
    return made


@pytest.mark.parametrize("code", [0, 2, 3, 141])
def test_run_freezes_once_after_main_and_exits_with_its_status(made, monkeypatch, code):
    monkeypatch.setattr(cli, "main", lambda: made.append("main") or code)
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == code
    assert made == ["disable", "main", "freeze"]


def test_an_exception_from_main_escapes_run_without_a_freeze(made, monkeypatch):
    def failing_main():
        made.append("main")
        raise RuntimeError("from main")

    monkeypatch.setattr(cli, "main", failing_main)
    with pytest.raises(RuntimeError, match="from main"):
        cli.run()
    assert made == ["disable", "main"]


def test_the_solving_paths_make_no_reference_cycles():
    # cli.run keeps the cyclic collector off for the whole run, which leaves
    # no garbage behind only while the library's solving paths make no
    # reference cycles. render_json is left out: the standard library's
    # indenting JSON encoder makes a few cycles per call. So is verify's
    # --workers pool: multiprocessing makes a few once per run.
    g = graph_core.random_graph(40, 0.3, random.Random(5))
    calls = {
        "verify 5": lambda: reports.verify_exhaustive(5),
        "verify 7 sample": lambda: reports.verify_exhaustive(7, sample=3000, seed=2),
        "table1": reports.reproduce_table1,
        "table2": reports.reproduce_table2,
        "analyze": lambda: reports.analyze_report(g),
        "bounds": lambda: bounds.all_bounds(g),
    }
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        left = {}
        for name, call in calls.items():
            call()
            left[name] = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert left == dict.fromkeys(calls, 0)


def test_the_console_script_calls_run():
    # read as text: Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert scripts is not None
    assert scripts.group(1).split() == ["qspectra", "=", '"qspectra.cli:run"']


# -- benchmark results ---------------------------------------------------------------------


def test_only_a_full_benchmark_run_writes_the_tracked_results(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    import bench_all

    assert bench_all.results_path("python", False, None) == str(ROOT / "BENCH_python.json")
    smoke = Path(bench_all.results_path("compiled", True, None))
    assert smoke.name == "BENCH_compiled.json"
    assert smoke.parent.parent == tmp_path and list(smoke.parent.iterdir()) == []
    for smoke_run in (False, True):
        assert bench_all.results_path("python", smoke_run, "out.json") == "out.json"
