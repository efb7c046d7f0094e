"""Eigensolver correctness against the numpy reference, matrix builders,
eigenvalue grouping, structural lemma checks, and product-spectrum identities.
"""

import importlib.util
import math
import random
import shutil
import subprocess
import sysconfig
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from qspectra import spectral
from qspectra.graph_core import (
    Graph,
    complete,
    complete_bipartite,
    crown,
    cycle,
    disjoint_union,
    graph_from_mask,
    matching,
    path,
    prism,
    random_graph,
    star,
    structure,
)
from qspectra.spectral import (
    BACKEND,
    FactsBatch,
    GraphFacts,
    a_spectrum,
    adjacency_matrix,
    check_spectral_lemmas,
    l_spectrum,
    laplacian_matrix,
    product_spectrum_check,
    q_spectrum,
    signless_laplacian_matrix,
    symmetric_eigenvalues,
    zero_multiplicity,
)


def test_backend_reported():
    assert BACKEND in ("compiled", "python")
    _, report = symmetric_eigenvalues(np.eye(3))
    assert report.backend == BACKEND


# -- matrix builders -------------------------------------------------------------


def test_adjacency_matrix_entries():
    g = path(3)
    a = adjacency_matrix(g)
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.float64)
    assert np.array_equal(a, expected)


def test_laplacian_row_sums_vanish():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng.randrange(1, 10), rng.random(), rng)
        lap = laplacian_matrix(g)
        assert np.array_equal(lap.sum(axis=1), np.zeros(g.n))


def test_signless_laplacian_is_degree_plus_adjacency():
    rng = random.Random(8)
    for _ in range(20):
        g = random_graph(rng.randrange(1, 10), rng.random(), rng)
        q = signless_laplacian_matrix(g)
        d = np.diag([float(x) for x in g.degrees])
        assert np.array_equal(q, d + adjacency_matrix(g))


# -- solver ----------------------------------------------------------------------


def test_solver_rejects_bad_inputs():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_solver_leaves_input_unchanged():
    mat = np.array([[2.0, 1.0], [1.0, 2.0]])
    copy = mat.copy()
    symmetric_eigenvalues(mat)
    assert np.array_equal(mat, copy)


def test_diagonal_matrix_converges_without_sweeps():
    values, report = symmetric_eigenvalues(np.diag([3.0, -1.0, 5.0]))
    assert report.sweeps == 0
    assert report.converged
    assert list(values) == [5.0, 3.0, -1.0]


def test_one_by_one():
    values, report = symmetric_eigenvalues(np.array([[4.0]]))
    assert list(values) == [4.0]
    assert report.converged


def test_eigenvalues_match_numpy_on_random_graphs():
    rng = random.Random(20260819)
    for _ in range(40):
        n = rng.randrange(1, 13)
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        for build in (adjacency_matrix, laplacian_matrix, signless_laplacian_matrix):
            mat = build(g)
            values, report = symmetric_eigenvalues(mat)
            assert report.converged
            reference = np.sort(np.linalg.eigvalsh(mat))[::-1]
            assert np.max(np.abs(values - reference)) <= 1e-9 * max(1.0, float(n))


def test_eigenvalues_match_numpy_on_dense_symmetric():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(2, 16))
        raw = rng.normal(size=(n, n))
        mat = (raw + raw.T) / 2.0
        values, report = symmetric_eigenvalues(mat)
        assert report.converged
        reference = np.sort(np.linalg.eigvalsh(mat))[::-1]
        assert np.max(np.abs(values - reference)) <= 1e-10 * n


def test_error_bound_covers_termination():
    mat = signless_laplacian_matrix(prism(5))
    _, report = symmetric_eigenvalues(mat)
    assert report.error_bound == report.off_frobenius
    # the kernel stops once the off-diagonal norm is below 1e-12 ||Q||_F
    assert report.off_frobenius <= 1e-12 * float(np.linalg.norm(mat))


def test_values_descending():
    rng = random.Random(3)
    for _ in range(10):
        g = random_graph(8, 0.5, rng)
        values = q_spectrum(g).values
        assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))


# -- grouping and spectra --------------------------------------------------------


def test_complete_graph_q_groups():
    for n in range(2, 9):
        groups = q_spectrum(complete(n)).groups
        assert len(groups) == 2
        (top, top_mult), (rest, rest_mult) = groups
        assert top_mult == 1 and rest_mult == n - 1
        assert abs(top - (2 * n - 2)) <= 1e-9
        assert abs(rest - (n - 2)) <= 1e-9


def test_crown_q_groups():
    for r in (2, 3, 4):
        groups = q_spectrum(crown(r)).groups
        reps = {round(rep, 6): mult for rep, mult in groups}
        assert reps == {float(2 * r): 1, float(r + 1): r, float(r - 1): r, 0.0: 1}


def test_star_q_spectrum_closed_form():
    for n in range(3, 10):
        values = q_spectrum(star(n)).values
        expected = sorted([float(n)] + [1.0] * (n - 2) + [0.0], reverse=True)
        assert max(abs(a - b) for a, b in zip(values, expected)) <= 1e-9


def test_cycle_q_spectrum_closed_form():
    for n in range(3, 12):
        values = sorted(q_spectrum(cycle(n)).values)
        expected = sorted(2 + 2 * math.cos(2 * math.pi * k / n) for k in range(n))
        assert max(abs(a - b) for a, b in zip(values, expected)) <= 1e-9


def test_adjacency_and_laplacian_spectra_of_complete():
    n = 6
    a = a_spectrum(complete(n)).values
    assert abs(a[0] - (n - 1)) <= 1e-9
    assert all(abs(v + 1) <= 1e-9 for v in a[1:])
    lap = l_spectrum(complete(n)).values
    assert all(abs(v - n) <= 1e-9 for v in lap[:-1])
    assert abs(lap[-1]) <= 1e-9


def test_spectrum_radius():
    spec = a_spectrum(matching(2))
    assert spec.radius == 1.0
    spec = q_spectrum(complete(4))
    assert abs(spec.radius - 6.0) <= 1e-9


def test_zero_multiplicity_counts_bipartite_components():
    cases = [
        complete(4),
        cycle(4),
        cycle(5),
        cycle(6),
        star(5),
        disjoint_union(cycle(4), cycle(5)),
        disjoint_union(star(3), star(3), complete(5)),
        matching(4),
        Graph(3, ()),
    ]
    for g in cases:
        assert zero_multiplicity(q_spectrum(g)) == structure(g).bipartite_component_count


def test_zero_multiplicity_random():
    rng = random.Random(17)
    for _ in range(60):
        g = random_graph(rng.randrange(1, 11), rng.choice([0.15, 0.4, 0.7]), rng)
        assert zero_multiplicity(q_spectrum(g)) == structure(g).bipartite_component_count


# -- lemma checks ----------------------------------------------------------------


def test_lemma_checks_all_pass_on_random_graphs():
    rng = random.Random(31)
    for _ in range(80):
        g = random_graph(rng.randrange(1, 11), rng.choice([0.2, 0.5, 0.8]), rng)
        for check in check_spectral_lemmas(g):
            if check.applicable:
                assert check.holds, (g, check)
                if check.consistent is not None:
                    assert check.consistent, (g, check)


def test_lemma_check_ids_and_gating():
    ids = [c.check_id for c in check_spectral_lemmas(complete(4))]
    assert ids == [
        "q_sum",
        "q_square_sum",
        "zero_multiplicity_bipartite",
        "radius_vs_average",
        "min_vs_average",
        "radius_degree_window",
    ]
    by_id = {c.check_id: c for c in check_spectral_lemmas(matching(2))}
    assert not by_id["min_vs_average"].applicable
    assert by_id["min_vs_average"].holds is None


def test_min_vs_average_equality_exactly_on_complete():
    for g, expect in [(complete(5), True), (cycle(5), False), (star(4), False)]:
        by_id = {c.check_id: c for c in check_spectral_lemmas(g)}
        check = by_id["min_vs_average"]
        assert check.applicable
        assert check.equality is expect
        assert check.condition_met is expect
        assert check.consistent


def test_radius_vs_average_equality_exactly_on_regular():
    for g, expect in [(cycle(6), True), (prism(4), True), (path(4), False)]:
        by_id = {c.check_id: c for c in check_spectral_lemmas(g)}
        check = by_id["radius_vs_average"]
        assert check.equality is expect
        assert check.consistent


def test_radius_degree_window_consistency_only_when_connected():
    by_id = {c.check_id: c for c in check_spectral_lemmas(disjoint_union(complete(3), complete(3)))}
    assert by_id["radius_degree_window"].consistent is None
    by_id = {c.check_id: c for c in check_spectral_lemmas(complete(3))}
    assert by_id["radius_degree_window"].consistent is True


# -- Cartesian product spectra ---------------------------------------------------


def test_product_spectrum_all_kinds():
    pairs = [
        (cycle(3), path(2)),
        (path(3), path(3)),
        (star(3), cycle(4)),
        (complete(4), matching(1)),
    ]
    for g, h in pairs:
        for kind in ("adjacency", "laplacian", "signless_laplacian"):
            result = product_spectrum_check(g, h, kind)
            assert result.ok, (g, h, kind, result)


def test_product_spectrum_unknown_kind():
    with pytest.raises(ValueError):
        product_spectrum_check(path(2), path(2), "distance")


# -- backend equivalence ------------------------------------------------------


@pytest.fixture(scope="module")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel: the built extension if it imports, else
    _jacobi_cy.c compiled here with setup.py's flags."""
    try:
        from qspectra import _jacobi_cy
        return _jacobi_cy
    except ImportError:
        pass
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler to build _jacobi_cy.c")
    source = Path(spectral.__file__).with_name("_jacobi_cy.c")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    out = tmp_path_factory.mktemp("kernel") / f"_jacobi_cy{suffix}"
    build = subprocess.run(
        [cc, "-shared", "-fPIC", "-O3", "-ffp-contract=off",
         "-I" + sysconfig.get_paths()["include"], str(source), "-o", str(out)],
        capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("_jacobi_cy", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _kernel_cases():
    rng = random.Random(424242)
    nprng = np.random.default_rng(424242)
    builders = (adjacency_matrix, laplacian_matrix, signless_laplacian_matrix)
    for trial in range(90):
        n = rng.randrange(1, 41)
        build = builders[trial % 3]
        if trial % 5 == 0:      # edgeless: every rotation is skipped
            yield build(Graph(n, ()))
        elif trial % 5 == 1:    # disconnected: zero blocks exercise the skip mid-sweep
            half = rng.randrange(1, 21)
            yield build(disjoint_union(random_graph(half, 0.6, rng), random_graph(half, 0.3, rng)))
        elif trial % 5 == 2:
            raw = nprng.normal(size=(n, n))
            yield np.ascontiguousarray((raw + raw.T) / 2.0)
        else:
            yield build(random_graph(n, rng.choice([0.1, 0.3, 0.6, 0.9]), rng))
    for n in (7, 23):
        for scale in (1e-5, 1e5):
            raw = nprng.normal(size=(n, n))
            yield np.ascontiguousarray((raw + raw.T) / 2.0 * scale)
    # the first rotation has theta = 4 / (2 * 1e-160) = 2e160, whose square
    # overflows: the asymptotic tangent branch
    yield np.array([[0.0, 1e-160, 1.0], [1e-160, 4.0, 0.0], [1.0, 0.0, 2.0]])
    # symmetric only within the 1e-12 that symmetric_eigenvalues accepts; row 0
    # gets no rotation, so column 0 keeps its stray entry in both kernels
    yield np.array([[1.0, 0.0, 0.0], [1e-14, 2.0, 1.0], [0.0, 1.0, 3.0]])


def test_compiled_and_python_kernels_bit_identical(compiled_kernel):
    from qspectra import _jacobi_py

    for mat in _kernel_cases():
        wc = mat.copy(order="C")
        wp = mat.copy(order="C")
        rc = compiled_kernel.jacobi_sweeps(wc)
        rp = _jacobi_py.jacobi_sweeps(wp)
        assert repr(rp) == repr(rc), mat.shape      # the whole returned tuple
        assert wc.tobytes() == wp.tobytes()         # every float64 bit


def _kernel_stacks():
    """_kernel_cases() grouped by order into stacks, each followed by its
    matrices scaled by 1e3 so sweep counts differ within a stack, plus an
    empty stack and stacks of 1 x 1 and 2 x 2 matrices."""
    by_order = defaultdict(list)
    for mat in _kernel_cases():
        by_order[mat.shape[0]].append(mat)
    for n, mats in sorted(by_order.items()):
        yield np.stack(mats + [m * 1e3 for m in mats])
    yield np.empty((0, 4, 4))
    yield np.array([[[3.0]], [[0.0]], [[-1.5]]])
    yield np.array([[[1.0, 2.0], [2.0, -1.0]], [[5.0, 0.0], [0.0, 1.0]],
                    [[0.0, 1e-160], [1e-160, 4.0]]])


def test_compiled_and_python_stack_kernels_bit_identical(compiled_kernel):
    from qspectra import _jacobi_py

    for stack in _kernel_stacks():
        single = [m.copy(order="C") for m in stack]
        expected = [repr(_jacobi_py.jacobi_sweeps(w)) for w in single]
        for kernel in (compiled_kernel, _jacobi_py):
            work = stack.copy(order="C")
            results = kernel.jacobi_stack(work)
            assert len(results) == len(stack)
            for i, (result, w) in enumerate(zip(results, single)):
                assert repr(result) == expected[i], (kernel.__name__, stack.shape, i)
                assert work[i].tobytes() == w.tobytes(), (kernel.__name__, stack.shape, i)


def test_stack_solved_spectra_equal_the_lazily_solved_ones():
    rng = random.Random(7)
    cases = [(5, range(1024)), (7, sorted(rng.sample(range(1 << 21), 200)))]
    for n, masks in cases:
        batch = FactsBatch.from_masks(n, masks, 1.0)
        for values, converged, mask in zip(batch.eigenvalues.tolist(),
                                           batch.converged.tolist(), masks):
            lazy = GraphFacts(graph_from_mask(n, mask), 1.0).signless_laplacian
            assert repr(tuple(values)) == repr(lazy.values), (n, mask)
            assert converged is lazy.solve.converged, (n, mask)


def test_compiled_kernel_rejects_buffers_it_cannot_solve(compiled_kernel):
    sym = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 4.0]])
    readonly = sym.copy()
    readonly.flags.writeable = False
    stack = np.stack([sym, 2.0 * sym])
    readonly_stack = stack.copy()
    readonly_stack.flags.writeable = False
    cases = [(compiled_kernel.jacobi_sweeps, bad)
             for bad in (np.ascontiguousarray(sym[:2]), sym.astype(np.float32),
                         np.asfortranarray(sym), readonly)]
    cases += [(compiled_kernel.jacobi_stack, bad)
              for bad in (sym.copy(), np.zeros((2, 3, 4)), stack.astype(np.float32),
                          np.asfortranarray(stack), readonly_stack)]
    for solve, bad in cases:
        before = bad.copy(order="K")
        with pytest.raises(ValueError):
            solve(bad)
        assert bad.tobytes(order="A") == before.tobytes(order="A"), bad.flags
