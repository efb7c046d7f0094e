"""Eigensolver correctness against the numpy reference, matrix builders,
eigenvalue grouping, structural lemma checks, product-spectrum identities,
the kernel twins, and the joint solve of A, L and Q.
"""

import importlib.util
import math
import random
import shutil
import subprocess
import sys
import sysconfig
from collections import defaultdict
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from qspectra import _jacobi_py, spectral
from qspectra.graph_core import (
    FAMILY_KINDS,
    Graph,
    build_family,
    cartesian_product,
    complete,
    complete_bipartite,
    crown,
    cycle,
    disjoint_union,
    graph_from_mask,
    mask_pairs,
    matching,
    path,
    prism,
    random_graph,
    star,
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
    q_spectrum,
    signless_laplacian_matrix,
    structure,
    symmetric_eigenvalues,
)

# each matrix kind's spectrum reader
READERS = {"adjacency": a_spectrum, "laplacian": l_spectrum, "signless_laplacian": q_spectrum}
BUILDERS = {"adjacency": adjacency_matrix, "laplacian": laplacian_matrix,
            "signless_laplacian": signless_laplacian_matrix}


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


def test_laplacian_holds_no_negative_zero():
    # L is built as 0.0 - A, so a non-edge holds +0.0 where -A holds -0.0.
    # jacobi_sweeps leaves the same tuple and diagonal on both forms, and
    # equal entries elsewhere: a diagonal entry changes only by app - t*apq
    # or aqq + t*apq with apq != 0.0, and the sums add squares, so only the
    # sign of an off-diagonal zero may differ
    for g in _joint_solve_cases():
        lap = laplacian_matrix(g)
        assert not (np.signbit(lap) & (lap == 0.0)).any(), g
        old = -adjacency_matrix(g)
        np.fill_diagonal(old, g.degrees)
        assert np.array_equal(lap, old), g
        result = repr(_jacobi_py.jacobi_sweeps(lap))
        assert result == repr(_jacobi_py.jacobi_sweeps(old)), g
        assert np.diagonal(lap).tobytes() == np.diagonal(old).tobytes(), g
        assert np.array_equal(lap, old), g


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


def test_signless_laplacian_eigenvalues_meet_the_cubic_power_trace():
    """On every labeled graph with n <= 6, its Q solved by the kernel's
    jacobi_stack: the sum of q_i^3 is tr Q^3 = sum d_i^3 + 3 M1 + 6 T, where
    M1 is the sum of d_i^2 and T the triangle count, within
    3 n max(1, q_1)^2 err, where err = off_frobenius + 8 n eps max(1, q_1)."""
    for n in range(1, 7):
        pairs = np.array(mask_pairs(n), dtype=np.intp).reshape(-1, 2).T
        bits = np.arange(1 << pairs.shape[1])[:, None] >> np.arange(pairs.shape[1]) & 1
        a = np.zeros((len(bits), n, n), dtype=np.int64)
        a[:, pairs[0], pairs[1]] = bits
        a[:, pairs[1], pairs[0]] = bits
        d = a.sum(axis=2)
        triangles = np.trace(a @ a @ a, axis1=1, axis2=2) // 6
        target = (d ** 3).sum(axis=1) + 3 * (d * d).sum(axis=1) + 6 * triangles
        q = a.astype(np.float64)
        q[:, np.arange(n), np.arange(n)] = d
        results = spectral._KERNEL.jacobi_stack(q)
        values = np.diagonal(q, axis1=1, axis2=2)
        q1 = np.maximum(1.0, values.max(axis=1))
        err = np.array([r[2] for r in results]) + 8 * n * sys.float_info.epsilon * q1
        gap = np.abs((values ** 3).sum(axis=1) - target)
        assert all(converged for _, converged, _, _ in results), n
        wrong = np.flatnonzero(gap > 3 * n * q1 ** 2 * err)
        assert not wrong.size, (n, wrong)


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
    # a bipartite A spectrum is symmetric: |lambda_n| ties lambda_1 here, and
    # exceeds it by an ulp for C4
    tied, past = a_spectrum(complete_bipartite(2, 3)), a_spectrum(cycle(4))
    assert -tied.values[-1] == tied.values[0]
    assert -past.values[-1] > past.values[0]
    for spec in (tied, past, a_spectrum(star(5)), q_spectrum(prism(3))):
        row = spectral._radius(np.array([spec.values]))
        assert type(spec.radius) is float
        assert np.array([spec.radius]).tobytes() == row.tobytes()


def zero_multiplicity(g):
    """How many Q eigenvalues of g vanish within the zero tolerance, as the
    zero_multiplicity_bipartite lemma counts them."""
    return spectral._zero_counts(np.array([q_spectrum(g).values]), None).tolist()[0]


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
        assert zero_multiplicity(g) == structure(g).bipartite_component_count


def test_zero_multiplicity_random():
    rng = random.Random(17)
    for _ in range(60):
        g = random_graph(rng.randrange(1, 11), rng.choice([0.15, 0.4, 0.7]), rng)
        assert zero_multiplicity(g) == structure(g).bipartite_component_count


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


def product_spectrum_diff(g: Graph, h: Graph, kind: str) -> tuple[float, float]:
    """The largest difference between the spectrum of g □ h and the pairwise
    sums of the factors' spectra, for all three matrix kinds (the degree
    matrix of the product is the Kronecker sum of the factors' degree
    matrices), and the tolerance it must be within: 1e-7 * max(1, radius)."""
    def values(graph):
        return READERS[kind](GraphFacts(graph, 1.0)).values

    sg, sh = values(g), values(h)
    expected = sorted((x + y for x in sg for y in sh), reverse=True)
    actual = values(cartesian_product(g, h))
    radius = max(abs(actual[0]), abs(actual[-1]))
    return max(abs(a - b) for a, b in zip(actual, expected)), 1e-7 * max(1.0, radius)


def test_product_spectrum_all_kinds():
    pairs = [
        (cycle(3), path(2)),
        (path(3), path(3)),
        (star(3), cycle(4)),
        (complete(4), matching(1)),
    ]
    for g, h in pairs:
        for kind in ("adjacency", "laplacian", "signless_laplacian"):
            diff, tol = product_spectrum_diff(g, h, kind)
            assert diff <= tol, (g, h, kind, diff)


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
    yield _OVERFLOWING_SQUARES
    # identity_skips refuses each matrix below, which the Python kernel
    # solves alone, as a one-lane lanes-first stack. Symmetric only to
    # rounding: one pair of entries an ulp apart
    for n in (9, 17):
        raw = nprng.normal(size=(n, n))
        mat = np.ascontiguousarray((raw + raw.T) / 2.0)
        i, j = sorted(nprng.choice(n, 2, replace=False))
        mat[j, i] = np.nextafter(mat[i, j], np.inf)
        yield mat
    # sparse, with -0.0 off-diagonal entries, in pairs and alone
    for n in (6, 11, 26):
        raw = nprng.normal(size=(n, n))
        mat = np.where(nprng.random((n, n)) < 0.1, raw + raw.T, 0.0)
        mat[(mat == 0.0) & (nprng.random((n, n)) < 0.5) & ~np.eye(n, dtype=bool)] = -0.0
        mat[(mat.T == 0.0) & np.signbit(mat.T) & (nprng.random((n, n)) < 0.5)] = -0.0
        yield np.ascontiguousarray(mat)
    # rows 3 and 4 meet no rotation, so p-block 3 has none, and both kernels
    # keep the stray (4, 3) entry under the zero (3, 4)
    yield np.array([[2.0, 1.0, 0.5, 0.0, 0.0], [1.0, 3.0, 0.25, 0.0, 0.0],
                    [0.5, 0.25, 4.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0],
                    [0.0, 0.0, 0.0, 0.75, 5.0]])


# finite, but the squares of its entries overflow: its Frobenius square and
# threshold are inf, so it is left as it is after 0 sweeps
_OVERFLOWING_SQUARES = np.array([[1e160, 3e159, 0.0], [3e159, 2e160, 1e159], [0.0, 1e159, 5e159]])


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
    empty stack, stacks of 1 x 1 and 2 x 2 matrices, and a stack that meets
    identity_skips and whose squares overflow."""
    by_order = defaultdict(list)
    for mat in _kernel_cases():
        by_order[mat.shape[0]].append(mat)
    for n, mats in sorted(by_order.items()):
        yield np.stack(mats + [m * 1e3 for m in mats])
    yield np.empty((0, 4, 4))
    yield np.array([[[3.0]], [[0.0]], [[-1.5]]])
    yield np.array([[[1.0, 2.0], [2.0, -1.0]], [[5.0, 0.0], [0.0, 1.0]],
                    [[0.0, 1e-160], [1e-160, 4.0]]])
    yield np.stack([_OVERFLOWING_SQUARES, 0.5 * _OVERFLOWING_SQUARES])


def test_both_kernels_return_python_int_bool_float_float(compiled_kernel):
    # EigenSolveReport takes a kernel's tuple as it is, so both entry points
    # of both kernels return Python scalars, on the n < 2 shortcut, squares
    # that overflow, and inf and NaN entries too
    broken = [np.array([[1.0, value], [value, 2.0]]) for value in (np.inf, np.nan)]
    stacks = list(_kernel_stacks())
    for value in (np.inf, np.nan):
        stacks.append(_skipping_q_stack())
        stacks[-1][-1, 3, 3] = value
    for kernel in (compiled_kernel, _jacobi_py):
        results = [kernel.jacobi_sweeps(m.copy(order="C"))
                   for m in chain(_kernel_cases(), broken)]
        results += [r for stack in stacks for r in kernel.jacobi_stack(stack.copy(order="C"))]
        assert len(results) > 100
        for result in results:
            where = (kernel.__name__, result)
            assert type(result) is tuple, where
            assert tuple(map(type, result)) == (int, bool, float, float), where


def _assert_stack_twins(compiled_kernel, stack):
    """Both kernels' jacobi_stack, on the stack and on copies of it tiled past
    _jacobi_py.LANES_FIRST_MAX and past _jacobi_py.ROW_ADDS_MIN lanes, leave
    in each lane and return for it bit for bit what the Python jacobi_sweeps
    leaves in and returns for that matrix alone. When the stack meets
    identity_skips, the Python kernel runs its lanes-first loop on the stack
    (at most LANES_FIRST_MAX lanes here), and on the tiled copies its
    lanes-last loop for as long as more lanes than that iterate; it adds its
    sums row by row on the widest copy. When the stack fails the rule, it
    solves every lane alone, in one-lane lanes-first sweeps, as
    jacobi_sweeps does."""
    assert len(stack) <= _jacobi_py.LANES_FIRST_MAX
    single = [m.copy(order="C") for m in stack]
    expected = [repr(_jacobi_py.jacobi_sweeps(w)) for w in single]
    stacks = [stack] + [np.concatenate([stack] * (lanes // max(len(stack), 1) + 1))
                        for lanes in (_jacobi_py.LANES_FIRST_MAX, _jacobi_py.ROW_ADDS_MIN)]
    for tiled in stacks:
        for kernel in (compiled_kernel, _jacobi_py):
            work = tiled.copy(order="C")
            results = kernel.jacobi_stack(work)
            assert len(results) == len(tiled)
            for i, (result, w) in enumerate(zip(results, work)):
                where = (kernel.__name__, tiled.shape, i)
                assert repr(result) == expected[i % len(stack)], where
                assert w.tobytes() == single[i % len(stack)].tobytes(), where


@pytest.mark.parametrize("columns", [
    3, _jacobi_py.ROW_ADDS_MIN - 1, _jacobi_py.ROW_ADDS_MIN, 1024])
def test_both_sum_forms_add_in_the_compiled_loop_order(columns):
    # squares of mixed size, with +0.0 (the square of -0.0), subnormal, inf
    # and NaN terms; below ROW_ADDS_MIN columns the sum is np.add.accumulate,
    # from there on one add per row
    rng = np.random.default_rng(columns)
    roots = rng.standard_normal((49, columns)) * 10.0 ** rng.uniform(-3, 3, (49, columns))
    kind = rng.random(roots.shape)
    roots[kind < 0.05] = -0.0
    roots[(0.05 <= kind) & (kind < 0.1)] = 1e-160
    roots[5, 0], roots[7, 1] = 1e160, np.nan
    with np.errstate(over="ignore"):
        terms = roots * roots
    assert (terms == 0.0).any() and (terms == 1e-320).any()
    forward, backward = [], []
    for column in terms.T.tolist():
        for order, sums in ((column, forward), (column[::-1], backward)):
            total = 0.0
            for v in order:
                total += v
            sums.append(total)
    assert np.isinf(forward).any() and np.isnan(forward).any()
    # the order of the adds shows in the bits of some finite sum
    assert any(f != b for f, b in zip(forward, backward) if math.isfinite(f))
    assert _jacobi_py._sums_in_loop_order(terms).tobytes() == np.array(forward).tobytes()


def test_compiled_and_python_stack_kernels_bit_identical(compiled_kernel):
    for stack in _kernel_stacks():
        _assert_stack_twins(compiled_kernel, stack)


def test_a_lane_that_skips_a_rotation_keeps_its_signed_zeros(compiled_kernel):
    # at (0, 1) lane 0 rotates while lane 1 skips: its (0, 1) entry is -0.0,
    # and its rows 0 and 1 hold -0.0 and -1.0, which a rotation by c = 1,
    # s = 0 would not keep, since -0.0 - (-0.0) is +0.0. So identity_skips
    # refuses the stack, and the Python kernel solves each lane alone, as a
    # one-lane lanes-first stack. Lane 2's theta at (0, 1) is
    # 0.0 / -2.0 = -0.0, whose tangent is +1.
    stack = np.array([
        [[2.0, 1.0, 0.5, 0.25], [1.0, 3.0, 0.25, 0.5],
         [0.5, 0.25, 4.0, 1.0], [0.25, 0.5, 1.0, 5.0]],
        [[2.0, -0.0, 0.5, -0.0], [-0.0, 3.0, -0.0, -1.0],
         [0.5, -0.0, 4.0, -0.0], [-0.0, -1.0, -0.0, 5.0]],
        [[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0],
         [0.0, 0.0, 2.0, 0.5], [0.0, 0.0, 0.5, 2.0]],
    ])
    assert np.signbit(stack[1][stack[1] == 0.0]).any()    # a -0.0 is left to keep
    assert not _jacobi_py.identity_skips(stack)
    _assert_stack_twins(compiled_kernel, stack)


def test_a_lane_without_a_rotation_in_a_block_keeps_its_column(compiled_kernel):
    # lane 0 is symmetric only within the 1e-12 that symmetric_eigenvalues
    # accepts, and its row 0 gets no rotation, while lane 1 rotates in every
    # block: lane 0 must keep its stray (1, 0) entry for rotation (1, 2) to
    # turn, as jacobi_sweeps does, and a copy of column 0 from row 0 would
    # zero it. identity_skips refuses the stack, so the Python kernel solves
    # each lane alone, and a block without a rotation leaves column 0 as is
    stack = np.array([
        [[1.0, 0.0, 0.0], [1e-14, 2.0, 1.0], [0.0, 1.0, 3.0]],
        [[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 4.0]],
    ])
    single = stack[0].copy()
    _jacobi_py.jacobi_sweeps(single)
    assert single[1, 0] != 0.0
    _assert_stack_twins(compiled_kernel, stack)


def test_lanes_that_leave_after_different_sweep_counts(compiled_kernel):
    # the lanes converge after 1, 5 and 3 sweeps, the first lane first: the
    # lanes-first work array, held across sweeps, is gathered again each time
    # lanes leave
    stack = np.stack([signless_laplacian_matrix(g) for g in (complete(5), path(5), star(5))]
                     + [adjacency_matrix(path(5))])
    counts = [_jacobi_py.jacobi_sweeps(m.copy())[0] for m in stack]
    assert counts == [1, 5, 3, 5]
    _assert_stack_twins(compiled_kernel, stack)


def test_a_lane_whose_rotations_all_have_negative_sine(compiled_kernel):
    # lane 0 couples only the disjoint pairs (0, 5), (1, 4) and (2, 3), so each
    # pair rotates once, from the input pivots, and each theta is negative:
    # with column p set to +0.0 for the block, every new (q, p) entry of the
    # lane is s * 0.0 + c * 0.0 = (-0.0) + (+0.0), which is +0.0
    lane = np.array([
        [8.0, 0.0, 0.0, 0.0, 0.0, 2.0], [0.0, -1.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 2.0, -0.5, 0.0, 0.0], [0.0, 0.0, -0.5, 3.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0, 1.0, 0.0], [2.0, 0.0, 0.0, 0.0, 0.0, 5.0],
    ])
    off = lane - np.diag(np.diag(lane))
    assert (np.count_nonzero(off, axis=1) == 1).all()
    for p, q in zip(*np.nonzero(np.triu(off))):
        assert (lane[q, q] - lane[p, p]) / (2.0 * lane[p, q]) < 0.0
    stack = np.stack([lane, signless_laplacian_matrix(prism(3))])
    _assert_stack_twins(compiled_kernel, stack)


def _q_stack(n, masks):
    return np.stack([signless_laplacian_matrix(graph_from_mask(n, mask)) for mask in masks])


@pytest.mark.parametrize("n", [6, 7])
def test_mask_batches_rotate_skipped_lanes_by_the_identity(compiled_kernel, n):
    # every lane iterates, and at the first rotation, (0, 1), the lanes
    # without that edge skip while the others rotate: the skipped lanes
    # rotate by the identity, and every write is plain
    masks = sorted(random.Random(n).sample(range(1, 1 << (n * (n - 1) // 2)), 40))
    stack = _q_stack(n, masks)
    assert (stack[:, 0, 1] == 0.0).any() and (stack[:, 0, 1] != 0.0).any()
    assert _jacobi_py.identity_skips(stack)
    single = [m.copy() for m in stack]
    expected = [repr(_jacobi_py.jacobi_sweeps(w)) for w in single]
    for kernel in (compiled_kernel, _jacobi_py):
        work = stack.copy()
        assert [repr(r) for r in kernel.jacobi_stack(work)] == expected, kernel.__name__
        assert [w.tobytes() for w in work] == [w.tobytes() for w in single], kernel.__name__


def test_identity_rule_holds_for_verify_stacks_and_graph_matrices(monkeypatch):
    seen = []
    kernel = spectral._KERNEL

    class RecordingKernel:
        @staticmethod
        def jacobi_stack(a):
            seen.append(a.copy())
            return kernel.jacobi_stack(a)

    monkeypatch.setattr(spectral, "_KERNEL", RecordingKernel)
    batches = [(5, range(1024)), (7, sorted(random.Random(7).sample(range(1 << 21), 1024)))]
    for n, masks in batches:
        FactsBatch.from_masks(n, masks, 1.0)
    assert [len(a) for a in seen] == [1024, 1024]
    assert all(_jacobi_py.identity_skips(a) for a in seen)
    # each lane is, byte for byte, the Q of its mask's graph
    for (n, masks), stack in zip(batches, seen):
        assert [lane.tobytes() for lane in stack] == [
            signless_laplacian_matrix(graph_from_mask(n, mask)).tobytes() for mask in masks], n
    rng = random.Random(17)
    graphs = [random_graph(n, p, rng) for n in (2, 7, 16) for p in (0.3, 0.9)]
    for g in graphs + [complete(5), star(6), Graph(4, ())]:
        a, lap, q = adjacency_matrix(g), laplacian_matrix(g), signless_laplacian_matrix(g)
        assert _jacobi_py.identity_skips(np.stack([a, lap, q])), g


def _skipping_q_stack():
    """16 seeded order-6 Q matrices whose lanes are mixed at (0, 1), the last
    of a graph on vertices 2..5 only, whose rows 0 and 1 skip every rotation."""
    masks = sorted(random.Random(6).sample(range(1, 1 << 15), 15))
    square = Graph(6, ((2, 3), (3, 4), (4, 5), (2, 5)))
    stack = np.concatenate([_q_stack(6, masks), signless_laplacian_matrix(square)[None]])
    assert (stack[:, 0, 1] == 0.0).any() and (stack[:, 0, 1] != 0.0).any()
    assert _jacobi_py.identity_skips(stack)
    return stack


def test_stacks_whose_lanes_skip_whole_blocks_meet_the_rule(compiled_kernel):
    # the last lane of the Q stack rotates in neither p-block 0 nor 1, and a
    # disconnected graph's A, L and Q skip every rotation between components:
    # each such lane rotates by the identity and gets column p back from row p
    _assert_stack_twins(compiled_kernel, _skipping_q_stack())
    g = disjoint_union(cycle(5), disjoint_union(path(4), Graph(1, ())))
    stack = np.stack([build(g) for build in (adjacency_matrix, laplacian_matrix,
                                             signless_laplacian_matrix)])
    assert _jacobi_py.identity_skips(stack)
    _assert_stack_twins(compiled_kernel, stack)


@pytest.mark.parametrize("defect", ["-0.0 pair", "1-ulp asymmetric pair", "inf", "nan"])
def test_identity_rule_refuses_a_stack_it_would_change(compiled_kernel, defect):
    # the last lane skips (0, 1) while other lanes rotate; the identity
    # rotation would leave +0.0 at its (0, 1) and (1, 0) entries. A lane
    # with an inf or NaN entry never iterates. The Python kernel solves each
    # lane of such a stack alone, as a one-lane lanes-first stack
    stack = _skipping_q_stack()
    last = stack[-1]
    if defect == "-0.0 pair":
        last[0, 1] = last[1, 0] = -0.0
    elif defect == "1-ulp asymmetric pair":
        last[1, 0] = np.nextafter(last[0, 1], 1.0)
    else:
        last[3, 3] = float(defect)
    assert not _jacobi_py.identity_skips(stack)
    _assert_stack_twins(compiled_kernel, stack)


def test_only_a_stack_that_meets_the_identity_rule_runs_lanes_last(monkeypatch):
    # the 16-lane Q stack runs lanes first, and with a 17th lane it runs lanes
    # last first; with one -0.0 pair either stack fails the rule and each of
    # its matrices runs alone, in one-lane lanes-first sweeps. A single
    # matrix, passed alone or as a stack of one, runs one-lane sweeps too
    sweeps = []

    def counted(name, lanes):
        loop = getattr(_jacobi_py, name)

        def run(w, *views):
            sweeps.append((name, w.shape[lanes]))
            loop(w, *views)
        return run

    monkeypatch.setattr(_jacobi_py, "_lanes_last", counted("_lanes_last", -1))
    monkeypatch.setattr(_jacobi_py, "_lanes_first", counted("_lanes_first", 0))
    narrow = _skipping_q_stack()
    wide = np.concatenate([narrow, narrow[:1]])
    assert len(wide) == _jacobi_py.LANES_FIRST_MAX + 1
    single = narrow[0].copy()
    assert _jacobi_py.identity_skips(single[None])
    for solve, work in ((_jacobi_py.jacobi_sweeps, single.copy()),
                        (lambda w: _jacobi_py.jacobi_stack(w)[0], single[None].copy())):
        sweeps.clear()
        assert solve(work)[0] == len(sweeps) > 0
        assert set(sweeps) == {("_lanes_first", 1)}
    sweeps.clear()
    _jacobi_py.jacobi_stack(narrow.copy())
    assert sweeps and {name for name, _ in sweeps} == {"_lanes_first"}
    sweeps.clear()
    _jacobi_py.jacobi_stack(wide.copy())
    assert sweeps[0] == ("_lanes_last", len(wide))
    for stack in (narrow, wide):
        stack[-1, 0, 1] = stack[-1, 1, 0] = -0.0
        assert not _jacobi_py.identity_skips(stack)
        sweeps.clear()
        _jacobi_py.jacobi_stack(stack)
        assert sweeps and set(sweeps) == {("_lanes_first", 1)}


def test_stack_solved_spectra_equal_the_lazily_solved_ones():
    rng = random.Random(7)
    cases = [(5, range(1024)), (7, sorted(rng.sample(range(1 << 21), 200)))]
    for n, masks in cases:
        batch = FactsBatch.from_masks(n, masks, 1.0)
        for values, converged, mask in zip(batch.eigenvalues.tolist(),
                                           batch.converged.tolist(), masks):
            lazy = q_spectrum(GraphFacts(graph_from_mask(n, mask), 1.0))
            assert repr(tuple(values)) == repr(lazy.values), (n, mask)
            assert converged is lazy.solve.converged, (n, mask)


def _assert_rejects_buffers_it_cannot_solve(kernel):
    """The kernel raises ValueError, and writes nothing, on a buffer that is
    not float64, C-contiguous, writable and square with 2 (jacobi_sweeps) or
    3 (jacobi_stack) dimensions."""
    sym = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 4.0]])
    readonly = sym.copy()
    readonly.flags.writeable = False
    stack = np.stack([sym, 2.0 * sym])
    readonly_stack = stack.copy()
    readonly_stack.flags.writeable = False
    cases = [(kernel.jacobi_sweeps, bad)
             for bad in (np.ascontiguousarray(sym[:2]), sym.astype(np.float32),
                         np.asfortranarray(sym), readonly)]
    cases += [(kernel.jacobi_stack, bad)
              for bad in (sym.copy(), np.zeros((2, 3, 4)), stack.astype(np.float32),
                          np.asfortranarray(stack), readonly_stack)]
    for solve, bad in cases:
        before = bad.copy(order="K")
        with pytest.raises(ValueError):
            solve(bad)
        assert bad.tobytes(order="A") == before.tobytes(order="A"), bad.flags


def test_compiled_kernel_rejects_buffers_it_cannot_solve(compiled_kernel):
    _assert_rejects_buffers_it_cannot_solve(compiled_kernel)


def test_python_kernel_rejects_the_buffers_the_compiled_kernel_rejects():
    _assert_rejects_buffers_it_cannot_solve(_jacobi_py)


# -- the joint solve of A, L and Q ----------------------------------------------


def _joint_solve_cases():
    params = {"complete": [(1,), (2,), (7,)], "complete_bipartite": [(1, 1), (3, 5)],
              "star": [(2,), (9,)], "cycle": [(3,), (8,)], "path": [(1,), (6,)],
              "matching": [(1,), (4,)], "crown": [(1,), (5,)], "prism": [(3,), (7,)],
              "copies": [(2, "cycle", 5), (3, "complete", 1)]}
    assert set(params) == set(FAMILY_KINDS)
    for kind, values in params.items():
        for p in values:
            yield build_family(kind, p)
    rng = random.Random(64)
    for n in (2, 5, 16, 33, 64):
        for p in (0.1, 0.5, 0.9):
            yield random_graph(n, p, rng)


def test_joint_solve_equals_each_kind_solved_alone():
    kinds = ("adjacency", "laplacian", "signless_laplacian")
    for g in _joint_solve_cases():
        joint = GraphFacts(g, 1.0)
        joint.solve_all()
        assert set(kinds) <= joint.spectra.keys()      # solved, not read lazily below
        for kind in kinds:
            got, alone = READERS[kind](joint), READERS[kind](GraphFacts(g, 1.0))
            assert repr(got.values) == repr(alone.values), (g, kind)
            assert repr(got.groups) == repr(alone.groups), (g, kind)
            assert repr(got.solve._asdict()) == repr(alone.solve._asdict()), (g, kind)
            # a lazy read, a stack of one, is the validated entry's solve
            values, report = symmetric_eigenvalues(BUILDERS[kind](g))
            assert repr(alone.values) == repr(tuple(values.tolist())), (g, kind)
            assert repr(alone.solve._asdict()) == repr(report._asdict()), (g, kind)


def _padded_stacks():
    """Seeded stacks of graph matrices of mixed orders 1..24 and mixed kinds
    (A, L and Q), each with its matrices zero-padded to the stack's largest
    order, and the matrices as they are. The lane counts lie on both sides of
    _jacobi_py.LANES_FIRST_MAX; the first stack holds a 1 x 1 matrix and an
    edgeless graph's."""
    rng = random.Random(32)
    builders = (adjacency_matrix, laplacian_matrix, signless_laplacian_matrix)
    for lanes in (2, 5, 9, 16, 17, 20, 24, 24):
        graphs = [Graph(1, []), Graph(9, [])] if lanes == 2 else [
            random_graph(rng.randint(1, 24), rng.choice([0.2, 0.5, 0.8]), rng)
            for _ in range(lanes)]
        mats = [rng.choice(builders)(g) for g in graphs]
        size = max(len(m) for m in mats)
        stack = np.zeros((lanes, size, size))
        for lane, m in zip(stack, mats):
            lane[:len(m), :len(m)] = m
        yield stack, mats


def _assert_padded_lanes_equal_lone_solves(kernel):
    """Each lane of kernel.jacobi_stack on a padded stack returns the tuple,
    and leaves the leading block, that the Python jacobi_sweeps returns for
    and leaves in its matrix alone, and its padding stays +0.0."""
    orders = set()
    for stack, mats in _padded_stacks():
        lone = [m.copy() for m in mats]
        expected = [repr(_jacobi_py.jacobi_sweeps(w)) for w in lone]
        results = kernel.jacobi_stack(stack)
        for i, (result, lane, w) in enumerate(zip(results, stack, lone)):
            n, where = len(w), (kernel.__name__, len(stack), i)
            assert repr(result) == expected[i], where
            assert lane[:n, :n].tobytes() == w.tobytes(), where
            padding = np.concatenate([lane[n:].ravel(), lane[:n, n:].ravel()])
            assert not (np.signbit(padding) | (padding != 0.0)).any(), where
            orders.add(n)
    assert {1, 24} <= orders and len(orders) > 12


def test_padded_python_stack_lanes_keep_every_bit_of_a_lone_solve(monkeypatch):
    # the stacks of more than LANES_FIRST_MAX lanes meet the lanes-last loop
    lanes_last, swept = _jacobi_py._lanes_last, []

    def counted(w):
        swept.append(w.shape[-1])
        lanes_last(w)

    monkeypatch.setattr(_jacobi_py, "_lanes_last", counted)
    _assert_padded_lanes_equal_lone_solves(_jacobi_py)
    assert swept


def test_padded_compiled_stack_lanes_keep_every_bit_of_a_lone_solve(compiled_kernel):
    _assert_padded_lanes_equal_lone_solves(compiled_kernel)


def test_a_mixed_order_solve_equals_each_matrix_solved_alone():
    rng = random.Random(33)
    graphs = [prism(n) for n in range(3, 11)] + [random_graph(n, 0.5, rng) for n in (1, 2, 13)]
    kinds = ("adjacency", "laplacian", "signless_laplacian")
    pairs = [(GraphFacts(g, 1.0), rng.choice(kinds)) for g in graphs]
    spectral.solve_spectra(pairs)
    for f, kind in pairs:
        got, alone = f.spectra[kind], READERS[kind](GraphFacts(f.graph, 1.0))
        assert repr(got) == repr(alone), (f.graph.n, kind)
