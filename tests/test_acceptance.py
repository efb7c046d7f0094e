"""Acceptance gate: one test per shipped guarantee, each printing a single
ACCEPTANCE PASS/FAIL line so a log scan shows the package-level status.

Run with -s (or read captured output) to see the lines.
"""

import math
import random
import time

from qspectra.bounds import evaluate_bound
from qspectra.families_verify import classify_q_pattern, prism_gamma_min
from qspectra.graph_core import (
    cartesian_product,
    complete,
    complete_bipartite,
    crown,
    cycle,
    disjoint_union,
    matching,
    prism,
    random_graph,
    star,
)
from qspectra.reports import energies, reproduce_table1, reproduce_table2, verify_exhaustive
from qspectra.spectral import gamma_sequence, q_spectrum


def _report(name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def qe_of(g):
    return energies(g).signless_laplacian_energy


def test_acceptance_table1():
    def body():
        report = reproduce_table1()
        assert report.ok
        assert len(report.rows) == 8
        assert len(report.column_names) == 7
        assert report.max_deviation <= 5e-4
        assert report.wall_time < 1.0
    _report("lower-bound table reproduced within 5e-4 in under a second", body)


def test_acceptance_table2():
    def body():
        report = reproduce_table2()
        assert report.ok
        assert len(report.rows) == 8
        assert len(report.column_names) == 6
        assert report.max_deviation <= 5e-4
        assert report.wall_time < 1.0
    _report("upper-bound table reproduced within 5e-4 in under a second", body)


def test_acceptance_equality_cases():
    def body():
        t0 = time.perf_counter()
        for n in range(4, 11):
            g = star(n)
            qe = qe_of(g)
            for bid in ("L-GAN1", "L-GAN2", "L-GAN3"):
                r = evaluate_bound(g, bid)
                assert r.applicable and abs(r.value - qe) <= 1e-8, (n, bid)
        r = evaluate_bound(complete(3), "L-COR4")
        assert abs(qe_of(complete(3)) - 4.0) <= 1e-8
        assert r.applicable and abs(r.value - 4.0) <= 1e-8
        r = evaluate_bound(crown(3), "L-THM1")
        assert abs(qe_of(crown(3)) - 12.0) <= 1e-8
        assert r.applicable and abs(r.value - 12.0) <= 1e-8
        for n in (4, 6, 8):
            g = complete_bipartite(n // 2, n // 2)
            r = evaluate_bound(g, "L-THM2")
            assert abs(qe_of(g) - n) <= 1e-8
            assert r.applicable and abs(r.value - n) <= 1e-8
        for k in range(1, 6):
            g = matching(k)
            r = evaluate_bound(g, "U-THM3")
            assert abs(qe_of(g) - 2 * k) <= 1e-8
            assert r.applicable and abs(r.value - 2 * k) <= 1e-8
            assert r.diagnosis.tight and r.diagnosis.condition_met
        rook = cartesian_product(complete(4), complete(4))
        r = evaluate_bound(rook, "U-THM3")
        assert abs(qe_of(rook) - 36.0) <= 1e-7
        assert r.applicable and abs(r.value - 36.0) <= 1e-7
        assert r.diagnosis.tight and r.diagnosis.condition_met
        assert time.perf_counter() - t0 < 5.0
    _report("stated equality cases attained to 1e-8 in under five seconds", body)


def test_acceptance_exhaustive_six_vertices():
    def body():
        summary = verify_exhaustive(6)
        assert summary.graphs_checked == 32768
        assert summary.violations == ()
        assert summary.lemma_failures == ()
        assert summary.wall_time < 60.0
    _report("all 32768 six-vertex graphs verified clean in under a minute", body)


def test_acceptance_closed_form_spectra():
    def body():
        for n in range(3, 61):
            solver = gamma_sequence(prism(n)).values[-1]
            assert abs(prism_gamma_min(n) - solver) <= 1e-9, n

        def match(g, expected):
            values = sorted(q_spectrum(g).values)
            expected = sorted(expected)
            assert len(values) == len(expected)
            assert max(abs(a - b) for a, b in zip(values, expected)) <= 1e-9, g

        for n in range(2, 11):
            match(complete(n), [2 * n - 2] + [n - 2] * (n - 1))
        for n in range(3, 13):
            match(cycle(n), [2 + 2 * math.cos(2 * math.pi * k / n)
                             for k in range(n)])
        for a in range(1, 6):
            for b in range(1, 6):
                match(complete_bipartite(a, b),
                      [a + b] + [a] * (b - 1) + [b] * (a - 1) + [0])
        for n in range(3, 11):
            match(star(n), [n] + [1] * (n - 2) + [0])
        for r in range(1, 6):
            match(crown(r), [2 * r] + [r + 1] * r + [r - 1] * r + [0])
    _report("family spectra and ladder deviations match closed forms to 1e-9",
            body)


def test_acceptance_classifier_round_trip():
    def body():
        for r in (2, 3, 4):
            for g_count in range(0, 4):
                for h_count in range(0, 4 - g_count):
                    if g_count + h_count == 0:
                        continue
                    parts = ([complete(r + 1)] * g_count
                             + [crown(r)] * h_count)
                    res = classify_q_pattern(disjoint_union(*parts))
                    assert res.pattern_found
                    assert res.degree == r
                    assert res.complete_copies == g_count
                    assert res.crown_copies == h_count
                    assert res.structure_verified
    _report("spectrum classifier recovers every small union exactly", body)


def test_acceptance_trace_identities():
    def body():
        rng = random.Random(2026)
        for _ in range(200):
            n = rng.randrange(1, 13)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            q = q_spectrum(g).values
            m1 = sum(d * d for d in g.degrees)
            assert abs(math.fsum(q) - 2 * g.m) <= 1e-8 * n
            assert abs(math.fsum(v * v for v in q) - (2 * g.m + m1)) <= 1e-7 * n
    _report("trace identities hold on two hundred random graphs", body)
