"""The three seeded workloads: input generation, warm-up, the measured units,
and the check of every operation's output.

A workload is built from (seed, budget_s, smoke). Its inputs depend only on
those: the budget sets how much work a run holds, through nominal costs
measured with the pure-Python kernel. ``setup`` makes the inputs and warms up on
inputs outside the measured set; ``measure`` runs every unit once and times
each with the speed probe. No measured input repeats within a process, so the library's
lru_cache layers only ever see first-time graphs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import qspectra
from qspectra import (
    analyze_report,
    build_family,
    emit_graph6,
    graph_from_mask,
    parse_graph6,
    random_graph,
    render_json,
    verify_exhaustive,
)

from common import ROOT, SpeedProbe, check_import_location, child_env

check_import_location(qspectra.__file__)

EPS = float(np.finfo(np.float64).eps)


@dataclass
class Measurement:
    unit_ms: list[float] = field(default_factory=list)      # scaled time of each unit
    unit_raw_ms: list[float] = field(default_factory=list)  # its wall time
    unit_graphs: list[int] = field(default_factory=list)    # graphs each unit handles
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ms: float, raw_ms: float, graphs: int) -> None:
        self.unit_ms.append(ms)
        self.unit_raw_ms.append(raw_ms)
        self.unit_graphs.append(graphs)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def build(spec):
    """Graph from an input spec: ('gnp', n, p, seed), ('family', kind, params),
    ('mask', n, mask) or ('graph6', text)."""
    if spec[0] == "gnp":
        _, n, p, gseed = spec
        return random_graph(n, p, random.Random(gseed))
    if spec[0] == "family":
        return build_family(spec[1], spec[2])
    if spec[0] == "mask":
        return graph_from_mask(spec[1], spec[2])
    return parse_graph6(spec[1])


# -- verify-small ----------------------------------------------------------------

class VerifySmall:
    """verify_exhaustive over every labeled graph on 5 vertices, then one seeded
    sample of labeled graphs on 7 vertices. The two calls are the units;
    latency is per graph, each call's graphs weighted equally."""

    latency_per_graph = True
    N7_PER_S = 520      # nominal n = 7 graphs verified per second
    FULL_N_S = 1.0      # nominal seconds for the full order-5 call

    def __init__(self, seed: int, budget_s: float, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.full_n, self.sample_n = (3, 5) if smoke else (5, 7)
        self.sample = 20 if smoke else max(1, int((budget_s - self.FULL_N_S) * self.N7_PER_S))

    def setup(self) -> None:
        # orders 4 and 6 lie outside the measured set (5 in full, 7 sampled)
        verify_exhaustive(2 if self.smoke else 4)
        verify_exhaustive(4 if self.smoke else 6, sample=32 if self.smoke else 128,
                          seed=self.seed)

    def graphs(self):
        """Specs of a fresh seeded sample on the sampled order, for tracing."""
        rng = random.Random(self.seed)
        seen: set[int] = set()
        total = 1 << pair_count(self.sample_n)
        while len(seen) < total:
            mask = rng.randrange(total)
            if mask not in seen:
                seen.add(mask)
                yield ("mask", self.sample_n, mask)

    def measure(self, probe: SpeedProbe) -> Measurement:
        m = Measurement()
        for n, sample in ((self.full_n, None), (self.sample_n, self.sample)):
            expected = (1 << pair_count(n)) if sample is None else sample
            s, ms, raw_ms = probe.time(verify_exhaustive, n, 1, sample,
                                       None if sample is None else self.seed)
            m.record(ms, raw_ms, expected)
            m.attempted += expected
            bad = sorted({v[0] for v in s.violations} | {f[0] for f in s.lemma_failures})
            for g6 in bad:
                m.fail(f"verify {n}: violation or lemma failure on {g6}")
            if s.graphs_checked != expected:
                m.fail(f"verify {n}: checked {s.graphs_checked} graphs, expected {expected}",
                       abs(expected - s.graphs_checked))
        return m


# -- analyze-mid -------------------------------------------------------------------

def independent_q(g) -> np.ndarray:
    """Signless Laplacian built without the library, for the oracle check."""
    q = np.zeros((g.n, g.n))
    if g.edges:
        e = np.asarray(g.edges)
        q[e[:, 0], e[:, 1]] = 1.0
        q[e[:, 1], e[:, 0]] = 1.0
    q[np.diag_indices(g.n)] = q.sum(axis=1)
    return q


def check_analysis(g, report: dict, text: str) -> list[str]:
    """The Q spectrum agrees with LAPACK within the solver's error bound plus
    c*eps*||Q|| (Weyl), QE is the sum of the gamma values, and the JSON parses."""
    problems = []
    q = np.asarray(report["spectra"]["signless_laplacian"]["values"])
    ref = np.linalg.eigvalsh(independent_q(g))[::-1]
    norm = max(abs(ref[0]), abs(ref[-1]), 1.0)
    bound = (report["spectra"]["signless_laplacian"]["solver"]["error_bound"]
             + 8 * g.n * EPS * norm)
    diff = float(np.max(np.abs(q - ref)))
    if not diff <= bound:
        problems.append(f"Q spectrum off LAPACK by {diff:.3e} > {bound:.3e}")
    qe = report["energies"]["signless_laplacian_energy"]
    if qe != math.fsum(report["gamma"]["values"]):
        problems.append(f"QE {qe!r} is not the sum of its gamma values")
    try:
        round_trip = text.endswith("\n") and json.loads(text)["graph"]["n"] == g.n
    except ValueError:
        round_trip = False
    if not round_trip:
        problems.append("render_json output does not round-trip")
    return problems


def analyze_and_render(g):
    report = analyze_report(g)
    return report, render_json(report)


class AnalyzeMid:
    """analyze_report + render_json, one call per graph, on a seeded mix of
    G(n, p) graphs with n from 16 to 64 at three densities and family members.

    A cycle holds every (n, p) cell once plus two family members, one just
    smaller and one just larger than the middle size, so the median and p90
    fall inside the same cells whatever the seed, and only the random edges
    and the family members vary."""

    latency_per_graph = False
    CYCLE_S = 5.5       # nominal seconds per cycle
    FAMILY_SPAN = 4     # family members have mid - 4 <= n < mid or mid < n <= mid + 4

    def __init__(self, seed: int, budget_s: float, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.cycle_count = 1 if smoke else max(1, round(budget_s / self.CYCLE_S))
        self.sizes = (6, 8, 10) if smoke else (16, 24, 32, 40, 48, 56, 64)
        self.densities = (0.1, 0.3, 0.6)
        mid, span = self.sizes[len(self.sizes) // 2], self.FAMILY_SPAN
        members = {
            "prism": [((k,), 2 * k) for k in range(3, mid)],
            "crown": [((r,), 2 * (r + 1)) for r in range(1, mid)],
            "complete_bipartite": [((a, b), a + b) for a in range(2, mid)
                                   for b in range(a, mid)],
        }
        rng = random.Random(seed)
        self.small, self.large = {}, {}
        for kind, pool in members.items():
            self.small[kind] = [p for p, n in pool if mid - span <= n < mid]
            self.large[kind] = [p for p, n in pool if mid < n <= mid + span]
            rng.shuffle(self.small[kind])
            rng.shuffle(self.large[kind])

    def cycles(self):
        """Lists of input specs. Ends when a family pool runs out, so no
        input repeats."""
        rng = random.Random(self.seed ^ 0x5EED)
        small_pools = {k: list(v) for k, v in self.small.items()}
        large_pools = {k: list(v) for k, v in self.large.items()}
        kinds = tuple(small_pools)
        for c in itertools.count():
            small, large = kinds[c % 3], kinds[(c + 1) % 3]
            if not (small_pools[small] and large_pools[large]):
                return
            cycle = [("gnp", n, p, rng.getrandbits(64))
                     for n in self.sizes for p in self.densities]
            cycle.append(("family", small, small_pools[small].pop()))
            cycle.append(("family", large, large_pools[large].pop()))
            rng.shuffle(cycle)
            yield cycle

    def graphs(self):
        for cycle in self.cycles():
            yield from cycle

    def setup(self) -> None:
        rng = random.Random(self.seed)
        if self.smoke:
            warm = (random_graph(4, 0.5, rng), build_family("complete_bipartite", (1, 2)))
        else:    # all below the measured sizes
            warm = (random_graph(12, 0.3, rng), build_family("prism", (5,)),
                    build_family("crown", (4,)), build_family("complete_bipartite", (3, 4)))
        for g in warm:
            render_json(analyze_report(g))
        self.inputs = [(spec, build(spec)) for spec in itertools.chain.from_iterable(
            itertools.islice(self.cycles(), self.cycle_count))]

    def measure(self, probe: SpeedProbe) -> Measurement:
        m = Measurement()
        for spec, g in self.inputs:
            (report, text), ms, raw_ms = probe.time(analyze_and_render, g)
            m.record(ms, raw_ms, 1)
            m.attempted += 1
            for problem in check_analysis(g, report, text):
                m.fail(f"{spec}: {problem}")
        return m


# -- cli-cold ------------------------------------------------------------------------

# sha256 of `qspectra table1 --json` and `table2 --json`, recorded from the
# program's output; any change to the canonical table JSON is a failure
TABLE_SHA256 = {
    "table1": "6cb83d5a1afbe6fa57e61963ecea6184b64224f3007a874a74483e71929f7269",
    "table2": "a6931153ecab9979fd0597598e2b249325775838f5f8616eb2fae5f654bac075",
}

CLI_KINDS = ("table1", "table2", "bounds", "analyze", "family", "verify", "malformed")


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple[str, ...]
    exit_code: int
    graphs: int       # graphs the request handles
    expect: object    # kind-specific expected value for the output check


def check_request(req: Request, code: int, out: str) -> str | None:
    if code != req.exit_code:
        return f"exit {code}, expected {req.exit_code}"
    if req.exit_code != 0:
        return None
    if req.kind in TABLE_SHA256:
        digest = hashlib.sha256(out.encode()).hexdigest()
        return None if digest == req.expect else f"table JSON sha256 {digest}"
    try:
        payload = json.loads(out)
    except ValueError:
        return "output is not JSON"
    got = {
        "bounds": lambda: payload["graph6"],
        "analyze": lambda: payload["graph"]["n"],
        "family": lambda: payload["n"],
        "verify": lambda: (payload["ok"], payload["graphs_checked"]),
    }[req.kind]()
    return None if got == req.expect else f"output {got!r}, expected {req.expect!r}"


class CliCold:
    """Closed loop, one client: a fresh `python -m qspectra.cli` per request.
    Each cycle holds every request kind once, in seeded order."""

    latency_per_graph = False
    CYCLE_S = 2.0       # nominal seconds per cycle

    def __init__(self, seed: int, budget_s: float, smoke: bool, launcher=None, observer=None):
        self.seed = seed
        self.cycle_count = 1 if smoke else max(1, round(budget_s / self.CYCLE_S))
        self.env = child_env()
        self.launcher = launcher or [sys.executable, "-m", "qspectra.cli"]
        self.observer = observer    # called with (request, stderr) after each request

    def cycles(self):
        rng = random.Random(self.seed)
        while True:
            kinds = list(CLI_KINDS)
            rng.shuffle(kinds)
            yield [self._request(kind, rng) for kind in kinds]

    def graphs(self):
        """Distinct input graphs of the single-graph requests, for tracing."""
        seen = set()
        for req in itertools.chain.from_iterable(self.cycles()):
            if req.kind == "bounds":
                spec = ("graph6", req.args[2])
            elif req.kind in ("analyze", "family"):
                spec = ("family", req.args[-3], (int(req.args[-2]),))
            else:
                continue
            if spec not in seen:
                seen.add(spec)
                yield spec

    @staticmethod
    def _request(kind: str, rng: random.Random) -> Request:
        if kind in TABLE_SHA256:
            return Request(kind, (kind, "--json"), 0, 8, TABLE_SHA256[kind])
        if kind == "verify":
            return Request(kind, ("verify", "4", "--json"), 0, 64, (True, 64))
        if kind == "analyze":
            k = rng.randint(3, 12)
            return Request(kind, ("analyze", "--family", "prism", str(k), "--json"),
                           0, 1, 2 * k)
        if kind == "family":
            r = rng.randint(3, 30)
            return Request(kind, ("family", "crown", str(r), "--json"), 0, 1, 2 * (r + 1))
        g6 = emit_graph6(random_graph(rng.randint(8, 16), rng.choice((0.3, 0.5)), rng))
        if kind == "bounds":
            return Request(kind, ("bounds", "--graph6", g6, "--json"), 0, 1, g6)
        # one character short: the graph6 body length no longer matches n
        return Request(kind, ("bounds", "--graph6", g6[:-1], "--json"), 2, 0, None)

    def spawn(self, args) -> subprocess.CompletedProcess:
        return subprocess.run([*self.launcher, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)

    def setup(self) -> None:
        probe = subprocess.run(
            [sys.executable, "-c", "import qspectra, qspectra.cli; print(qspectra.__file__)"],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120, check=True)
        check_import_location(probe.stdout.strip())
        # prism is never a `family` request in the measured mix
        warm = self.spawn(("family", "prism", "3", "--json"))
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up request failed: {warm.stderr}")
        self.inputs = list(itertools.chain.from_iterable(
            itertools.islice(self.cycles(), self.cycle_count)))

    def measure(self, probe: SpeedProbe) -> Measurement:
        m = Measurement()
        for req in self.inputs:
            proc, ms, raw_ms = probe.time(self.spawn, req.args)
            m.record(ms, raw_ms, req.graphs)
            m.attempted += 1
            if self.observer:
                self.observer(req, proc.stderr)
            problem = check_request(req, proc.returncode, proc.stdout)
            if problem:
                m.fail(f"{' '.join(req.args)}: {problem} {proc.stderr.strip()[-200:]}")
        return m


WORKLOAD_CLASSES = {
    "verify-small": VerifySmall,
    "analyze-mid": AnalyzeMid,
    "cli-cold": CliCold,
}


def peak_rss_mb(workload) -> float:
    """Peak resident memory of the process that does the work: this one, or
    for cli-cold the largest CLI child."""
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliCold) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024
