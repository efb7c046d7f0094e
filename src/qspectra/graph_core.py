"""Simple undirected graphs: construction, named families, structure, text
formats, and the order cap every graph input is checked against.

Vertices are 0..n-1. Edges are stored as a sorted tuple of (u, v) pairs with
u < v, so two Graph objects compare equal exactly when they are the same
labeled graph. All constructors validate; enumeration helpers, and
parse_edgelist once it has checked each line, build trusted edge tuples
directly.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "MAX_ORDER",
    "Graph",
    "DegreeStats",
    "StructureInfo",
    "graph_from_edges",
    "complete",
    "complete_bipartite",
    "star",
    "cycle",
    "path",
    "matching",
    "crown",
    "prism",
    "disjoint_union",
    "disjoint_copies",
    "cartesian_product",
    "build_family",
    "FAMILY_KINDS",
    "degree_stats",
    "structure",
    "parse_graph6",
    "emit_graph6",
    "parse_edgelist",
    "emit_edgelist",
    "render_json",
    "mask_pairs",
    "graph_from_mask",
    "random_graph",
]

# The largest vertex count the CLI accepts; graph input above it is refused
# before any matrix is built. A solve holds an n x n float64 matrix and costs
# O(n^3) per sweep; README "Command-line interface" gives its cost at the cap.
MAX_ORDER = 1024


class Graph:
    """Immutable simple graph with precomputed degrees and adjacency sets.
    Two graphs are equal, and hash equal, when n and edges are."""

    __slots__ = ("n", "edges", "degrees", "adjacency")

    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]
    adjacency: tuple[frozenset[int], ...]

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        deg = [0] * n
        adj = [set() for _ in range(n)]
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "degrees", tuple(deg))
        object.__setattr__(self, "adjacency", tuple(frozenset(s) for s in adj))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __reduce__(self):
        # pickle and copy rebuild the graph through __init__, since
        # __setattr__ refuses the slot-by-slot restore
        return self.__class__, (self.n, self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def graph_from_edges(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Validated constructor: rejects loops and out-of-range endpoints,
    deduplicates, and canonicalizes edge order."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")
    seen = set()
    for e in edges:
        u, v = e
        if not (isinstance(u, int) and isinstance(v, int)):
            raise ValueError(f"edge endpoints must be integers: {(u, v)!r}")
        if u == v:
            raise ValueError(f"loop edge not allowed: {(u, v)}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range 0..{n - 1}: {(u, v)}")
        seen.add((u, v) if u < v else (v, u))
    return Graph(n, tuple(sorted(seen)))


# -- named families ----------------------------------------------------------

def complete(n: int) -> Graph:
    _require_size("complete", n)
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    _require_size("complete_bipartite", a)
    _require_size("complete_bipartite", b)
    edges = tuple((i, a + j) for i in range(a) for j in range(b))
    return Graph(a + b, edges)


def star(n: int) -> Graph:
    """Star on n vertices: one center joined to the other n-1."""
    _require_size("star", n)
    return Graph(n, tuple((0, i) for i in range(1, n)))


def cycle(n: int) -> Graph:
    _require_cycle_length(n)
    return Graph(n, tuple(sorted((i, (i + 1) % n) if i < (i + 1) % n
                                 else ((i + 1) % n, i) for i in range(n))))


def path(n: int) -> Graph:
    _require_size("path", n)
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def matching(k: int) -> Graph:
    """k disjoint edges on 2k vertices."""
    _require_size("matching", k)
    return Graph(2 * k, tuple((2 * i, 2 * i + 1) for i in range(k)))


def crown(r: int) -> Graph:
    """Complete bipartite graph on r+1 plus r+1 vertices minus a perfect
    matching; r-regular bipartite on 2(r+1) vertices."""
    _require_size("crown", r)
    s = r + 1
    edges = tuple((i, s + j) for i in range(s) for j in range(s) if i != j)
    return Graph(2 * s, edges)


def prism(n: int) -> Graph:
    """Circular ladder: the Cartesian product of an n-cycle with one edge."""
    return cartesian_product(cycle(n), path(2))


def disjoint_union(*graphs: Graph) -> Graph:
    if not graphs:
        raise ValueError("disjoint_union needs at least one graph")
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(offset, tuple(edges))


def disjoint_copies(k: int, g: Graph) -> Graph:
    _require_size("disjoint_copies", k)
    return disjoint_union(*([g] * k))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Vertex (u, v) maps to index u * h.n + v."""
    hn = h.n
    edges = []
    for u in range(g.n):
        base = u * hn
        edges.extend((base + x, base + y) for x, y in h.edges)
    for x, y in g.edges:
        bx, by = x * hn, y * hn
        edges.extend((bx + v, by + v) for v in range(hn))
    return Graph(g.n * hn, tuple(sorted(edges)))


def _require_size(kind: str, value: int) -> int:
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{kind}: size parameters must be integers >= 1, got {value!r}")
    return value


def _require_cycle_length(n: int) -> int:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return n


# kind -> (builder, parameter count, vertex count). The vertex count checks the
# parameters as the builder does, with the same errors, and builds nothing. The
# copies kind nests another family instead.
_FAMILY_BUILDERS = {
    "complete": (complete, 1, lambda n: _require_size("complete", n)),
    "complete_bipartite": (complete_bipartite, 2,
                           lambda a, b: (_require_size("complete_bipartite", a)
                                         + _require_size("complete_bipartite", b))),
    "star": (star, 1, lambda n: _require_size("star", n)),
    "cycle": (cycle, 1, _require_cycle_length),
    "path": (path, 1, lambda n: _require_size("path", n)),
    "matching": (matching, 1, lambda k: 2 * _require_size("matching", k)),
    "crown": (crown, 1, lambda r: 2 * _require_size("crown", r) + 2),
    "prism": (prism, 1, lambda n: 2 * _require_cycle_length(n)),
}
FAMILY_KINDS = (*_FAMILY_BUILDERS, "copies")


def build_family(kind: str, params: Sequence[int],
                 check_order: Callable[[int], None] | None = None) -> Graph:
    """Dispatch a family by name. 'copies k <kind> <params...>' nests. Every
    parameter is checked first; then check_order, when given, sees the vertex
    count before anything is built, and may raise to refuse it."""
    order, build = _family_plan(kind, list(params))
    if check_order is not None:
        check_order(order)
    return build()


def _family_plan(kind: str, params: list) -> tuple[int, Callable[[], Graph]]:
    """A family's vertex count, with every parameter checked, and a function
    that builds it."""
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}; known: {', '.join(FAMILY_KINDS)}")
    if kind not in _FAMILY_BUILDERS:    # copies
        if len(params) < 2:
            raise ValueError("copies needs a count and an inner family")
        count = _as_int(params[0])
        order, inner = _family_plan(str(params[1]), params[2:])
        _require_size("disjoint_copies", count)
        return count * order, lambda: disjoint_copies(count, inner())
    fn, arity, order_of = _FAMILY_BUILDERS[kind]
    if len(params) != arity:
        raise ValueError(f"family {kind} takes {arity} parameter(s), got {len(params)}")
    values = [_as_int(p) for p in params]
    return order_of(*values), lambda: fn(*values)


def _as_int(value) -> int:
    if isinstance(value, int):
        return value
    try:
        return int(str(value), 10)
    except ValueError:
        raise ValueError(f"family parameters must be integers, got {value!r}") from None


# -- degree statistics and structure -----------------------------------------

class DegreeStats(NamedTuple):
    n: int
    m: int
    max_degree: int
    min_degree: int
    average_degree: Fraction  # 2m/n, exact
    zagreb_m1: int            # sum of squared degrees


def degree_stats(g: Graph) -> DegreeStats:
    # imported here, so that the commands that need no degree statistics
    # (family, refused input) do not load fractions
    from fractions import Fraction

    deg = g.degrees
    return DegreeStats(
        n=g.n,
        m=g.m,
        max_degree=max(deg),
        min_degree=min(deg),
        average_degree=Fraction(2 * g.m, g.n),
        zagreb_m1=sum(d * d for d in deg),
    )


class StructureInfo(NamedTuple):
    components: tuple[tuple[int, ...], ...]   # vertex lists, each sorted, by min vertex
    is_connected: bool
    component_bipartite: tuple[bool, ...]
    is_bipartite: bool
    bipartite_component_count: int
    is_regular: bool
    regularity_degree: int | None


def structure(g: Graph) -> StructureInfo:
    """Connected components with per-component two-colorability."""
    seen = [False] * g.n
    comps: list[tuple[int, ...]] = []
    bip_flags: list[bool] = []
    for s0 in range(g.n):
        if seen[s0]:
            continue
        color = {s0: 0}
        seen[s0] = True
        stack = [s0]
        verts = [s0]
        bip = True
        while stack:
            u = stack.pop()
            cu = color[u]
            for w in g.adjacency[u]:
                if w in color:
                    if color[w] == cu:
                        bip = False
                else:
                    color[w] = 1 - cu
                    seen[w] = True
                    stack.append(w)
                    verts.append(w)
        comps.append(tuple(sorted(verts)))
        bip_flags.append(bip)
    deg = g.degrees
    regular = max(deg) == min(deg)
    return StructureInfo(
        components=tuple(comps),
        is_connected=len(comps) == 1,
        component_bipartite=tuple(bip_flags),
        is_bipartite=all(bip_flags),
        bipartite_component_count=sum(bip_flags),
        is_regular=regular,
        regularity_degree=deg[0] if regular else None,
    )


# -- structural predicates (used by the classifiers and equality diagnosis) ---

def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def common_neighbour_counts(g: Graph) -> Iterator[tuple[bool, int]]:
    """(adjacent, number of shared neighbours) for every vertex pair u < v,
    in lexicographic pair order."""
    adj = g.adjacency
    for u in range(g.n):
        for v in range(u + 1, g.n):
            yield v in adj[u], len(adj[u] & adj[v])


# -- graph6 format ------------------------------------------------------------

_G6_MAX_LONG = 258047  # largest vertex count of the 4-byte header form


def emit_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        header = chr(n + 63)
    elif n <= _G6_MAX_LONG:
        header = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError(f"graph6 supports at most {_G6_MAX_LONG} vertices, got {n}")
    bits = []
    # upper triangle in column order: (0,1), (0,2), (1,2), (0,3), ...
    for j in range(1, n):
        adj = g.adjacency[j]
        bits.extend(1 if i in adj else 0 for i in range(j))
    out = [header]
    for k in range(0, len(bits), 6):
        group = bits[k:k + 6]
        group += [0] * (6 - len(group))
        out.append(chr(sum(b << (5 - i) for i, b in enumerate(group)) + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[10:]
    if not line:
        raise ValueError("graph6: empty input")
    for ch in line:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"graph6: character {ch!r} out of range")
    if line[0] == "~":
        if len(line) >= 2 and line[1] == "~":
            raise ValueError("graph6: 8-byte vertex counts are not supported")
        if len(line) < 4:
            raise ValueError("graph6: truncated long-form vertex count")
        n = 0
        for ch in line[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = line[4:]
    else:
        n = ord(line[0]) - 63
        body = line[1:]
    if n < 1:
        raise ValueError(f"graph6: vertex count must be >= 1, got {n}")
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise ValueError(
            f"graph6: body has {len(body)} characters, expected {expect} for n={n}")
    bits = []
    for ch in body:
        v = ord(ch) - 63
        bits.extend((v >> (5 - i)) & 1 for i in range(6))
    if any(bits[nbits:]):
        raise ValueError("graph6: nonzero padding bits")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    # column order is not the canonical edge order; sort before constructing
    return Graph(n, tuple(sorted(edges)))


# -- edge-list text format -----------------------------------------------------

def emit_edgelist(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str,
                   check_order: Callable[[int], None] | None = None) -> Graph:
    """First significant line is the vertex count, at most the graph6 limit;
    each following line one 'u v' pair. '#' starts a comment; blank lines are
    skipped. check_order, when given, sees the vertex count as soon as it is
    read, and may raise to refuse it."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: expected vertex count, got {line!r}") from None
            if not 1 <= n <= _G6_MAX_LONG:
                raise ValueError(f"line {lineno}: vertex count must be between 1 "
                                 f"and {_G6_MAX_LONG}, got {n}")
            if check_order is not None:
                check_order(n)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"line {lineno}: endpoints must be integers, got {line!r}") from None
        if u == v:
            raise ValueError(f"line {lineno}: loop edge not allowed: {(u, v)}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(
                f"line {lineno}: edge endpoint out of range 0..{n - 1}: {(u, v)}")
        edges.append((u, v) if u < v else (v, u))
    if n is None:
        raise ValueError("edge list: no vertex count found")
    return Graph(n, tuple(sorted(set(edges))))


def record_dict(record: NamedTuple) -> dict[str, Any]:
    """A record's fields by name, for render_json, which would print a
    record as a list. A field that holds a record (a BoundResult's
    diagnosis) becomes a nested dict too."""
    return {name: record_dict(value) if hasattr(value, "_asdict") else value
            for name, value in record._asdict().items()}


def render_json(payload: Any) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, trailing
    newline. Byte-stable for equal payloads."""
    return json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


# -- enumeration and sampling --------------------------------------------------

def mask_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The edge order of a mask on n vertices: bit i selects the i-th pair of
    itertools.combinations(range(n), 2)."""
    return tuple(itertools.combinations(range(n), 2))


def graph_from_mask(n: int, mask: int) -> Graph:
    """The labeled graph whose edges are the mask_pairs(n) its bits select."""
    pairs = mask_pairs(n)
    return Graph(n, tuple(pairs[i] for i in range(len(pairs)) if (mask >> i) & 1))


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Uniform G(n, p) from the supplied generator."""
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < p)
    return Graph(n, edges)
