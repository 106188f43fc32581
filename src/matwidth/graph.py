"""Multigraphs, path decompositions, exact graph pathwidth via vertex
separation, cycle matroids from incidence matrices, and umbrella graphs.

Graph pathwidth is computed by the vertex-separation subset DP (the layout
quantity equals pathwidth) and the witnessing layout is converted to bags;
a brute-force search over bounded-width bag sequences backs it up for tiny
graphs in the test suite.  The DP has the matroid solver's refusal rule,
`matroid.check_budget`, with its 2^n states at STATE_BYTES each: 25
vertices fit, 26 are refused before anything is allocated.  The boundary
costs are built one row of LOW_STATES subsets at a time, so their
temporaries stay within that allowance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import FieldSpec, GfMatrix
from .matroid import MAX_GROUND, GroundSetTooLarge, VectorMatroid, check_budget, label_key
from .pathwidth import LOW_STATES, prefix_dp


class NotADecomposition(ValueError):
    """The bag sequence violates a path-decomposition condition."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class CircuitTooSmall(ValueError):
    """Umbrellas need a circuit on at least 3 vertices (m >= 2)."""


class NotAnUmbrella(ValueError):
    """The graph does not have the umbrella shape."""


@dataclass(frozen=True)
class MultiGraph:
    """Vertices 0..vertex_count-1; edges are (u, v, label) with loops and
    parallel edges allowed.  Edge labels must be pairwise distinct."""

    vertex_count: int
    edges: tuple

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError(f"negative vertex count {self.vertex_count}")
        edges = tuple((u, v, lbl) for u, v, lbl in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v, _ in edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge endpoint out of range: {(u, v)}")
        labels = [lbl for _, _, lbl in edges]
        if len(set(labels)) != len(labels):
            raise ValueError("edge labels must be pairwise distinct")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_labels(self) -> tuple:
        return tuple(lbl for _, _, lbl in self.edges)

    def adjacency_masks(self) -> list:
        """Neighbour bitmask per vertex; loops ignored."""
        adj = [0] * self.vertex_count
        for u, v, _ in self.edges:
            if u != v:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        return adj

    def adjacent_pairs(self) -> set:
        """Distinct adjacent vertex pairs (u < v); loops ignored."""
        return {(min(u, v), max(u, v)) for u, v, _ in self.edges if u != v}


def mk_graph(vertex_count: int, pairs) -> MultiGraph:
    """Graph from (u, v) pairs with default integer labels 1..m."""
    return MultiGraph(vertex_count, tuple((u, v, i + 1) for i, (u, v) in enumerate(pairs)))


def complete_graph(n: int) -> MultiGraph:
    return mk_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> MultiGraph:
    return mk_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def path_graph(n: int) -> MultiGraph:
    return mk_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> MultiGraph:
    return mk_graph(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# path decompositions


@dataclass(frozen=True)
class PathDecomposition:
    bags: tuple  # tuple of frozensets of vertices

    def __post_init__(self):
        object.__setattr__(self, "bags", tuple(frozenset(b) for b in self.bags))


def validate_path_decomposition(G: MultiGraph, D: PathDecomposition) -> int:
    """Check conditions (i)-(iii) and return the width max|V_i| - 1, which
    is -1 for the null graph (max over no bags, or over empty ones)."""
    bags = D.bags
    n = G.vertex_count
    if not bags:
        if n == 0:
            return -1
        raise NotADecomposition("condition (i): no bags but graph has vertices")
    for b in bags:
        for v in b:
            if not (0 <= v < n):
                raise NotADecomposition(f"bag contains unknown vertex {v}")
    covered = set().union(*bags)
    missing = set(range(n)) - covered
    if missing:
        raise NotADecomposition(f"condition (i): vertices {sorted(missing)} in no bag")
    for u, v in sorted(G.adjacent_pairs()):
        if not any(u in b and v in b for b in bags):
            raise NotADecomposition(f"condition (ii): adjacent pair ({u},{v}) share no bag")
    # condition (iii) is equivalent to every vertex occurring in a contiguous run
    for v in range(n):
        hits = [i for i, b in enumerate(bags) if v in b]
        if hits and hits[-1] - hits[0] + 1 != len(hits):
            gap = next(i for i in range(hits[0], hits[-1]) if v not in bags[i])
            raise NotADecomposition(
                f"condition (iii): vertex {v} missing from bag {gap} between occurrences"
            )
    return max(len(b) for b in bags) - 1


def graph_pathwidth(G: MultiGraph) -> tuple:
    """Exact pw(G) and a witnessing decomposition, via the vertex-separation
    subset DP; parallel edges and loops cannot affect the value.  The null
    graph has pathwidth -1 and no bags.  Refused by `check_budget` for its
    2^n states (module docstring)."""
    n = G.vertex_count
    check_budget(0, 1 << n)
    if n == 0:
        return -1, PathDecomposition(())
    adj = G.adjacency_masks()
    vs_value, layout = prefix_dp(_boundary(adj, n), n, lambda v: v)
    bags = []
    placed = 0
    for v in layout:
        bag = {v}
        for u in range(n):
            if (placed >> u) & 1 and adj[u] & ~placed:
                bag.add(u)
        placed |= 1 << v
        bags.append(frozenset(bag))
    decomp = PathDecomposition(tuple(bags))
    width = validate_path_decomposition(G, decomp)
    assert width == vs_value, "layout-to-bags conversion changed the width"
    return vs_value, decomp


def _boundary(adj, n) -> np.ndarray:
    """boundary[S] = the number of vertices of S with a neighbour outside
    S, for every subset S of the n vertices (uint8), one row of at most
    LOW_STATES subsets at a time; a graph of at most 16 vertices is one
    row."""
    size = 1 << n
    step = min(size, LOW_STATES)
    boundary = np.zeros(size, dtype=np.uint8)
    for start in range(0, size, step):
        masks = np.arange(start, start + step, dtype=np.uint32)
        row = boundary[start:start + step]
        for u in range(n):
            in_s = (masks >> u) & 1
            has_out = (masks & np.uint32(adj[u])) != np.uint32(adj[u])
            row += (in_s & has_out).astype(np.uint8)
    return boundary


# ---------------------------------------------------------------------------
# cycle matroids


def cycle_matroid(G: MultiGraph, F: FieldSpec) -> VectorMatroid:
    """Vertex-arc incidence representation of M(G): orientation is fixed as
    +1 at the smaller endpoint, -1 at the larger; loops become zero columns.
    A graph with more than MAX_GROUND edges is refused before the matrix is
    built."""
    if G.edge_count > MAX_GROUND:
        raise GroundSetTooLarge(f"{G.edge_count} > {MAX_GROUND} ground elements")
    m = G.vertex_count
    cols = []
    for u, v, _ in G.edges:
        col = [0] * m
        if u != v:
            col[min(u, v)] = 1
            col[max(u, v)] = F.neg(1)
        cols.append(col)
    entries = [[col[i] for col in cols] for i in range(m)]
    mat = GfMatrix(F, entries, cols=len(cols))
    return VectorMatroid(mat, G.edge_labels())


# ---------------------------------------------------------------------------
# umbrellas


def make_umbrella(parallel_counts) -> MultiGraph:
    """Circuit u_0 u_1 .. u_m u_0 plus parallel_counts[i-1] extra parallel
    edges between u_0 and u_i.  Deleting u_0 leaves the path u_1 - .. - u_m."""
    counts = list(parallel_counts)
    m = len(counts)
    if m < 2:
        raise CircuitTooSmall("umbrella needs m >= 2 spine vertices")
    if any(c < 0 for c in counts):
        raise ValueError("parallel counts must be non-negative")
    pairs = [(i, i + 1) for i in range(m)]
    pairs.append((m, 0))
    for i in range(1, m + 1):
        pairs.extend((0, i) for _ in range(counts[i - 1]))
    return mk_graph(m + 1, pairs)


def _umbrella_shape(H: MultiGraph):
    """Find (apex, path order) certifying the umbrella shape, or None."""
    n = H.vertex_count
    if n < 3 or any(u == v for u, v, _ in H.edges):
        return None
    for apex in range(n):
        rest = [v for v in range(n) if v != apex]
        path_edges = [(u, v) for u, v, _ in H.edges if u != apex and v != apex]
        # the non-apex part must be a simple spanning path
        if len(path_edges) != n - 2 or len(set(tuple(sorted(e)) for e in path_edges)) != len(path_edges):
            continue
        deg = {v: 0 for v in rest}
        nbr = {v: [] for v in rest}
        for u, v in path_edges:
            deg[u] += 1
            deg[v] += 1
            nbr[u].append(v)
            nbr[v].append(u)
        ends = [v for v in rest if deg[v] == 1]
        if len(ends) != 2 or any(deg[v] not in (1, 2) for v in rest):
            continue
        start = min(ends)
        order = [start]
        prev = None
        cur = start
        while len(order) < len(rest):
            nxt = [w for w in nbr[cur] if w != prev]
            if len(nxt) != 1:
                break
            prev, cur = cur, nxt[0]
            order.append(cur)
        if len(order) != len(rest):
            continue
        apex_neighbors = {v for u, v, _ in H.edges if u == apex} | {
            u for u, v, _ in H.edges if v == apex
        }
        if order[0] in apex_neighbors and order[-1] in apex_neighbors:
            return apex, order
    return None


def umbrella_ordering(H: MultiGraph) -> tuple:
    """The explicit low-width edge ordering (E_1, e_1, E_2, e_2, .., E_m):
    all u_0-u_i edges, then the path edge u_i-u_{i+1}, and so on."""
    shape = _umbrella_shape(H)
    if shape is None:
        raise NotAnUmbrella("graph is not an umbrella")
    apex, order = shape
    spoke = {v: [] for v in order}
    path_edge = {}
    for u, v, lbl in H.edges:
        if u == apex or v == apex:
            spoke[v if u == apex else u].append(lbl)
        else:
            path_edge[tuple(sorted((order.index(u), order.index(v))))] = lbl
    ordering = []
    for i, v in enumerate(order):
        ordering.extend(sorted(spoke[v], key=label_key))
        if i + 1 < len(order):
            ordering.append(path_edge[(i, i + 1)])
    return tuple(ordering)


# ---------------------------------------------------------------------------
# text format: first line the vertex count, then "u v [label]" per edge


def graph_to_text(G: MultiGraph) -> str:
    lines = [str(G.vertex_count)]
    for u, v, lbl in G.edges:
        lines.append(f"{u} {v} {lbl}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> MultiGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    n = int(lines[0])
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        toks = ln.split()
        if len(toks) not in (2, 3):
            raise ValueError(f"line {i}: expected 'u v [label]'")
        u, v = int(toks[0]), int(toks[1])
        if len(toks) == 3:
            try:
                lbl = int(toks[2])
            except ValueError:
                lbl = toks[2]
        else:
            lbl = i - 1
        edges.append((u, v, lbl))
    return MultiGraph(n, tuple(edges))
