"""The graph-to-matroid reduction pipeline: double the input graph, attach
an apex vertex joined by parallel pairs to every vertex, and represent the
cycle matroid of the result.  Pathwidth of that matroid equals graph
pathwidth plus one, and the conversions in both directions (decomposition
to ordering, and re-ordered ordering back to decomposition) are implemented
with certificates.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from .algebra import FieldSpec
from .graph import (
    MultiGraph,
    NotADecomposition,
    PathDecomposition,
    cycle_matroid,
    validate_path_decomposition,
)
from .matroid import MAX_GROUND, GroundSetTooLarge, VectorMatroid, label_key

CLASS_LX = "Lx"
CLASS_LG = "LG"
CLASS_RG = "RG"
CLASS_RX = "Rx"
CLASS_ORDER = {CLASS_LX: 0, CLASS_LG: 1, CLASS_RG: 2, CLASS_RX: 3}


class NotDoubledForm(ValueError):
    """add_apex needs a loopless graph with exactly two edges per adjacency."""


class InvalidDecomposition(ValueError):
    """The supplied path decomposition does not validate for the base graph."""


class NotNormal(ValueError):
    """The ordering places some r-edge before its l-twin."""


class WrongShape(ValueError):
    """The ordering does not induce the aligned (L, A, B, R) block partition."""


class ReorderStuck(RuntimeError):
    """The re-ordering step found no qualifying edge; the apex-graph
    invariants that guarantee progress must have been violated."""


@dataclass(frozen=True)
class ApexGraph:
    """The doubled graph plus apex x, with every edge classified as an
    apex (Lx/Rx) or base (LG/RG) twin and the twin pairing recorded."""

    base: MultiGraph
    apex: int
    edge_class: dict
    twin: dict


def simplify_double(G: MultiGraph) -> MultiGraph:
    """Drop loops and replace every parallel class by exactly two edges.

    The result has the same vertex set and adjacency relation; edges of the
    pair between u < v are labelled 'l:u-v' and 'r:u-v'."""
    pairs = sorted(G.adjacent_pairs())
    edges = []
    for u, v in pairs:
        edges.append((u, v, f"l:{u}-{v}"))
        edges.append((u, v, f"r:{u}-{v}"))
    return MultiGraph(G.vertex_count, tuple(edges))


def add_apex(Gp: MultiGraph) -> ApexGraph:
    """Attach the apex x (index = old vertex count) with a parallel pair to
    every vertex; classify base and apex edges into l/r twins."""
    pair_edges = {}
    for u, v, lbl in Gp.edges:
        if u == v:
            raise NotDoubledForm("input has a loop")
        pair_edges.setdefault((min(u, v), max(u, v)), []).append(lbl)
    for pair, lbls in pair_edges.items():
        if len(lbls) != 2:
            raise NotDoubledForm(f"adjacency {pair} has {len(lbls)} edges, need exactly 2")

    x = Gp.vertex_count
    taken = set(Gp.edge_labels())
    edges = list(Gp.edges)
    edge_class = {}
    twin = {}
    for pair in sorted(pair_edges):
        a, b = sorted(pair_edges[pair], key=label_key)
        edge_class[a] = CLASS_LG
        edge_class[b] = CLASS_RG
        twin[a] = b
        twin[b] = a
    for v in range(Gp.vertex_count):
        la, lb = f"lx:{v}", f"rx:{v}"
        while la in taken:
            la += "'"
        taken.add(la)
        while lb in taken:
            lb += "'"
        taken.add(lb)
        edges.append((x, v, la))
        edges.append((x, v, lb))
        edge_class[la] = CLASS_LX
        edge_class[lb] = CLASS_RX
        twin[la] = lb
        twin[lb] = la
    base = MultiGraph(Gp.vertex_count + 1, tuple(edges))
    return ApexGraph(base, x, edge_class, twin)


def apex_matroid(A: ApexGraph, F: FieldSpec) -> VectorMatroid:
    """Cycle matroid of the apex graph, columns labelled by its edges."""
    return cycle_matroid(A.base, F)


def reduce_instance(G: MultiGraph, F: FieldSpec) -> tuple:
    """G -> (cycle matroid of the apex graph, apex graph); the matroid's
    matrix is its incidence representation.  Its pathwidth is pw(G) + 1.
    The apex graph has two edges per adjacent pair and per vertex, and one
    with more than MAX_GROUND is refused before it is built."""
    size = 2 * (len(G.adjacent_pairs()) + G.vertex_count)
    if size > MAX_GROUND:
        raise GroundSetTooLarge(f"{size} > {MAX_GROUND} ground elements")
    A = add_apex(simplify_double(G))
    return apex_matroid(A, F), A


def base_without_apex(A: ApexGraph) -> MultiGraph:
    """The doubled base graph (apex and its edges removed)."""
    edges = tuple((u, v, lbl) for u, v, lbl in A.base.edges if A.apex not in (u, v))
    return MultiGraph(A.base.vertex_count - 1, edges)


# ---------------------------------------------------------------------------
# decompositions -> orderings


def decomp_to_ordering(A: ApexGraph, D: PathDecomposition) -> tuple:
    """Ordering of the apex graph's edges induced by a decomposition of the
    base graph: block j gets the bag's new base edges plus the apex twins of
    its new vertices, ordered by class (Lx, LG, RG, Rx) then label."""
    G = base_without_apex(A)
    try:
        validate_path_decomposition(G, D)
    except NotADecomposition as exc:
        raise InvalidDecomposition(str(exc)) from exc
    base_by_pair = {}
    for u, v, lbl in G.edges:
        base_by_pair.setdefault((min(u, v), max(u, v)), []).append(lbl)
    apex_of_vertex = {}
    for u, v, lbl in A.base.edges:
        if A.apex in (u, v):
            apex_of_vertex.setdefault(v if u == A.apex else u, []).append(lbl)
    seen = set()
    ordering = []
    for bag in D.bags:
        block = []
        for (u, v), lbls in base_by_pair.items():
            if u in bag and v in bag:
                block.extend(l for l in lbls if l not in seen)
        for v in bag:
            block.extend(l for l in apex_of_vertex[v] if l not in seen)
        block.sort(key=lambda l: (CLASS_ORDER[A.edge_class[l]], label_key(l)))
        seen.update(block)
        ordering.extend(block)
    assert len(ordering) == A.base.edge_count, "decomposition did not cover all edges"
    return tuple(ordering)


# ---------------------------------------------------------------------------
# normal orderings


def is_normal(A: ApexGraph, ordering) -> bool:
    """True iff every l-edge precedes its r-twin."""
    pos = {lbl: i for i, lbl in enumerate(ordering)}
    for lbl, cls in A.edge_class.items():
        if cls in (CLASS_LX, CLASS_LG) and pos[lbl] > pos[A.twin[lbl]]:
            return False
    return True


def normalize(A: ApexGraph, ordering) -> tuple:
    """Swap every out-of-order twin pair in place; widths are unchanged
    because twins are parallel elements."""
    seq = list(ordering)
    pos = {lbl: i for i, lbl in enumerate(seq)}
    for lbl, cls in A.edge_class.items():
        if cls in (CLASS_LX, CLASS_LG):
            i, j = pos[lbl], pos[A.twin[lbl]]
            if i > j:
                seq[i], seq[j] = seq[j], seq[i]
                pos[lbl], pos[A.twin[lbl]] = j, i
    return tuple(seq)


# ---------------------------------------------------------------------------
# the re-ordering algorithm


def reorder(A: ApexGraph, M: VectorMatroid, ordering) -> tuple:
    """Run the re-ordering pass: at step j, pull forward a closure element of
    the length-j prefix (preferring classes Lx, LG, RG, Rx), or, when the
    prefix is a flat, the apex l-edge reachable at the least extension.
    The output never has larger width and induces the aligned block shape.
    M's rank table is built first whenever `check_budget` admits it (at
    most 24 elements); past that, ranks are memoized queries."""
    if not is_normal(A, ordering):
        raise NotNormal("input ordering must be normal")
    seq = list(ordering)
    n = len(seq)
    if set(seq) != set(M.labels) or n != M.size:
        raise ValueError("ordering must permute the matroid's ground set")
    with contextlib.suppress(GroundSetTooLarge):
        M.rank_table()
    lx_labels = {lbl for lbl, cls in A.edge_class.items() if cls == CLASS_LX}

    def prefix_mask(k):
        mask = 0
        for lbl in seq[:k]:
            mask |= 1 << M.position(lbl)
        return mask

    for j in range(n):
        pmask = prefix_mask(j)
        if j == 0:
            X = 0
        else:
            X = M.closure(pmask) & ~pmask
        chosen = None
        if X == 0:
            for k in range(j + 1, n + 1):
                cl_k = M.closure(prefix_mask(k))
                cands = [
                    lbl
                    for lbl in seq[j:]
                    if lbl in lx_labels and (cl_k >> M.position(lbl)) & 1
                ]
                if cands:
                    chosen = min(cands, key=label_key)
                    break
            if chosen is None:
                raise ReorderStuck(
                    "no apex l-edge enters any prefix closure; "
                    "the apex-graph invariants are violated"
                )
        else:
            for cls in (CLASS_LX, CLASS_LG, CLASS_RG, CLASS_RX):
                cands = [
                    lbl
                    for lbl in seq[j:]
                    if A.edge_class[lbl] == cls and (X >> M.position(lbl)) & 1
                ]
                if cands:
                    chosen = min(cands, key=label_key)
                    break
            assert chosen is not None, "closure element missing from the suffix"
        m_idx = seq.index(chosen, j)
        del seq[m_idx]
        seq.insert(j, chosen)
    out = tuple(seq)
    assert is_normal(A, out), "re-ordering must preserve normality"
    return out


# ---------------------------------------------------------------------------
# block shape of re-ordered orderings


def induced_blocks(A: ApexGraph, ordering) -> tuple:
    """Coarsest partition of the ordering into consecutive groups whose class
    sequence is Lx* LG* RG* Rx* (a new group starts exactly where the class
    order decreases).  Returns a tuple of (L, A, B, R) label-tuple groups."""
    groups = []
    current = ([], [], [], [])
    prev_rank = -1
    for lbl in ordering:
        rank = CLASS_ORDER[A.edge_class[lbl]]
        if rank < prev_rank:
            groups.append(tuple(tuple(part) for part in current))
            current = ([], [], [], [])
        current[rank].append(lbl)
        prev_rank = rank
    if any(current):
        groups.append(tuple(tuple(part) for part in current))
    return tuple(groups)


def check_block_shape(A: ApexGraph, ordering) -> tuple:
    """Verify twin alignment: within each group, l in L + A iff its twin r is
    in B + R.  Returns the groups; raises WrongShape otherwise."""
    groups = induced_blocks(A, ordering)
    for gi, (L, Ablk, B, R) in enumerate(groups):
        left_pairs = {frozenset((lbl, A.twin[lbl])) for lbl in L + Ablk}
        right_pairs = {frozenset((lbl, A.twin[lbl])) for lbl in B + R}
        if left_pairs != right_pairs:
            raise WrongShape(f"group {gi}: twins split across groups")
    return groups


def check_closure_property(A: ApexGraph, M: VectorMatroid, groups) -> bool:
    """The middle blocks must appear exactly when the union of L-blocks first
    spans them: A_j + B_j inside cl(L_1..L_j) - cl(L_1..L_{j-1})."""
    l_union = 0
    prev_cl = M.closure(0)
    for L, Ablk, B, _R in groups:
        for lbl in L:
            l_union |= 1 << M.position(lbl)
        cur_cl = M.closure(l_union)
        for lbl in Ablk + B:
            bit = M.position(lbl)
            if not (cur_cl >> bit) & 1 or (prev_cl >> bit) & 1:
                return False
        prev_cl = cur_cl
    return True


# ---------------------------------------------------------------------------
# orderings -> decompositions


def ordering_to_decomp(A: ApexGraph, ordering) -> PathDecomposition:
    """Bags read off a block-shaped ordering: at each group boundary
    Y_j = (everything before the group) + L_j + A_j, the bag is the vertex
    set common to the subgraphs induced by Y_j and its complement."""
    groups = check_block_shape(A, ordering)
    endpoints = {lbl: (u, v) for u, v, lbl in A.base.edges}
    all_labels = set(A.base.edge_labels())

    def vertices_of(labels):
        verts = set()
        for lbl in labels:
            u, v = endpoints[lbl]
            verts.add(u)
            verts.add(v)
        return verts

    bags = []
    before: set = set()
    for L, Ablk, B, R in groups:
        Y = before | set(L) | set(Ablk)
        Yc = all_labels - Y
        bags.append(frozenset(vertices_of(Y) & vertices_of(Yc)))
        before = Y | set(B) | set(R)
    D = PathDecomposition(tuple(bags))
    validate_path_decomposition(A.base, D)
    return D


def strip_apex(D: PathDecomposition, apex: int) -> PathDecomposition:
    """Remove the apex from every bag, giving a decomposition of the base."""
    return PathDecomposition(tuple(frozenset(b - {apex}) for b in D.bags))


# ---------------------------------------------------------------------------
# sidecar documents: everything needed to rebuild an ApexGraph downstream


def apex_graph_to_doc(A: ApexGraph) -> dict:
    from .graph import graph_to_text

    labels = A.base.edge_labels()
    return {
        "apex": A.apex,
        "edge_order": [str(lbl) for lbl in labels],
        "edge_class": {str(lbl): A.edge_class[lbl] for lbl in labels},
        "twins": {str(lbl): str(A.twin[lbl]) for lbl in labels},
        "graph": graph_to_text(A.base),
    }
