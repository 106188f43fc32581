"""Ordering widths, exact matroid pathwidth with certificate orderings,
a greedy upper bound, and caterpillar branch-decompositions.

The exact solver is a DP over prefix sets:
B(S) = max(lambda(S), min over e in S of B(S - e)), B(empty) = 0, and the
optimal ordering is recovered by walking predecessors from the full
ground set.  The same DP (`prefix_dp`) with vertex-boundary costs gives
graph pathwidth.

States are class counts, not subsets.  The ground set is split into
parallel classes (columns equal once scaled to lead with 1, and all loops
together).  Swapping two elements of a class is an automorphism of M, so
lambda(S), and by induction B(S), depend only on how many elements of each
class S holds: r(S) is the simplification's rank of the classes S meets,
r(E - S) that of the classes S does not hold whole.  A state is the count
vector c stored as x = sum c_j * stride_j in mixed radix |class_j| + 1
(class 0 fastest), swept in layers of equal digit sum, and

    B(x) = max(cost[x], min over j of B[x - stride_j]).

For c_j = 0 the subtraction borrows from a higher digit, landing in the
same layer or a higher one, or wraps below 0 to a higher layer (the gather
wraps indices mod the state count); B is still 255 there, so that entry
never wins and no digit test is needed.  With every class a singleton the
strides are 2^j, x is the subset's bitmask and this is the subset DP.

The back-walk removes, from the winning class, its remaining member with
the smallest tie key.  Within a class every member gives the same
B(S - e), so this is the subset DP's tie rule: the e with smallest
(B(S - e), tie_key(e), e).  On the apex matroids of the graph reduction
every element has a parallel twin, so an n-element instance has 3^(n/2)
states instead of 2^n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import algebra
from .matroid import VectorMatroid, delete, label_key

DEFAULT_EXACT_CAP = 24


class NotAPermutation(ValueError):
    """The given ordering is not a permutation of the ground set."""


class GroundSetTooLargeForExact(ValueError):
    """Ground set exceeds the exact solver's cap; no silent approximation."""


class TooFewElements(ValueError):
    """Caterpillar trees need at least two leaves."""


class LeafLabelMismatch(ValueError):
    """A branch-decomposition's leaf labels must be exactly the ground set."""


@dataclass(frozen=True)
class WidthCertificate:
    """An ordering together with all its prefix connectivity values."""

    width: int
    ordering: tuple
    prefix_lambdas: tuple

    def to_doc(self) -> dict:
        return {
            "width": self.width,
            "ordering": list(self.ordering),
            "prefix_lambdas": list(self.prefix_lambdas),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))


def _check_permutation(M: VectorMatroid, ordering) -> tuple:
    ordering = tuple(ordering)
    if len(ordering) != M.size or set(ordering) != set(M.labels):
        raise NotAPermutation("ordering must list every ground element exactly once")
    return ordering


def width_of_ordering(M: VectorMatroid, ordering) -> WidthCertificate:
    """Certificate for w_M(e_1..e_n) = max over prefixes of lambda, by
    elimination on the matrix columns and never a rank table: r(prefix)
    from one echelon_push pass in order, r(E - prefix) from one in reverse
    order."""
    ordering = _check_permutation(M, ordering)
    cols = [M.matrix.column(M.position(lbl)) for lbl in ordering]

    def ranks(seq):
        basis, out = [], []
        for col in seq:
            algebra.echelon_push(M.field, basis, col)
            out.append(len(basis))
        return out

    head = ranks(cols)  # head[t] = r(ordering[: t + 1])
    tail = ranks(reversed(cols))[::-1][1:] + [0]  # tail[t] = r(ordering[t + 1 :])
    lambdas = tuple(h + t - M.rank_full for h, t in zip(head, tail))
    return WidthCertificate(max(lambdas, default=0), ordering, lambdas)


def parallel_classes(M: VectorMatroid) -> list:
    """Column positions grouped into parallel classes, in order of first
    column: columns agree once scaled to lead with 1, and the zero columns
    (loops) form one class."""
    field = M.field
    classes = {}
    for j in range(M.size):
        col = M.matrix.column(j)
        lead = next((x for x in col if x), 0)
        key = tuple(field.mul(field.inv(lead), x) for x in col) if lead else None
        classes.setdefault(key, []).append(j)
    return list(classes.values())


def _strides(classes) -> tuple:
    """Mixed-radix strides of the class-count states and their number."""
    strides, size = [], 1
    for c in classes:
        strides.append(size)
        size *= len(c) + 1
    return strides, size


def _class_lambdas(M: VectorMatroid, classes) -> np.ndarray:
    """lambda of every class-count state (uint8, module docstring): the
    simplification's rank table gathered along each class axis, for r(S) at
    count c by [c > 0] and for r(E - S) by [c = |class|] on the reversed
    table.  The simplification is M itself when M is simple."""
    loop = next((j for j, c in enumerate(classes) if not any(M.matrix.column(c[0]))), None)
    reps = {c[0] for j, c in enumerate(classes) if j != loop}
    if len(reps) == M.size:
        simple = M
    else:
        simple = delete(M, [lbl for i, lbl in enumerate(M.labels) if i not in reps])
    table = simple.rank_table()
    shape = (2,) * len(reps)  # class j on axis J - 1 - j, class 0 fastest
    head, tail = table.reshape(shape), table[::-1].reshape(shape)
    last = len(classes) - 1
    if loop is not None:
        head, tail = np.expand_dims(head, last - loop), np.expand_dims(tail, last - loop)
    for j, c in enumerate(classes):
        s = len(c)
        if j == loop:
            head_idx = tail_idx = np.zeros(s + 1, dtype=np.intp)
        elif s > 1:
            head_idx = np.minimum(np.arange(s + 1), 1)
            tail_idx = (np.arange(s + 1) == s).astype(np.intp)
        else:
            continue
        head = np.take(head, head_idx, axis=last - j)
        tail = np.take(tail, tail_idx, axis=last - j)
    lam = head + tail
    lam -= np.uint8(M.rank_full)
    return lam.reshape(-1)


def prefix_dp(cost: np.ndarray, classes, tie_key) -> tuple:
    """The layered DP B(x) = max(cost[x], min over j of B[x - stride_j]),
    B(0) = 0, over class-count states x (module docstring), and an optimal
    order of the elements walked back to front from the full state.
    classes lists each class's element indices; an int n stands for the n
    singletons {0}, .., {n - 1}, where x is a subset's bitmask.  At each
    step of the walk the e with smallest (B(x - e), tie_key(e), e) goes
    last.  Returns (B(full state), order).

    cost is uint8 with every entry below 255 (lambda <= 64 on a matroid, at
    most 16 on a graph's vertex boundary).  B starts at 255 outside the
    empty state, so each layer takes its min over every class: where
    c_j = 0 the gather lands in this layer or a later one, still 255, and
    never wins."""
    if isinstance(classes, int):
        classes = [[e] for e in range(classes)]
    strides, size = _strides(classes)
    layer = np.zeros(1, dtype=np.uint8)  # digit sums, class 0 fastest
    for c in classes:
        layer = (np.arange(len(c) + 1, dtype=np.uint8)[:, None] + layer).reshape(-1)
    B = np.full(size, 255, dtype=np.uint8)
    B[0] = 0
    for d in range(1, int(layer[-1]) + 1):  # up to the full state's digit sum, n
        _relax_layer(B, cost, np.flatnonzero(layer == d), strides)
    members = [sorted(c, key=lambda e: (tie_key(e), e)) for c in classes]
    taken = [0] * len(classes)
    seq = []
    x = size - 1
    while x:
        _, _, e, j = min((int(B[x - strides[j]]), tie_key(c[t]), c[t], j)
                         for j, (c, t) in enumerate(zip(members, taken)) if t < len(c))
        seq.append(e)
        taken[j] += 1
        x -= strides[j]
    return int(B[size - 1]), seq[::-1]


def _relax_layer(B, cost, idx, strides) -> None:
    """B[idx] = max(cost[idx], min over strides of B[idx - stride]), gathered
    mod B.size through one buffer for idx - stride.  A function of its own,
    so that its arrays are freed before the next layer's index is built:
    the int64 index of the largest layer is 21.6 MB at 2^24 states."""
    best = np.full(idx.size, 255, dtype=np.uint8)
    got = np.empty_like(best)
    prev = np.empty_like(idx)
    for stride in strides:
        np.subtract(idx, stride, out=prev)
        np.take(B, prev, mode="wrap", out=got)
        np.minimum(best, got, out=best)
    B[idx] = np.maximum(best, cost[idx], out=best)


def pathwidth_exact(M: VectorMatroid, exact_cap: int = DEFAULT_EXACT_CAP) -> WidthCertificate:
    """Optimal width and a witnessing ordering; refuses beyond the cap (in
    elements, whatever the classes)."""
    n = M.size
    if n > exact_cap:
        raise GroundSetTooLargeForExact(f"{n} elements exceeds the exact cap {exact_cap}")
    if n == 0:
        return WidthCertificate(0, (), ())
    classes = parallel_classes(M)
    lam = _class_lambdas(M, classes)
    width, order = prefix_dp(lam, classes, lambda i: label_key(M.labels[i]))
    # the certificate's lambdas come from elimination, so the table that
    # produced the width cannot vouch for itself
    cert = width_of_ordering(M, [M.labels[i] for i in order])
    strides, _ = _strides(classes)
    stride_of = {i: strides[j] for j, c in enumerate(classes) for i in c}
    x = 0
    for i, lam_i in zip(order, cert.prefix_lambdas):
        x += stride_of[i]
        if lam[x] != lam_i:
            raise AssertionError(f"rank table gives lambda {lam[x]} for a prefix, elimination {lam_i}")
    if width != cert.width:
        raise AssertionError(f"DP width {width} but the ordering has width {cert.width}")
    return cert


def pathwidth_upper_greedy(M: VectorMatroid) -> WidthCertificate:
    """Greedy upper bound: repeatedly take the element minimizing the new
    prefix lambda, ties by label order."""
    remaining = list(range(M.size))
    mask = 0
    ordering = []
    lambdas = []
    while remaining:
        best = None
        for i in remaining:
            lam = M.connectivity(mask | (1 << i))
            cand = (lam, label_key(M.labels[i]), i)
            if best is None or cand < best:
                best = cand
        lam, _, i = best
        remaining.remove(i)
        mask |= 1 << i
        ordering.append(M.labels[i])
        lambdas.append(lam)
    return WidthCertificate(max(lambdas, default=0), tuple(ordering), tuple(lambdas))


# ---------------------------------------------------------------------------
# cubic trees


@dataclass(frozen=True)
class CubicTree:
    """A tree with all degrees 1 or 3 and leaves labelled by ground elements."""

    nodes: tuple
    edges: tuple
    leaf_labels: tuple  # (node, label) pairs

    def leaf_map(self) -> dict:
        return dict(self.leaf_labels)


def caterpillar(ordering) -> CubicTree:
    """The spine tree whose leaves, in spine order, are the ordering."""
    ordering = tuple(ordering)
    n = len(ordering)
    if n < 2:
        raise TooFewElements("caterpillar needs at least 2 elements")
    leaves = tuple(range(n))
    leaf_labels = tuple((i, ordering[i]) for i in range(n))
    if n == 2:
        return CubicTree(leaves, ((0, 1),), leaf_labels)
    t = n - 2
    spine = tuple(range(n, n + t))
    edges = [(spine[j], spine[j + 1]) for j in range(t - 1)]
    edges.append((0, spine[0]))
    for i in range(1, n - 1):
        edges.append((i, spine[i - 1]))
    edges.append((n - 1, spine[t - 1]))
    return CubicTree(leaves + spine, tuple(edges), leaf_labels)


def branch_width_of_tree(M: VectorMatroid, T: CubicTree) -> int:
    """Max over tree edges of lambda(displayed leaf set)."""
    leaf_map = T.leaf_map()
    if set(leaf_map.values()) != set(M.labels) or len(leaf_map) != M.size:
        raise LeafLabelMismatch("leaf labels must be exactly the ground set")
    adj = {v: [] for v in T.nodes}
    for a, b in T.edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in T.nodes:
        d = len(adj[v])
        if d not in (1, 3):
            raise ValueError(f"node {v} has degree {d}; cubic trees need 1 or 3")
    width = 0
    for a, b in T.edges:
        # leaves on a's side of the edge (a, b)
        stack = [a]
        seen = {a, b}
        mask = 0
        while stack:
            v = stack.pop()
            if v in leaf_map:
                mask |= 1 << M.position(leaf_map[v])
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        width = max(width, M.connectivity(mask))
    return width
