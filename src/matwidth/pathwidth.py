"""Ordering widths, exact matroid pathwidth with certificate orderings,
a greedy upper bound, and caterpillar branch-decompositions.

The exact solver is a subset DP over prefix sets:
B(S) = max(lambda(S), min over e in S of B(S - e)), B(empty) = 0, swept in
cardinality layers over the full rank table; the optimal ordering is
recovered by walking predecessors from the full ground set.  The same DP
(`prefix_dp`) with vertex-boundary costs gives graph pathwidth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import algebra
from .matroid import VectorMatroid, label_key

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
    """Certificate for w_M(e_1..e_n) = max over prefixes of lambda."""
    ordering = _check_permutation(M, ordering)
    mask = 0
    lambdas = []
    for lbl in ordering:
        mask |= 1 << M.position(lbl)
        lambdas.append(M.connectivity(mask))
    width = max(lambdas, default=0)
    return WidthCertificate(width, ordering, tuple(lambdas))


def _lambda_table(M: VectorMatroid) -> np.ndarray:
    ranks = M.rank_table()
    lam = ranks.astype(np.int16) + ranks[::-1].astype(np.int16) - int(M.rank_full)
    return lam.astype(np.uint8)


def prefix_dp(cost: np.ndarray, n: int, tie_key) -> tuple:
    """The layered subset DP B(S) = max(cost[S], min over e in S of
    B(S - e)), B(empty) = 0, swept by cardinality (vectorized per element),
    and an optimal order of 0..n-1 walked back to front from the full set:
    at each step the e with smallest B(S - e), ties by tie_key(e).
    Returns (B(full set), order)."""
    size = 1 << n
    pc = np.bitwise_count(np.arange(size, dtype=np.uint32))
    B = np.zeros(size, dtype=np.uint8)
    for card in range(1, n + 1):
        idx = np.nonzero(pc == card)[0]
        best = np.full(idx.size, 255, dtype=np.uint8)
        for e in range(n):
            bit = 1 << e
            sel = (idx & bit) != 0
            sub = idx[sel]
            if sub.size:
                best[sel] = np.minimum(best[sel], B[sub ^ bit])
        B[idx] = np.maximum(cost[idx], best)
    seq = []
    S = size - 1
    while S:
        _, _, e = min((int(B[S ^ (1 << e)]), tie_key(e), e) for e in range(n) if (S >> e) & 1)
        seq.append(e)
        S ^= 1 << e
    return int(B[size - 1]), seq[::-1]


def pathwidth_exact(M: VectorMatroid, exact_cap: int = DEFAULT_EXACT_CAP) -> WidthCertificate:
    """Optimal width and a witnessing ordering; refuses beyond the cap."""
    n = M.size
    if n > exact_cap:
        raise GroundSetTooLargeForExact(f"{n} elements exceeds the exact cap {exact_cap}")
    if n == 0:
        return WidthCertificate(0, (), ())
    lam = _lambda_table(M)
    width, order = prefix_dp(lam, n, lambda i: label_key(M.labels[i]))
    # the certificate's lambdas come from elimination, so the table that
    # produced the width cannot vouch for itself
    lambdas = _prefix_lambdas(M, order)
    mask = 0
    for i, lam_i in zip(order, lambdas):
        mask |= 1 << i
        if lam[mask] != lam_i:
            raise AssertionError(f"rank table gives lambda {lam[mask]} for a prefix, elimination {lam_i}")
    if width != max(lambdas):
        raise AssertionError(f"DP width {width} but the ordering has width {max(lambdas)}")
    return WidthCertificate(width, tuple(M.labels[i] for i in order), tuple(lambdas))


def _prefix_lambdas(M: VectorMatroid, order) -> tuple:
    """lambda of every prefix of an order of column positions, by
    elimination on the matrix columns: r(prefix) from one echelon_push pass
    in order, r(E - prefix) from one in reverse order."""
    cols = M.matrix.columns()

    def ranks(seq):
        basis, out = [], []
        for i in seq:
            algebra.echelon_push(M.field, basis, cols[i])
            out.append(len(basis))
        return out

    head = ranks(order)  # head[t] = r(order[: t + 1])
    tail = ranks(reversed(order))[::-1][1:] + [0]  # tail[t] = r(order[t + 1 :])
    return tuple(h + t - head[-1] for h, t in zip(head, tail))


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
