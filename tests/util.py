"""Independent oracles and small builders shared across the test suite.

These deliberately avoid the library's solver code paths: pathwidth by
brute force over all orderings, graphic ranks by union-find, graph
pathwidth by a state-space search over bounded bag sequences, and ranks
over GF(q) by enumerating row spaces with field arithmetic written here.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from matwidth import field_new
from matwidth.algebra import MAX_FIELD_ORDER, GfMatrix
from matwidth.graph import MultiGraph, mk_graph
from matwidth.matroid import VectorMatroid

GF2 = field_new(2)
GF3 = field_new(3)
GF4 = field_new(2, 2)
GF5 = field_new(5)
GF256 = field_new(2, 8)
GF243 = field_new(3, 5)
# fields of the reference comparisons, with the most rows drawn over each
REF_FIELDS = ((GF2, 4), (GF3, 4), (GF4, 3), (GF5, 3), (GF256, 2), (GF243, 2))


def brute_force_pathwidth(M: VectorMatroid) -> int:
    """Minimum ordering width over all n! orderings (prefix lambdas are
    cached per subset, so this is feasible up to n = 8)."""
    n = M.size
    lam = {}

    def lam_of(mask):
        if mask not in lam:
            lam[mask] = M.connectivity(mask)
        return lam[mask]

    best = None
    for perm in itertools.permutations(range(n)):
        mask = 0
        width = 0
        for i in perm:
            mask |= 1 << i
            width = max(width, lam_of(mask))
            if best is not None and width >= best + 1:
                break
        best = width if best is None else min(best, width)
    return 0 if best is None else best


def graphic_rank(G, edge_labels) -> int:
    """Union-find rank of an edge-label subset of a multigraph."""
    chosen = set(edge_labels)
    edges = [(u, v) for u, v, lbl in G.edges if lbl in chosen]
    verts = {w for e in edges for w in e}
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rank = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            rank += 1
    return rank


def edgeless_graph(n: int) -> MultiGraph:
    return mk_graph(n, [])


def connected_components(G: MultiGraph) -> int:
    """Number of components (isolated vertices included), by union-find."""
    parent = list(range(G.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in G.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(G.vertex_count)})


def graphic_lambda(G, edge_labels) -> int:
    """Connectivity of an edge subset straight from union-find ranks."""
    inside = set(edge_labels)
    outside = [lbl for lbl in G.edge_labels() if lbl not in inside]
    total = graphic_rank(G, G.edge_labels())
    return graphic_rank(G, inside) + graphic_rank(G, outside) - total


def bag_search_pathwidth(G) -> int:
    """Exact graph pathwidth by searching over bag sequences of bounded
    width: states are (current bag, forgotten set); a vertex may be
    forgotten only once all its neighbours have been met."""
    n = G.vertex_count
    if n == 0:
        return 0
    adj = G.adjacency_masks()
    full = (1 << n) - 1

    def feasible(w):
        start = (0, 0)
        seen = {start}
        stack = [start]
        while stack:
            bag, gone = stack.pop()
            if bag | gone == full:
                return True
            for v in range(n):
                bit = 1 << v
                if not (bag | gone) & bit and bin(bag | bit).count("1") <= w + 1:
                    state = (bag | bit, gone)
                    if state not in seen:
                        seen.add(state)
                        stack.append(state)
            for v in range(n):
                bit = 1 << v
                if bag & bit and adj[v] & ~(bag | gone) == 0:
                    state = (bag ^ bit, gone | bit)
                    if state not in seen:
                        seen.add(state)
                        stack.append(state)
        return False

    w = 0
    while not feasible(w):
        w += 1
    return w


def uniform_check(M: VectorMatroid, k: int) -> bool:
    """Rank function equals min(|S|, k) on every subset."""
    for mask in range(1 << M.size):
        if M.rank_subset(mask) != min(bin(mask).count("1"), k):
            return False
    return True


def matrix(field, rows) -> GfMatrix:
    return GfMatrix(field, rows, cols=len(rows[0]) if rows else 0)


def matroid(field, rows, labels=None) -> VectorMatroid:
    return VectorMatroid(matrix(field, rows), labels)


def u24(field=GF3) -> VectorMatroid:
    if field == GF3:
        return matroid(GF3, [(1, 0, 1, 1), (0, 1, 1, 2)])
    from matwidth.minors import uniform_matroid

    return uniform_matroid(2, 4, field)


# ---------------------------------------------------------------------------
# reference linear algebra: no elimination and no library arithmetic.  Only
# the element encoding is shared: base-p digits of a code are polynomial
# coefficients, reduced by the smallest-encoding monic irreducible
# polynomial, which `ref_reduction_poly` finds here by trial division.


def _is_prime_power(q: int) -> bool:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


# every field order the library supports: 2..256, 70 of them
ORDERS = [q for q in range(2, MAX_FIELD_ORDER + 1) if _is_prime_power(q)]


def _ref_remainder(a, g, p):
    """a mod g over GF(p) by long division, coefficient lists little-endian
    and g monic."""
    a = list(a)
    for top in range(len(a) - 1, len(g) - 2, -1):
        c = a[top]
        for i, x in enumerate(g):
            a[top - len(g) + 1 + i] = (a[top - len(g) + 1 + i] - c * x) % p
    return a[:len(g) - 1]


@functools.lru_cache(maxsize=None)
def ref_reduction_poly(p, k) -> tuple:
    """The smallest-encoding monic polynomial of degree k over GF(p) with no
    monic factor of degree 1..k/2 (by trial division), little-endian with
    its leading 1; () for a prime field."""
    if k == 1:
        return ()

    def digits(code, d):
        return [code // p**i % p for i in range(d)]

    for code in range(p**k):
        f = digits(code, k) + [1]
        if all(any(_ref_remainder(f, digits(g, d) + [1], p))
               for d in range(1, k // 2 + 1) for g in range(p**d)):
            return tuple(f)
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


@functools.lru_cache(maxsize=None)
def _ref_ops(p, k):
    """(addition table, multiplication function) of GF(p^k), products
    reduced by `ref_reduction_poly`."""
    q = p**k
    poly = ref_reduction_poly(p, k)

    def digits(a):
        return [(a // p**i) % p for i in range(k)]

    def code(ds):
        return sum(d * p**i for i, d in enumerate(ds))

    def mul(a, b):
        da, db = digits(a), digits(b)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        return code(_ref_remainder(prod, poly, p) if k > 1 else prod)

    add = [[code([(x + y) % p for x, y in zip(digits(a), digits(b))]) for b in range(q)] for a in range(q)]
    return add, mul


def ref_field_ops(field):
    """(addition table, multiplication function) of GF(p^k)."""
    return _ref_ops(field.p, field.k)


def ref_scale(field, c, v) -> tuple:
    _, mul = ref_field_ops(field)
    return tuple(mul(c, x) for x in v)


def ref_add(field, u, v) -> tuple:
    add, _ = ref_field_ops(field)
    return tuple([add[x][y] for x, y in zip(u, v)])


def ref_row_space(field, rows, n) -> set:
    """Every vector of the row space: all q^m combinations of the rows (a
    row already in the span of those before it adds no new combination)."""
    space = {(0,) * n}
    for row in rows:
        if tuple(row) not in space:
            multiples = {ref_scale(field, c, row) for c in range(field.q)}
            space = {ref_add(field, s, t) for s in space for t in multiples}
    return space


def same_row_space(A: GfMatrix, B: GfMatrix) -> bool:
    """Equal row spaces, compared word by word over the enumerated spaces."""
    if A.field != B.field or A.cols != B.cols:
        return False
    return ref_row_space(A.field, A.entries, A.cols) == ref_row_space(B.field, B.entries, B.cols)


def ref_dimension(field, space) -> int:
    """log_q of a subspace's size."""
    r = 0
    while field.q**r < len(space):
        r += 1
    assert field.q**r == len(space)
    return r


def ref_rank(field, rows, n) -> int:
    return ref_dimension(field, ref_row_space(field, rows, n))


def ref_rank_table(field, rows, n) -> list:
    """Rank of every column subset S: the words of the row space vanishing on
    S number q^(k - r(S)), k the row space's dimension."""
    words = ref_row_space(field, rows, n)
    k = ref_dimension(field, words)
    supports = np.array([sum(1 << j for j, x in enumerate(w) if x) for w in words], dtype=np.int64)
    table = []
    for S in range(1 << n):
        vanishing, d = int(np.count_nonzero((supports & S) == 0)), 0
        while field.q**d < vanishing:
            d += 1
        table.append(k - d)
    return table


def ref_lambda_table(field, rows, n) -> np.ndarray:
    """lambda(S) = r(S) + r(E - S) - r(E) of every column subset S, from the
    same count as ref_rank_table, vectorised over S (int64 array)."""
    words = ref_row_space(field, rows, n)
    k = ref_dimension(field, words)
    masks = np.arange(1 << n, dtype=np.int64)
    vanishing = np.zeros(1 << n, dtype=np.int64)
    for w in words:
        vanishing += (masks & sum(1 << j for j, x in enumerate(w) if x)) == 0
    d = np.zeros(1 << n, dtype=np.int64)
    for j in range(k):
        d += vanishing > field.q**j
    ranks = k - d
    return ranks + ranks[::-1] - k


def ref_random_rows(field, m, n, rng) -> list:
    """Seeded m x n rows with dependencies planted: the last row may combine
    the first two, and one column may become a multiple (possibly zero) of
    another."""
    rows = [tuple(int(x) for x in rng.integers(0, field.q, n)) for _ in range(m)]
    if m >= 3 and rng.integers(2):
        rows[-1] = ref_add(field, rows[0], ref_scale(field, int(rng.integers(1, field.q)), rows[1]))
    _, mul = ref_field_ops(field)
    if n >= 3 and rng.integers(2):
        j, src, c = int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(field.q))
        rows = [r[:j] + (mul(c, r[src]),) + r[j + 1:] for r in rows]
    return rows


@functools.lru_cache(maxsize=None)
def _ref_tables(field):
    """(add, mul, neg, inv) tables of the reference field operations."""
    add, mul = ref_field_ops(field)
    q = field.q
    mul = [[mul(a, b) for b in range(q)] for a in range(q)]
    neg = [add[x].index(0) for x in range(q)]
    inv = [0] + [mul[x].index(1) for x in range(1, q)]
    return add, mul, neg, inv


def ref_column_rank(field, cols) -> int:
    """Rank of a list of vectors by a Gauss-Jordan elimination written here,
    on the reference field operations."""
    add, mul, neg, inv = _ref_tables(field)
    rows = [list(c) for c in cols]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = [mul[inv[rows[rank][j]]][x] for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            c = neg[rows[i][j]]
            rows[i] = [add[x][mul[c][y]] for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def ref_replay(host: VectorMatroid, pattern: VectorMatroid, cert) -> bool:
    """A minor certificate replayed from scratch: the sets well formed (X
    and Y disjoint within the host's ground set, the bijection from the
    pattern's labels onto the rest), then r_pattern(S) = r(f(S) + X) - r(X)
    on every pattern subset S, each rank by `ref_column_rank` on the
    columns of S alone."""
    X, Y, bij = set(cert.contract), set(cert.delete), cert.bijection
    ground = set(host.labels)
    rest = ground - X - Y
    if X & Y or not X <= ground or not Y <= ground or set(bij) != set(pattern.labels):
        return False
    images = [bij[lbl] for lbl in pattern.labels]
    if set(images) != rest or len(images) != len(rest):
        return False

    def col(lbl):
        return host.columns[host.labels.index(lbl)]

    x_cols = [col(lbl) for lbl in X]
    r_x = ref_column_rank(host.field, x_cols)
    for size in range(pattern.size + 1):
        for S in itertools.combinations(range(pattern.size), size):
            r_pat = ref_column_rank(pattern.field, [pattern.columns[i] for i in S])
            if r_pat != ref_column_rank(host.field, x_cols + [col(images[i]) for i in S]) - r_x:
                return False
    return True
