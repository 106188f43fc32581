"""The benchmark's own exact arithmetic, used to check every answer.

Nothing here imports the program.  Ranks come from a plain row reduction
over this module's field arithmetic; pathwidth of small matroids from a
subset DP over per-subset ranks; graph pathwidth from vertex separation
over every layout.  `self_test()` checks the routines on matroids whose
answers are known by hand.
"""

from __future__ import annotations

import itertools

# reduction polynomials of the extension fields the workloads use, as bit
# masks (bit i = coefficient of x^i); element codes carry the coefficients
# in their base-p digits, as in the matrix text format
_POLY = {4: 0b111, 16: 0b10011}


class Field:
    """GF(p) for a prime p, or GF(2^k) for the orders in _POLY."""

    def __init__(self, q: int):
        self.q = q
        if q in _POLY:
            self.p, self.poly, self.bits = 2, _POLY[q], q.bit_length() - 1
        elif q >= 2 and all(q % d for d in range(2, int(q**0.5) + 1)):
            self.p, self.poly = q, None
        else:
            raise ValueError(f"no field of order {q} in the oracle")
        self._inv = {a: next(b for b in range(1, q) if self.mul(a, b) == 1) for a in range(1, q)}

    def add(self, a, b):
        return a ^ b if self.poly else (a + b) % self.p

    def neg(self, a):
        return a if self.poly else (-a) % self.p

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not self.poly:
            return a * b % self.p
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a >> self.bits:
                a ^= self.poly
        return out

    def inv(self, a):
        return self._inv[a]

    def pow(self, a, e):
        out = 1
        for _ in range(e):
            out = self.mul(out, a)
        return out


def rank(F: Field, columns) -> int:
    """Rank of a list of equal-length column vectors."""
    if not columns:
        return 0
    rows = [list(r) for r in zip(*columns)]
    r = 0
    for c in range(len(columns)):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        lead = rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], lead)]
        r += 1
        if r == len(rows):
            break
    return r


def columns_of(rows):
    return [tuple(col) for col in zip(*rows)] if rows else []


def dual_rows(F: Field, rows, n: int):
    """Rows of a generator of the orthogonal complement of the row space."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        lead = rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    out = []
    for j in free:
        v = [0] * n
        v[j] = 1
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(rows[i][j])
        out.append(v)
    return out


def rank_function(F: Field, rows):
    """r(mask) over the columns of `rows`, by elimination on every call."""
    cols = columns_of(rows)
    return lambda mask: rank(F, [cols[i] for i in range(len(cols)) if mask >> i & 1])


def rank_table(rank_of, n: int) -> list:
    return [rank_of(mask) for mask in range(1 << n)]


def pathwidth(table: list, n: int) -> int:
    """Exact pathwidth from a rank table: B(S) = max(lambda(S), min_e B(S-e))."""
    if n > 12:
        raise ValueError("the oracle's subset DP stops at 12 elements")
    full = (1 << n) - 1
    B = [0] * (1 << n)
    for S in range(1, full + 1):
        lam = table[S] + table[full ^ S] - table[full]
        B[S] = max(lam, min(B[S ^ (1 << e)] for e in range(n) if S >> e & 1))
    return B[full]


def prefix_lambdas(rank_of, positions, n: int) -> list:
    full = (1 << n) - 1
    rE = rank_of(full)
    out, mask = [], 0
    for i in positions:
        mask |= 1 << i
        out.append(rank_of(mask) + rank_of(full ^ mask) - rE)
    return out


# ---------------------------------------------------------------------------
# graphs: (vertex count, [(u, v), ...]), edges labelled 1..m in list order


def graphic_rank(nv: int, edges, mask: int) -> int:
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    r = 0
    for i, (u, v) in enumerate(edges):
        if mask >> i & 1:
            a, b = find(u), find(v)
            if a != b:
                parent[a] = b
                r += 1
    return r


def vertex_separation(nv: int, edges) -> int:
    """Graph pathwidth as the least vertex separation over all layouts."""
    adj = [0] * nv
    for u, v in edges:
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    best = nv
    for layout in itertools.permutations(range(nv)):
        placed = width = 0
        for v in layout:
            placed |= 1 << v
            width = max(width, sum(1 for u in range(nv) if placed >> u & 1 and adj[u] & ~placed))
        best = min(best, width)
    return best


def has_k4_minor(nv: int, edges) -> bool:
    """False exactly for series-parallel graphs: deleting vertices of degree
    at most 1 and suppressing degree-2 vertices empties them."""
    adj = {v: set() for v in range(nv)}
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if len(adj[v]) <= 2:
                nbrs = adj.pop(v)
                for u in nbrs:
                    adj[u].discard(v)
                if len(nbrs) == 2:
                    a, b = nbrs
                    adj[a].add(b)
                    adj[b].add(a)
                changed = True
    return bool(adj)


def lex_pairs(nv: int):
    return [(u, v) for u in range(nv) for v in range(u + 1, nv)]


def bipartite_pairs(a: int, b: int):
    return [(u, a + v) for u in range(a) for v in range(b)]


# ---------------------------------------------------------------------------
# the w <= 1 patterns in the catalog's labelling (ground set 1..n)


def _graphic(nv, edges):
    return len(edges), lambda mask: graphic_rank(nv, edges, mask)


def _dual(n, rank_of):
    full = (1 << n) - 1
    return n, lambda mask: bin(mask).count("1") + rank_of(full ^ mask) - rank_of(full)


PATTERNS = {
    "U24": (4, lambda mask: min(bin(mask).count("1"), 2)),
    "MK4": _graphic(4, lex_pairs(4)),
    "MK23": _graphic(5, bipartite_pairs(2, 3)),
    "MK23*": _dual(*_graphic(5, bipartite_pairs(2, 3))),
}


def replay_minor(host_rank, host_n: int, pattern: str, contract, delete, bijection) -> str | None:
    """Check a minor certificate by r_N(S) = r_M(S + X) - r_M(X) on every
    pattern subset under the bijection; None if it holds, else the reason.
    Host and pattern labels are 1-based ground positions."""
    n, pattern_rank = PATTERNS[pattern]
    X = sum(1 << (lbl - 1) for lbl in contract)
    Y = sum(1 << (lbl - 1) for lbl in delete)
    image = [bijection.get(i + 1) for i in range(n)]
    if X & Y or len(contract) + len(delete) + n != host_n or len(set(contract) | set(delete)) != len(contract) + len(delete):
        return "contract and delete sets do not leave a minor of the pattern's size"
    if None in image or len(set(image)) != n or any((1 << (j - 1)) & (X | Y) for j in image):
        return "bijection does not map onto the remaining elements"
    rX = host_rank(X)
    for S in range(1 << n):
        T = X
        for i in range(n):
            if S >> i & 1:
                T |= 1 << (image[i] - 1)
        if host_rank(T) - rX != pattern_rank(S):
            return f"rank differs on pattern subset {S:b}"
    return None


def self_test() -> None:
    """Known-by-hand answers; raises AssertionError on any mismatch."""
    gf3 = Field(3)
    u24 = [[1, 0, 1, 1], [0, 1, 1, 2]]
    r = rank_function(gf3, u24)
    assert all(r((1 << i) | (1 << j)) == 2 for i in range(4) for j in range(i + 1, 4))
    assert pathwidth(rank_table(r, 4), 4) == 2
    for q in (4, 16):
        F = Field(q)
        assert all(F.mul(a, F.inv(a)) == 1 for a in range(1, q))
        assert all(F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c)) for a in range(q) for b in range(q) for c in (2, 3))
    fano = columns_of([[1, 0, 0, 0, 1, 1, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 1, 1, 0, 1]])
    gf2 = Field(2)
    assert sum(rank(gf2, list(t)) < 3 for t in itertools.combinations(fano, 3)) == 7
    k4 = lex_pairs(4)
    assert graphic_rank(4, k4, 0b111111) == 3
    assert sum(graphic_rank(4, k4, sum(1 << i for i in t)) == 2 for t in itertools.combinations(range(6), 3)) == 4
    n, mk23d = PATTERNS["MK23*"]
    assert mk23d((1 << n) - 1) == 2
    assert vertex_separation(4, [(0, 1), (1, 2), (2, 3)]) == 1 and vertex_separation(4, k4) == 3
    assert has_k4_minor(4, k4) and not has_k4_minor(5, bipartite_pairs(2, 3))
    # the incidence rank of M(K4) over GF(3) is the graphic rank
    inc = [[1 if w == u else 2 if w == v else 0 for u, v in k4] for w in range(4)]
    rk = rank_function(gf3, inc)
    assert all(rk(m) == graphic_rank(4, k4, m) for m in range(64))
