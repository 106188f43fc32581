"""Vector matroids M[A] on the columns of a matrix over GF(q).

Ground subsets travel as int bitmasks over column positions (ground sets are
capped at 64 elements); every public query also accepts an iterable of
labels.  Rank queries are memoized, and a full rank table over all 2^n
subsets can be materialized for the exact solvers.

The table is counted from codeword supports.  With C the row space, of
dimension k, the words of C vanishing on S form a subspace of dimension
k - r(S) (the paper's trellis state dimension k - dim C_past - dim C_future
is this number at a cut), so

    r(S) = k - log_q #{c in C : supp(c) and S disjoint}.

One pass over the codewords counts each support T in a uint32 array f;
one subset-sum (Yates / zeta) transform, n in-place passes, turns f[T] into
the number of words supported inside T; the exponent J = log_q f is read
with m integer comparisons J += (f >= q^j), no float; and r(S) = k - J[E - S],
the table reversed.  When k > n - k the dual code C-perp (from
`algebra.orthogonal_complement`) is enumerated instead, and duality gives
r(S) = |S| - J_perp[S].  Either way q^m words are enumerated,
m = min(k, n - k), and the working set is about 6 bytes per table entry.

When q^m > COUNT_RATIO * 2^n (COUNT_RATIO = 4) the table is swept instead:
subsets in numeric order, each step reusing the canonical span (reduced
echelon basis) of the subset minus its lowest element, so elimination runs
once per distinct (span, element) pair.  The rule depends on q, n and k
only (`table_backend`).  The constant is measured (CHANGES.md): on random
codes of length 8 to 16 with q^m <= 4 * 2^n, counting never took more than
1.4 times as long as the sweep, the worst case being rank 2 over a large
field, where the sweep is cheapest; above that ratio it lost by more.

All elimination (spans, ranks, the contraction in `apply_minor`) is the
kernel in `algebra`: `reduce_vector` / `echelon_push` for the forward step
and `canonical_insert` where a canonical basis is needed.  `apply_minor`
builds a new matrix for callers that need a matroid; the minor search does
not, and reads each candidate minor off the host's rank table instead
(r_{M/X\\Y}(S) = r_M(S + X) - r_M(X), a table gather) and matches it with
`table_isomorphism`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import GfMatrix

MAX_GROUND = 64
MAX_TABLE = 26  # 2^26 table entries; exact solvers apply their own caps
ISO_MAX_GROUND = 12
# rank tables are counted from codeword supports while q^min(k, n - k) is at
# most COUNT_RATIO * 2^n, and swept otherwise; words are counted in chunks
# of at most CHUNK_WORDS
COUNT_RATIO = 4
CHUNK_WORDS = 1 << 16
_PACK_BYTES = np.uint64(0x0102040810204080)


class GroundSetTooLarge(ValueError):
    """Ground set exceeds a hard size cap."""


class OverlappingSets(ValueError):
    """Contract and delete sets of a minor specification intersect."""


class FieldMismatch(ValueError):
    """Operands live over different fields."""


def label_key(label):
    """Total deterministic order on labels: ints first, then strings."""
    if isinstance(label, int):
        return (0, label, "")
    return (1, 0, str(label))


def sorted_labels(labels):
    return sorted(labels, key=label_key)


@dataclass(frozen=True)
class MinorSpec:
    """Disjoint contract / delete label sets defining a minor M/X\\Y."""

    contract: frozenset
    delete: frozenset

    def __post_init__(self):
        if self.contract & self.delete:
            raise OverlappingSets(f"contract and delete share {set(self.contract & self.delete)}")


class VectorMatroid:
    """The matroid of a matrix's columns, with memoized rank oracles.

    Logically immutable; the internal caches only memoize pure functions, so
    concurrent queries are safe (recomputing an entry is idempotent).
    """

    def __init__(self, matrix: GfMatrix, labels=None):
        if matrix.cols > MAX_GROUND:
            raise GroundSetTooLarge(f"{matrix.cols} > {MAX_GROUND} ground elements")
        if labels is None:
            labels = tuple(range(1, matrix.cols + 1))
        else:
            labels = tuple(labels)
        if len(labels) != matrix.cols:
            raise ValueError(f"{len(labels)} labels for {matrix.cols} columns")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        self.matrix = matrix
        self.field = matrix.field
        self.labels = labels
        self._pos = {lbl: i for i, lbl in enumerate(labels)}
        self._cols = tuple(matrix.column(j) for j in range(matrix.cols))
        self.rank_full = algebra.rank(matrix)
        self._rank_cache = {0: 0}
        self._lambda_cache = {}
        self._rank_table = None

    # -- ground set ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def position(self, label) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise KeyError(f"unknown ground element {label!r}") from None

    def mask_of(self, subset) -> int:
        """Bitmask for an int mask (passed through) or an iterable of labels."""
        if isinstance(subset, int):
            if subset < 0 or subset > self.full_mask:
                raise ValueError(f"mask {subset} out of range")
            return subset
        mask = 0
        for lbl in subset:
            bit = 1 << self.position(lbl)
            if mask & bit:
                raise ValueError(f"repeated element {lbl!r}")
            mask |= bit
        return mask

    def labels_of(self, mask: int) -> tuple:
        """Labels of a mask in ground (column) order."""
        out = []
        i = 0
        while mask:
            if mask & 1:
                out.append(self.labels[i])
            mask >>= 1
            i += 1
        return tuple(out)

    # -- rank oracles ----------------------------------------------------------

    def _rank_mask(self, mask: int) -> int:
        table = self._rank_table
        if table is not None:
            return int(table[mask])
        cached = self._rank_cache.get(mask)
        if cached is not None:
            return cached
        cols = [self._cols[i] for i in _bit_positions(mask)]
        r = algebra.rank_of_columns(self.field, cols)
        self._rank_cache[mask] = r
        return r

    def rank_subset(self, subset) -> int:
        """r(J): dimension of the span of the columns indexed by J."""
        return self._rank_mask(self.mask_of(subset))

    def connectivity(self, subset) -> int:
        """lambda(X) = r(X) + r(E - X) - r(E); symmetric, cached on min(X, E-X)."""
        mask = self.mask_of(subset)
        comp = self.full_mask ^ mask
        key = min(mask, comp)
        lam = self._lambda_cache.get(key)
        if lam is None:
            lam = self._rank_mask(mask) + self._rank_mask(comp) - self.rank_full
            self._lambda_cache[key] = lam
        return lam

    def closure(self, subset):
        """cl(X) = {e : r(X + e) = r(X)}.  Mask in, mask out; labels in, frozenset out."""
        as_mask = isinstance(subset, int)
        mask = self.mask_of(subset)
        cl = mask
        r = self._rank_mask(mask)
        for i in range(self.size):
            bit = 1 << i
            if not (mask & bit) and self._rank_mask(mask | bit) == r:
                cl |= bit
        return cl if as_mask else frozenset(self.labels_of(cl))

    # -- full rank table -------------------------------------------------------

    def rank_table(self) -> np.ndarray:
        """Ranks of all 2^n subsets (uint8, indexed by mask), built by the
        backend that `table_backend` names for this matroid."""
        if self._rank_table is None:
            n = self.size
            if n > MAX_TABLE:
                raise GroundSetTooLarge(f"rank table needs 2^{n} entries")
            if table_backend(self.field.q, n, self.rank_full) == "count":
                table = self._count_rank_table()
            else:
                table = self._sweep_rank_table()
            table.flags.writeable = False
            self._rank_table = table
        return self._rank_table

    def _count_rank_table(self) -> np.ndarray:
        """The table from codeword supports (module docstring)."""
        n, k, q = self.size, self.rank_full, self.field.q
        m = min(k, n - k)
        dual = k > n - k
        gen = algebra.orthogonal_complement(self.matrix) if dual else algebra.row_basis(self.matrix)
        # f[T] = words supported inside T, after the subset-sum transform
        f = _support_counts(self.field, gen.entries, n)
        for i in range(n):
            v = f.reshape(-1, 2, 1 << i)
            v[:, 1, :] += v[:, 0, :]
        # J = log_q f, exact: f is a power of q no larger than q^m
        J = np.zeros(1 << n, dtype=np.uint8)
        for j in range(1, m + 1):
            J += f >= q**j
        del f
        if dual:
            return np.bitwise_count(np.arange(1 << n, dtype=np.uint32)) - J
        return m - J[::-1]

    def _sweep_rank_table(self) -> np.ndarray:
        n = self.size
        field = self.field
        cols = self._cols
        size = 1 << n
        # interned canonical spans: reduced bases from algebra.canonical_insert
        state_rank = [0]
        trans: list[dict] = [{}]
        states = {(): 0}
        sigs = [()]
        spans = [0] * size
        ranks = bytearray(size)
        for S in range(1, size):
            low_bit = S & -S
            prev = spans[S ^ low_bit]
            e = low_bit.bit_length() - 1
            t = trans[prev].get(e)
            if t is None:
                residue = algebra.reduce_vector(field, sigs[prev], cols[e])
                if not any(residue):
                    t = prev
                else:
                    sig = algebra.canonical_insert(field, sigs[prev], residue)
                    t = states.get(sig)
                    if t is None:
                        t = len(sigs)
                        states[sig] = t
                        sigs.append(sig)
                        state_rank.append(len(sig))
                        trans.append({})
                trans[prev][e] = t
            spans[S] = t
            ranks[S] = state_rank[t]
        return np.frombuffer(bytes(ranks), dtype=np.uint8)

    def __repr__(self):
        return f"VectorMatroid({self.field!r}, n={self.size}, rank={self.rank_full})"


def table_backend(q: int, n: int, k: int) -> str:
    """The rank-table backend for a rank-k matroid on n elements over GF(q):
    "count" when the smaller of the row space and its complement has at
    most COUNT_RATIO * 2^n words (q^min(k, n - k) of them), else "sweep"."""
    return "sweep" if q ** min(k, n - k) > COUNT_RATIO << n else "count"


@functools.lru_cache(maxsize=None)
def _field_tables(field) -> tuple:
    """GF(q) addition and multiplication as read-only q x q uint8 tables."""
    q = field.q
    add = np.array([[field.add(a, b) for b in range(q)] for a in range(q)], dtype=np.uint8)
    mul = np.array([[field.mul(a, b) for b in range(q)] for a in range(q)], dtype=np.uint8)
    add.flags.writeable = mul.flags.writeable = False
    return add, mul


def _span_words(field, gens: np.ndarray) -> np.ndarray:
    """All q^d linear combinations of the d rows of gens, one word a row."""
    add, mul = _field_tables(field)
    words = np.zeros((1, gens.shape[1]), dtype=np.uint8)
    for g in gens:
        words = add[mul[:, g][:, None, :], words[None, :, :]].reshape(-1, gens.shape[1])
    return words


def _support_counts(field, rows, n: int) -> np.ndarray:
    """f[T] = the number of words with support T in the row space of
    linearly independent rows (uint32; at most q^len(rows) < 2^32 words).

    The span is split into an inner part of at most CHUNK_WORDS words and
    an outer part; each outer word h gives one chunk, the supports of
    inner - h, which are the coordinates where inner differs from h.
    Running h over the outer span runs -h over it too, so every word of
    the row space is counted once."""
    gens = np.array(rows, dtype=np.uint8).reshape(len(rows), n)
    d = 0
    while d < len(rows) and field.q ** (d + 1) <= CHUNK_WORDS:
        d += 1
    groups = (n + 7) // 8
    # coordinates padded to whole bytes of the mask; the padding never differs
    inner = np.zeros((field.q**d, 8 * groups), dtype=np.uint8)
    inner[:, :n] = _span_words(field, gens[:d])
    outer = np.zeros(8 * groups, dtype=np.uint8)
    f = np.zeros(1 << n, dtype=np.uint32)
    flags = np.empty(inner.shape, dtype=bool)
    packed = flags.view(np.uint64)
    masks = np.zeros((len(inner), 4), dtype=np.uint8)
    for h in _span_words(field, gens[d:]):
        outer[:n] = h
        np.not_equal(inner, outer, out=flags)
        # 8 bytes of 0/1 flags times _PACK_BYTES carry the flags, one a bit,
        # to the top byte of the product
        packed *= _PACK_BYTES
        packed >>= np.uint64(56)
        masks[:, :groups] = packed
        words, counts = np.unique(masks.view("<u4")[:, 0], return_counts=True)
        f[words] += counts.astype(np.uint32)
    return f


def _bit_positions(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# minors, duals, direct sums


def apply_minor(M: VectorMatroid, spec: MinorSpec) -> VectorMatroid:
    """M / contract \\ delete.  Contraction of dependent sets is allowed:
    each kept column is reduced against an echelon basis of span(contract)
    and the basis pivot coordinates (zero in every residue) are dropped, a
    linear map with kernel span(contract), so r_N(S) = r_M(S + X) - r_M(X)."""
    cmask = M.mask_of(spec.contract)
    dmask = M.mask_of(spec.delete)
    if cmask & dmask:
        raise OverlappingSets("contract and delete overlap")
    field = M.field
    basis = []
    for i in _bit_positions(cmask):
        algebra.echelon_push(field, basis, M._cols[i])
    pivots = {row.index(1) for row in basis}
    keep_rows = [r for r in range(M.matrix.rows) if r not in pivots]
    drop_cols = cmask | dmask
    keep_cols = [j for j in range(M.size) if not (drop_cols >> j) & 1]
    cols = [algebra.reduce_vector(field, basis, M._cols[j]) for j in keep_cols]
    entries = [[col[r] for col in cols] for r in keep_rows]
    sub = GfMatrix(field, entries, cols=len(keep_cols))
    return VectorMatroid(sub, tuple(M.labels[j] for j in keep_cols))


def delete(M: VectorMatroid, labels) -> VectorMatroid:
    return apply_minor(M, MinorSpec(frozenset(), frozenset(labels)))


def contract(M: VectorMatroid, labels) -> VectorMatroid:
    return apply_minor(M, MinorSpec(frozenset(labels), frozenset()))


def dual(M: VectorMatroid) -> VectorMatroid:
    """The dual matroid via [I | B] -> [-B^T | I], labels preserved."""
    return VectorMatroid(algebra.orthogonal_complement(M.matrix), M.labels)


def direct_sum(M1: VectorMatroid, M2: VectorMatroid) -> VectorMatroid:
    """Block-diagonal sum; clashing labels of the second operand get primes."""
    if M1.field != M2.field:
        raise FieldMismatch(f"{M1.field} vs {M2.field}")
    taken = set(M1.labels)
    labels2 = []
    for lbl in M2.labels:
        new = lbl
        while new in taken or new in labels2:
            new = f"{new}'"
        labels2.append(new)
    n1, n2 = M1.size, M2.size
    entries = [list(row) + [0] * n2 for row in M1.matrix.entries]
    entries += [[0] * n1 + list(row) for row in M2.matrix.entries]
    mat = GfMatrix(M1.field, entries, cols=n1 + n2)
    return VectorMatroid(mat, M1.labels + tuple(labels2))


# ---------------------------------------------------------------------------
# isomorphism


def is_isomorphic(M: VectorMatroid, N: VectorMatroid):
    """A label bijection {e of M -> f of N} under which the rank functions
    agree on every subset, or None."""
    if M.size > ISO_MAX_GROUND or N.size > ISO_MAX_GROUND:
        raise GroundSetTooLarge(f"isomorphism capped at {ISO_MAX_GROUND} elements")
    if M.size != N.size or M.rank_full != N.rank_full:
        return None
    return table_isomorphism(M.rank_table(), M.labels, N.rank_table(), N.labels)


def iso_invariants(table, n):
    """What table_isomorphism compares before it searches, for one table on n
    elements: the masks of the 1-, 2- and 3-element subsets, the sorted
    ranks on each of those layers, and the element invariants."""
    pc = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    layers = tuple(np.flatnonzero(pc == card) for card in range(1, min(3, n) + 1))
    return layers, tuple(np.sort(table[idx]) for idx in layers), _element_invariants(table, n, layers)


def table_isomorphism(TM, labels_m, TN, labels_n, invariants_m=None):
    """is_isomorphic on rank tables over the same number of elements and of
    equal full rank; labels_*[i] names bit i.  A caller matching one table
    TM against many passes invariants_m = iso_invariants(TM, n) once.
    Deterministic: elements are matched in decreasing small-circuit-degree
    order and images tried in label order."""
    n = len(labels_m)
    layers, profile_m, inv_m = invariants_m or iso_invariants(TM, n)
    for idx, prof in zip(layers, profile_m):
        if (np.sort(TN[idx]) != prof).any():
            return None

    inv_n = _element_invariants(TN, n, layers)
    if sorted(inv_m) != sorted(inv_n):
        return None

    order = sorted(range(n), key=lambda i: (_circuit_degree_key(inv_m[i]), label_key(labels_m[i])))
    candidates = sorted(range(n), key=lambda j: label_key(labels_n[j]))
    image = [-1] * n
    used = [False] * n

    def masks_through(depth):
        # all subsets of order[:depth+1] that contain order[depth]
        fixed = order[depth]
        rest = order[:depth]
        for sub in range(1 << depth):
            m_mask = 1 << fixed
            for t, pos in enumerate(rest):
                if (sub >> t) & 1:
                    m_mask |= 1 << pos
            yield m_mask

    def translate(mask):
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << image[low.bit_length() - 1]
            mask ^= low
        return out

    def backtrack(depth):
        if depth == n:
            return True
        pos = order[depth]
        for cand in candidates:
            if used[cand] or inv_n[cand] != inv_m[pos]:
                continue
            image[pos] = cand
            used[cand] = True
            ok = all(TM[m_mask] == TN[translate(m_mask)] for m_mask in masks_through(depth))
            if ok and backtrack(depth + 1):
                return True
            used[cand] = False
            image[pos] = -1
        return False

    if not backtrack(0):
        return None
    # safety: verify the bijection on every subset
    for mask in range(1 << n):
        if TM[mask] != TN[translate(mask)]:
            raise AssertionError("isomorphism search returned an invalid bijection")
    return {labels_m[i]: labels_n[image[i]] for i in range(n)}


def _element_invariants(table, n, layers):
    """(rank, dependent pairs through it, dependent triples through it) of
    each element, from the layer masks of iso_invariants."""
    bits = 1 << np.arange(n)
    counts = [table[bits], np.zeros(n, dtype=int), np.zeros(n, dtype=int)]
    for card in range(2, len(layers) + 1):
        idx = layers[card - 1]
        dep = idx[table[idx] < card]
        counts[card - 1] = np.count_nonzero(dep[:, None] & bits, axis=0)
    return list(zip(*(c.tolist() for c in counts)))


def _circuit_degree_key(inv):
    single, dep_pairs, dep_triples = inv
    return (-dep_pairs, -dep_triples, single)


# ---------------------------------------------------------------------------
# matroid files: matrix text plus an optional trailing "labels ..." line


def matroid_to_text(M: VectorMatroid) -> str:
    text = algebra.matrix_to_text(M.matrix)
    if M.labels != tuple(range(1, M.size + 1)):
        text += "labels " + " ".join(str(lbl) for lbl in M.labels) + "\n"
    return text


def _parse_label_token(tok: str):
    try:
        return int(tok)
    except ValueError:
        return tok


def matroid_from_text(text: str) -> VectorMatroid:
    lines = text.splitlines()
    mat, nxt = algebra.matrix_from_lines(lines)
    labels = None
    for i in range(nxt, len(lines)):
        stripped = lines[i].strip()
        if not stripped:
            continue
        toks = stripped.split()
        if toks[0] != "labels":
            raise algebra.MatrixFormatError(f"unexpected line {stripped!r}", line=i + 1)
        if len(toks) - 1 != mat.cols:
            raise algebra.MatrixFormatError(
                f"expected {mat.cols} labels, found {len(toks) - 1}", line=i + 1
            )
        labels = tuple(_parse_label_token(t) for t in toks[1:])
    return VectorMatroid(mat, labels)
