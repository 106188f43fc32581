"""Vector matroids M[A] on the columns of a matrix over GF(q).

Ground subsets travel as int bitmasks over column positions (ground sets are
capped at 64 elements); every public query also accepts an iterable of
labels.  Rank queries are memoized, and a full rank table over all 2^n
subsets can be materialized for the exact solvers.

Both backends build the table of N, the column matroid of an m x n
generator: of the row space C (dimension k) when k <= n - k, else of its
dual C-perp (from `algebra.orthogonal_complement`), so m = min(k, n - k).
N is M itself on the first route; on the second r_M(S) = |S| + r_N(E - S)
- m, applied once to N's table.

Counting reads N's table off codeword supports.  The words of the row
space of the generator vanishing on S form a subspace of dimension
m - r_N(S) (the paper's trellis state dimension k - dim C_past - dim
C_future is this number at a cut), so

    r_N(S) = m - log_q #{c : supp(c) and S disjoint}.

One pass over the q^m words counts each support T in a uint32 array f;
one subset-sum (Yates / zeta) transform, n in-place passes, turns f[T] into
the number of words supported inside T; the exponent J = log_q f is read
with m integer comparisons J += (f >= q^j), no float; and r_N(S) =
m - J[E - S], the table reversed.  The working set is about 6 bytes per
table entry.

The sweep doubles batches of echelon bases one element at a time: the
bases of the subsets of elements 0..i-1 reduce column i all at once
(`algebra.reduce_batch`), the rank grows by one wherever the residue is
nonzero, and the subsets containing i get copies of the bases with the
residue, scaled to lead with 1, appended.  Bases are m x m uint8 arrays,
m <= n/2.  Only the low a = min(n, 16) elements are doubled, so at most
CHUNK_WORDS = 2^16 bases are in flight; each subset H of the other n - a
elements seeds one doubling with its basis and fills the block
[H * 2^a, (H + 1) * 2^a).  The working set is the uint8 table plus one
block of bases: tracemalloc peaks 1.3 MB over the 1 MB table for a
rank-3 code on 20 elements, 4.7 MB over it for a [20, 8] code over GF(17).

The sweep runs when q^m > COUNT_RATIO * 2^n (COUNT_RATIO = 4): a rule on
q, n and k only (`table_backend`).  Against the vectorised sweep no
single ratio is the crossover for every m (BENCH_6.json): at ratio 4
counting took from 0.4 to 2.3 times as long as the sweep, the worst case
being rank 2 over GF(256), while at ratio 5.1 it still won for rank 4
over GF(17).  A rule on (q, n, m) is left open.

All elimination (spans, ranks, the contraction in `apply_minor`) is the
kernel in `algebra`: `reduce_vector` / `echelon_push` for the forward step,
their batched forms `reduce_batch` / `unit_rows` for the sweep, and
`canonical_insert` where a canonical basis is needed.  `apply_minor`
builds a new matrix for callers that need a matroid, and when the parent
holds a rank table it reads the minor's table off it by
r_{M/X\\Y}(S) = r_M(S + X) - r_M(X) instead of building one.  The minor
search builds no minor at all: it gathers each candidate's table from the
host's by the same identity and matches it with `table_isomorphism`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import GfMatrix

MAX_GROUND = 64
MAX_TABLE = 26  # 2^26 table entries; exact solvers apply their own caps
ISO_MAX_GROUND = 12
# rank tables are counted from codeword supports while q^min(k, n - k) is at
# most COUNT_RATIO * 2^n, and swept otherwise; words are counted in chunks
# of at most CHUNK_WORDS, and the sweep holds at most CHUNK_WORDS bases
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
        return self._table_from(_count_ranks)

    def _sweep_rank_table(self) -> np.ndarray:
        """The table from the doubling sweep (module docstring)."""
        return self._table_from(_sweep_ranks)

    def _table_from(self, column_ranks) -> np.ndarray:
        """M's table from the table that column_ranks(field, gens) builds for
        N, the column matroid of an m x n generator: of the row space when
        k <= n - k, of its complement otherwise, so m = min(k, n - k)."""
        n, k = self.size, self.rank_full
        dual = k > n - k
        gen = algebra.orthogonal_complement(self.matrix) if dual else algebra.row_basis(self.matrix)
        table = column_ranks(self.field, np.array(gen.entries, dtype=np.uint8).reshape(gen.rows, n))
        if dual:
            # r_M(S) = |S| + r_N(E - S) - m, |S| added one element at a time
            table = table[::-1].copy()
            for i in range(n):
                table.reshape(-1, 2, 1 << i)[:, 1, :] += 1
            table -= gen.rows
        return table

    def __repr__(self):
        return f"VectorMatroid({self.field!r}, n={self.size}, rank={self.rank_full})"


def table_backend(q: int, n: int, k: int) -> str:
    """The rank-table backend for a rank-k matroid on n elements over GF(q):
    "count" when the smaller of the row space and its complement has at
    most COUNT_RATIO * 2^n words (q^min(k, n - k) of them), else "sweep"."""
    return "sweep" if q ** min(k, n - k) > COUNT_RATIO << n else "count"


def _span_words(field, gens: np.ndarray) -> np.ndarray:
    """All q^d linear combinations of the d rows of gens, one word a row."""
    add, mul = field.add_array, field.mul_array
    words = np.zeros((1, gens.shape[1]), dtype=np.uint8)
    for g in gens:
        words = add[mul[:, g][:, None, :], words[None, :, :]].reshape(-1, gens.shape[1])
    return words


def _count_ranks(field, gens: np.ndarray) -> np.ndarray:
    """r(S) = m - J[E - S] for the column matroid of m independent rows
    gens, J = log_q of the words of their span supported inside a set."""
    m, n = gens.shape
    # f[T] = words supported inside T, after the subset-sum transform
    f = _support_counts(field, gens)
    for i in range(n):
        v = f.reshape(-1, 2, 1 << i)
        v[:, 1, :] += v[:, 0, :]
    # J = log_q f, exact: f is a power of q no larger than q^m
    J = np.zeros(1 << n, dtype=np.uint8)
    for j in range(1, m + 1):
        J += f >= field.q**j
    del f
    return m - J[::-1]


def _support_counts(field, gens: np.ndarray) -> np.ndarray:
    """f[T] = the number of words with support T in the row space of the
    linearly independent rows of gens (uint32; q^rows < 2^32 words).

    The span is split into an inner part of at most CHUNK_WORDS words and
    an outer part; each outer word h gives one chunk, the supports of
    inner - h, which are the coordinates where inner differs from h.
    Running h over the outer span runs -h over it too, so every word of
    the row space is counted once."""
    rows, n = gens.shape
    d = 0
    while d < rows and field.q ** (d + 1) <= CHUNK_WORDS:
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


def _sweep_ranks(field, gens: np.ndarray) -> np.ndarray:
    """The ranks of every subset of the columns of gens (m x n): batches of
    echelon bases doubled over the low a = min(n, log2 CHUNK_WORDS)
    columns; each subset H of the other columns seeds one doubling with its
    basis and fills the block [H * 2^a, (H + 1) * 2^a)."""
    m, n = gens.shape
    table = np.zeros(1 << n, dtype=np.uint8)
    if m == 0:
        return table
    cols = np.ascontiguousarray(gens.T)
    a = min(n, CHUNK_WORDS.bit_length() - 1)
    for high in range(1 << (n - a)):
        basis = []
        for i in _bit_positions(high):
            algebra.echelon_push(field, basis, cols[a + i].tolist())
        _double(field, cols[:a], basis, table[high << a : (high + 1) << a])
    return table


def _double(field, cols: np.ndarray, basis: list, out: np.ndarray) -> None:
    """out[S] = dim span(basis + the columns of S) for every subset S of
    cols.  The bases of the subsets of cols[:i] reduce cols[i] all at once
    (`algebra.reduce_batch`); the rank grows where the residue is nonzero,
    and the upper half gets copies of the bases with that residue, scaled
    to lead with 1, appended.  The last column needs ranks only, so at most
    2^(len(cols) - 1) bases of m x m bytes are built."""
    m = cols.shape[1]
    bases = np.zeros((1, m, m), dtype=np.uint8)
    pivots = np.zeros((1, m), dtype=np.uint8)
    for j, row in enumerate(basis):
        bases[0, j] = row
        pivots[0, j] = row.index(1)
    out[0] = len(basis)
    for i, col in enumerate(cols):
        ranks = out[: 1 << i]
        residue = algebra.reduce_batch(field, bases, pivots, ranks, col)
        grew = residue.any(axis=1)
        out[1 << i : 2 << i] = ranks + grew
        if i + 1 == len(cols):
            break
        s = np.flatnonzero(grew)
        rows, lead = algebra.unit_rows(field, residue[s])
        bases = np.concatenate([bases, bases])
        pivots = np.concatenate([pivots, pivots])
        bases[(1 << i) + s, ranks[s]] = rows
        pivots[(1 << i) + s, ranks[s]] = lead


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
    linear map with kernel span(contract), so r_N(S) = r_M(S + X) - r_M(X).

    When M holds a rank table, N's table is read from it by that identity:
    M's table as one axis per element (element i on axis n - 1 - i), fixed
    at 1 for a contracted element, at 0 for a deleted one and kept whole
    otherwise, a copy of 2^|N| entries with no index array.  The matrix of
    N is still built, so the checks that eliminate on it (`width_of_ordering`,
    `replay_certificate`, `pathwidth_exact`) never depend on the table."""
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
    N = VectorMatroid(sub, tuple(M.labels[j] for j in keep_cols))
    if M._rank_table is not None:
        axes = tuple(1 if (cmask >> i) & 1 else 0 if (dmask >> i) & 1 else slice(None)
                     for i in reversed(range(M.size)))
        table = M._rank_table.reshape((2,) * M.size)[axes].reshape(-1) - M._rank_table[cmask]
        table.flags.writeable = False
        N._rank_table = table
    return N


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
