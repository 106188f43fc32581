"""Vector matroids M[A] on the columns of a matrix over GF(q).

Ground subsets travel as int bitmasks over column positions (ground sets are
capped at 64 elements); every public query also accepts an iterable of
labels.  Rank queries are memoized, and a full rank table over all 2^n
subsets can be materialized for the exact solvers.

Work is refused before it is done by one of three rules.  `check_budget`
decides for every table and DP: TABLE_BYTES per rank-table entry plus
STATE_BYTES per DP state must fit in EXACT_BYTES, what a simple
24-element matroid needs.  `rank_table`, `pathwidth_exact` and
`graph_pathwidth` call it, so no table has more than 2^24 entries and a
graph DP no more than 2^25 states.  The exhaustive searches (isomorphism
and the minor search) share ISO_MAX_GROUND = 12 elements, within which the
minor search's largest expansion table (`minors._expansions`, uint16) has
C(12, 8) * 2^8 entries, 253 KB.  Ground sets are bitmasks of at most
MAX_GROUND = 64 elements.

`rank_table` builds the table of N, the column matroid of an m x n
generator: of the row space C (dimension k) when k <= n - k, else of its
dual C-perp (from `algebra.orthogonal_complement`), so m = min(k, n - k)
<= 12 within the budget.  N is M itself on the first route; on the
second r_M(S) = |S| + r_N(E - S) - m, applied once to N's table.  For a
code, m - r_N(S) is the paper's trellis state dimension at a cut.

The table is swept: batches of residues are doubled one element at a
time.  Each subset S of elements 0..i-1 carries the residues of columns
i..a-1 modulo span(S), zero exactly on the columns S spans: the rank
grows by one wherever column i's residue (the head) is nonzero, the
subsets without i keep the later residues, and those with i get them with
the head pivoted out, one batched one-row step per column, a constant
number of numpy calls.  A zero head leaves the residues unchanged, so
every subset takes the step and none is selected.  Only the encoding of a
residue and the step depend on the field (`_encode`, `_word_step`,
`_byte_step`):

- GF(2): one uint16 word, bit j the entry j; the step XORs the head into
  the residues that have its lowest bit.
- GF(3): two uint16 planes, of the entries 1 and of the entries 2; the
  head, scaled to lead with 1, is subtracted once or twice with the
  bitsliced GF(3) sum (after Boothby and Bradshaw, "Bitslicing and the
  Method of Four Russians over larger finite fields").
- GF(4): two uint16 planes, of the coefficients of 1 and of x in
  c0 + c1 x, with x^2 = x + 1; the step is XOR, as over GF(2), of the
  head scaled by the residue's entry over the head's.
- every other field: one byte an entry; the head's pivot row comes from
  m masked stores, the head's entry c and each residue's entry e there
  from flat gathers, and the residue's multiplier -e / c from one cached
  q x q table; then one product gather mul[multiplier, head entry] per
  entry and the sum: an XOR in characteristic 2, a uint8 sum folded by
  min(s, s - p) over the primes p < 128, an add-table gather otherwise,
  in slices of at most SLICE_ENTRIES = 2^13 entries.

Only the low a = min(n, 16) elements are doubled, so at most
CHUNK_WORDS = 2^16 subsets are in flight, with at most 2^(a-1) residues
after a step; each subset H of the other n - a elements seeds one
doubling with the low columns reduced modulo span(H) and fills the block
[H * 2^a, (H + 1) * 2^a).  The working set is the uint8 table plus the
residues of one block: tracemalloc peaks 0.3 MB over the 1 MB table for
a [20, 8] code over GF(2), 0.8 MB over it over GF(4) and 0.5 MB over it
for a [20, 3] code over GF(17).

All elimination (spans, ranks, the contraction in `apply_minor`) is the
kernel in `algebra`: `reduce_vector` / `echelon_push` for the forward step;
the sweep's word and byte steps are its batched forms, checked against
`reduce_vector`.
`apply_minor` builds a new matrix for callers that need a matroid, and
when the parent holds a rank table it reads the minor's table off it by
r_{M/X\\Y}(S) = r_M(S + X) - r_M(X) instead of building one.  The minor
search builds no minor at all: it gathers each candidate's table from the
host's by the same identity and matches it with `table_isomorphism`.

`table_isomorphism` compares one invariant before it searches: the byte
key |S| * (n + 1) + r(S) of every subset S (`rank_keys`).  Tables must
agree on each element's count of each key over the subsets containing
it, up to the order of the elements, which fixes their sorted keys too,
and e goes only to an element with e's counts (after McKay and Piperno,
"Practical graph isomorphism, II", 2014).  That refuses tables whose
counts differ without a search, but bounds nothing when they agree.  The
partial map is two index arrays (its docstring); `bits(n)`, the cached
bit matrix of every S < 2^n, gives the popcounts and the final check of
the bijection.  The minor search expands pattern masks to host masks
through its own uint16 tables (`minors._expansions`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import GfMatrix

MAX_GROUND = 64
# the exhaustive searches' one cap: isomorphism and the minor search
ISO_MAX_GROUND = 12
# the exact solvers' one memory rule (`check_budget`): TABLE_BYTES per
# rank-table entry and STATE_BYTES per DP state (lambda or vertex
# boundary, B and its padding, chunk buffers), within EXACT_BYTES, what a
# simple 24-element matroid needs.  A swept table holds about 3 bytes an
# entry at its peak (the uint8 table, the dual route's reversed copy and
# the DP's lambda table); TABLE_BYTES stays at the 6 that codeword counting
# needed, so that every input refused before is refused now
TABLE_BYTES, STATE_BYTES = 6, 4
EXACT_BYTES = (TABLE_BYTES + STATE_BYTES) << 24
# the sweep doubles at most CHUNK_WORDS subsets at a time, and the byte
# step gathers at most SLICE_ENTRIES residue entries at a time
CHUNK_WORDS, SLICE_ENTRIES = 1 << 16, 1 << 13


class GroundSetTooLarge(ValueError):
    """The input is refused by a cap: the byte budget (`check_budget`),
    ISO_MAX_GROUND for the exhaustive searches, or MAX_GROUND."""


class OverlappingSets(ValueError):
    """Contract and delete sets of a minor specification intersect."""


class FieldMismatch(ValueError):
    """Operands live over different fields."""


def label_key(label):
    """Total deterministic order on labels: ints first, then strings."""
    if isinstance(label, int):
        return (0, label, "")
    return (1, 0, str(label))


@dataclass(frozen=True)
class MinorSpec:
    """Disjoint contract / delete label sets defining a minor M/X\\Y."""

    contract: frozenset
    delete: frozenset

    def __post_init__(self):
        if self.contract & self.delete:
            raise OverlappingSets(f"contract and delete share {set(self.contract & self.delete)}")


class VectorMatroid:
    """The matroid of a matrix's columns, with memoized rank oracles;
    columns[j] is column j of the matrix as a tuple.

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
        self.columns = tuple(matrix.columns())
        self.rank_full = algebra.rank(matrix)
        self._rank_cache = {0: 0}
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
        cols = [self.columns[i] for i in _bit_positions(mask)]
        r = algebra.rank_of_columns(self.field, cols)
        self._rank_cache[mask] = r
        return r

    def rank_subset(self, subset) -> int:
        """r(J): dimension of the span of the columns indexed by J."""
        return self._rank_mask(self.mask_of(subset))

    def connectivity(self, subset) -> int:
        """lambda(X) = r(X) + r(E - X) - r(E), from two memoized rank lookups."""
        mask = self.mask_of(subset)
        return self._rank_mask(mask) + self._rank_mask(self.full_mask ^ mask) - self.rank_full

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
        """Ranks of all 2^n subsets (uint8, indexed by mask), swept
        (module docstring).  Refuses by `check_budget` before building
        anything."""
        if self._rank_table is None:
            check_budget(1 << self.size)
            table = self._table_from()
            table.flags.writeable = False
            self._rank_table = table
        return self._rank_table

    def _table_from(self) -> np.ndarray:
        """M's table from the table `_sweep_ranks` builds for N, the column
        matroid of an m x n generator: an echelon basis of the row space when
        k <= n - k, a basis of its complement otherwise, so m = min(k, n - k)."""
        n, k = self.size, self.rank_full
        dual = k > n - k
        if dual:
            gen = algebra.orthogonal_complement(self.matrix).entries
        else:
            gen = []
            for row in self.matrix.entries:
                algebra.echelon_push(self.field, gen, row)
        table = _sweep_ranks(self.field, np.array(gen, dtype=np.uint8).reshape(len(gen), n))
        if dual:
            # r_M(S) = |S| + r_N(E - S) - m, |S| the popcounts of its low
            # and its high half
            table = table[::-1].copy()
            halves = table.reshape(1 << (n - n // 2), 1 << n // 2)
            halves += np.bitwise_count(np.arange(1 << n // 2))
            halves += np.bitwise_count(np.arange(1 << (n - n // 2)))[:, None]
            table -= len(gen)
        return table

    def __repr__(self):
        return f"VectorMatroid({self.field!r}, n={self.size}, rank={self.rank_full})"


def check_budget(table_entries: int, states: int = 0) -> None:
    """The exact solvers' one memory rule, checked before anything is
    allocated: a rank table of table_entries entries (TABLE_BYTES each)
    and a DP over states states (STATE_BYTES each) must fit in
    EXACT_BYTES, or GroundSetTooLarge is raised."""
    need = TABLE_BYTES * table_entries + STATE_BYTES * states
    if need > EXACT_BYTES:
        raise GroundSetTooLarge(
            f"{table_entries} rank-table entries and {states} DP states would need about "
            f"{need / 1e6:.0f} MB, over the budget of {EXACT_BYTES / 1e6:.0f} MB")


def _sweep_ranks(field, gens: np.ndarray) -> np.ndarray:
    """The ranks of every subset of the columns of gens (m x n), doubled
    over the low a = min(n, log2 CHUNK_WORDS) columns; each subset H of the
    other columns seeds one doubling with the low columns reduced modulo
    span(H) and fills the block [H * 2^a, (H + 1) * 2^a)."""
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
        seed = cols[:a]
        if basis:
            seed = np.array([algebra.reduce_vector(field, basis, col) for col in seed.tolist()], dtype=np.uint8)
        _double(field, seed, len(basis), table[high << a : (high + 1) << a])
    return table


def _double(field, seed: np.ndarray, rank: int, out: np.ndarray) -> None:
    """out[S] = rank + dim span(the rows of seed (a x m) in S), for every
    subset S of its rows.  Each subset S of rows 0..i-1 carries the residues
    of rows i..a-1 modulo span(S), zero exactly on the rows that S spans:
    the rank grows where row i's residue (the head) is nonzero, the subsets
    without i keep the rest, and those with i get the rest with the head
    pivoted out by the field's step, which leaves the rest unchanged where
    the head is zero.  res[plane, row, subset] holds them (`_encode`), at
    most 2^(i+1) (a - i - 1) <= 2^(a-1) residues after step i."""
    a = len(seed)
    res = _encode(field, seed)[:, :, None]
    step = _word_step if res.dtype == np.uint16 else _byte_step
    out[0] = rank
    for i in range(a):
        b = 1 << i
        np.add(out[:b], res[:, 0].any(axis=0), out=out[b : 2 * b])
        if i + 1 < a:
            grown = np.empty((len(res), a - i - 1, 2 * b), dtype=res.dtype)
            grown[:, :, :b] = res[:, 1:]
            step(field, res, grown[:, :, b:])
            res = grown


def _encode(field, rows: np.ndarray) -> np.ndarray:
    """Vectors rows (a x m, uint8) as planes x[plane, row].  Over GF(2),
    GF(3) and GF(4) plane k is a uint16 word whose bit j is bit k of entry
    j: one plane over GF(2); over GF(3) plane 0 marks the entries 1 and
    plane 1 the entries 2; over GF(4), whose element c0 + c1 x (x^2 = x +
    1) has code c0 + 2 c1, plane k holds the ck.  Over any other field
    plane j is entry j, one byte."""
    if field.q > 4:
        return rows.T
    planes = np.arange((field.q - 1).bit_length(), dtype=np.uint8)[:, None, None]
    return (rows >> planes & 1) @ (np.uint16(1) << np.arange(rows.shape[1], dtype=np.uint16))


def _word_step(field, res, out) -> None:
    """out = the residues res[:, 1:] less their components along the head
    res[:, 0], on word planes (P, R + 1, N): a head and R residues for each
    of N subsets.  The pivot is the lowest bit p set in a plane of the
    head, where the head's entry is c, and a residue whose entry there is e
    adds -(e / c) * head.  Over GF(3) and GF(4) e is the sum of the e_k
    whose plane k holds p (e_0 = 1, e_1 = 2 or x), so the residue adds g
    for plane 0 and e_1 g for plane 1, g = -head / c.  A zero head has p =
    0, and nothing is added."""
    head, rest = res[:, 0], res[:, 1:]
    low = head[0] | head[-1]
    p = low & -low
    bits = (res & p).astype(bool)
    c, hits = bits[:, 0], bits[:, 1:]
    if field.q == 2:
        np.bitwise_xor(rest, hits * head[:, None], out=out)
        return
    if field.q == 3:
        # g = -head where c = 1 (-1 swaps the planes), head where c = 2;
        # 2g = -g
        g = head ^ c[0] * (head[0] ^ head[1])
        eg = g[::-1]
    else:
        # g = head / c = c^2 head = c0 head + c1 x^2 head (c^3 = 1), and x
        # (h0, h1) = (h1, h0 + h1): the planes of (h, xh) and (x^2 h, h) are
        # the windows [1:] and [:3] of (h0 + h1, h0, h1, h0 + h1)
        seq = head[[0, 0, 1, 0]]
        seq[::3] ^= head[1]
        a = c[0] * seq[1:] ^ c[1] * seq[:3]
        g, eg = a[:2], a[1:]
    w = hits[0] * g[:, None] ^ hits[1] * eg[:, None]
    if field.q == 4:
        np.bitwise_xor(rest, w, out=out)
    else:
        # the GF(3) sum of planes (ones, twos): with t = (r1 | w2) ^ (r2 |
        # w1), its ones are (r2 | w2) ^ t and its twos (r1 | w1) ^ t
        either = rest | w
        cross = rest | w[::-1]
        np.bitwise_xor(either[::-1], cross[0] ^ cross[1], out=out)


def _byte_step(field, res, out) -> None:
    """`_word_step` on byte planes (m, R + 1, N), one byte an entry.  The
    pivot is the head's first nonzero entry c, in the row `lead` that m
    masked stores find, the last row first so that the first nonzero row
    is stored last.  c and each residue's entry e there are flat gathers
    from res, and the residue adds g * head, its multiplier g = -e / c read
    as g * q from `_multipliers`, (R, N) in all.  Then one product gather
    mul[g, y] per entry, y the head's, at g * q + y < 65536 (uint16), and
    the sum s = x + mul[g, y] with x the residue's: an XOR in
    characteristic 2; over the primes p < 128 the uint8 sum (at most 2p -
    2 <= 252), then min(s, s - p), since s - p wraps past 255 where s < p;
    an add-table gather otherwise.  A zero head has lead 0 and c = 0, so g
    = 0 and the residues are unchanged.  np.take copies its indices to
    intp, so the subsets go in slices of at most SLICE_ENTRIES entries."""
    m, R, N = out.shape
    q = np.uint16(field.q)
    add, mul = field.add_array.ravel(), field.mul_array.ravel()
    head, rest = res[:, 0], res[:, 1:]
    # at[t]: the flat index in res of head t's pivot, lead * (R + 1) * N + t
    at = np.zeros(N, dtype=np.intp)
    for lead in range(m - 1, -1, -1):
        at[head[lead] != 0] = lead * (R + 1) * N
    at += np.arange(N)
    flat = res.reshape(-1)
    e = flat.take(at + np.arange(N, (R + 1) * N, N)[:, None])
    gq = _multipliers(field).ravel().take(flat.take(at) * q + e)
    small_prime = field.k == 1 and field.p < 128
    width = max(1, SLICE_ENTRIES // (m * R))
    for lo in range(0, N, width):
        part = slice(lo, lo + width)
        idx = gq[:, part] + head[:, None, part]
        prod = mul.take(idx)
        x, s = rest[:, :, part], out[:, :, part]
        if field.p == 2:
            np.bitwise_xor(x, prod, out=s)
        elif small_prime:
            np.add(x, prod, out=s)
            np.subtract(s, np.uint8(field.p), out=prod)
            np.minimum(s, prod, out=s)
        else:
            np.multiply(x, q, out=idx)
            idx += prod
            add.take(idx, out=s)


@functools.cache
def _multipliers(field) -> np.ndarray:
    """The read-only q x q uint16 table of g * q at [c, e], g = -e / c the
    multiplier that makes e + g * c = 0, and 0 where c = 0."""
    g = field.mul_array[field.neg_array[None, :], field.inv_array[:, None]]
    table = g.astype(np.uint16) * np.uint16(field.q)
    table.flags.writeable = False
    return table


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
    `replay_certificate`, `pathwidth_exact`) never depend on the table.  N
    has M's type, so the minors of a code are codes."""
    cmask = M.mask_of(spec.contract)
    dmask = M.mask_of(spec.delete)
    if cmask & dmask:
        raise OverlappingSets("contract and delete overlap")
    field = M.field
    basis = []
    for i in _bit_positions(cmask):
        algebra.echelon_push(field, basis, M.columns[i])
    pivots = {row.index(1) for row in basis}
    keep_rows = [r for r in range(M.matrix.rows) if r not in pivots]
    drop_cols = cmask | dmask
    keep_cols = [j for j in range(M.size) if not (drop_cols >> j) & 1]
    cols = [algebra.reduce_vector(field, basis, M.columns[j]) for j in keep_cols]
    entries = [[col[r] for col in cols] for r in keep_rows]
    sub = GfMatrix(field, entries, cols=len(keep_cols))
    N = type(M)(sub, tuple(M.labels[j] for j in keep_cols))
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
    """The dual matroid via [I | B] -> [-B^T | I], labels and type preserved."""
    return type(M)(algebra.orthogonal_complement(M.matrix), M.labels)


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
    n = max(M.size, N.size)
    if n > ISO_MAX_GROUND:
        raise GroundSetTooLarge(f"{n} > {ISO_MAX_GROUND} elements for an exhaustive search")
    if M.size != N.size or M.rank_full != N.rank_full:
        return None
    return table_isomorphism(M.rank_table(), M.labels, N.rank_table(), N.labels)


@functools.cache
def bits(n):
    """The read-only (n, 2^n) matrix of bit t of S in row t, column S, for
    every S < 2^n: (1 << image) @ bits(n) sends each mask S to the mask of
    its bits' images, and bits(n).sum(axis=0) is the popcount of every S.
    Callers keep n within ISO_MAX_GROUND."""
    out = np.arange(1 << n) >> np.arange(n)[:, None] & 1
    out.flags.writeable = False
    return out


@functools.cache
def rank_keys(n):
    """|S| * (n + 1) for every S < 2^n, uint8 and read-only; adding a rank
    table gives the keys, at most 168 within ISO_MAX_GROUND."""
    out = (bits(n).sum(axis=0) * (n + 1)).astype(np.uint8)
    out.flags.writeable = False
    return out


def iso_invariants(table, n):
    """The invariants of one table on n elements: its sorted keys, which the
    minor search compares, and counts[e, key] over the subsets containing e,
    which table_isomorphism compares before it searches."""
    keys = table + rank_keys(n)
    counts = np.array([np.bincount(keys.reshape(-1, 2, 1 << e)[:, 1].ravel(), minlength=(n + 1) ** 2)
                       for e in range(n)]).reshape(n, (n + 1) ** 2)
    keys.sort(kind="stable")
    return keys, counts


def _match_order(counts, labels):
    """Most dependent pairs through e first, then dependent triples, then
    loops, then labels: the dependent k-sets have keys k * (n + 1) + r < k."""
    n1 = len(labels) + 1
    loops, pairs, triples = (counts[:, k * n1 : k * n1 + k].sum(axis=1).tolist() for k in (1, 2, 3))
    return sorted(range(len(labels)), key=lambda i: (-pairs[i], -triples[i], -loops[i], label_key(labels[i])))


def table_isomorphism(TM, labels_m, TN, labels_n, invariants_m=None):
    """is_isomorphic on rank tables over the same number of elements and of
    equal full rank; labels_*[i] names bit i.  A caller matching one table
    TM against many passes invariants_m = iso_invariants(TM, n) once.
    Elements are matched in `_match_order`, each only to an element with
    the same key counts, and images tried in label order.

    The partial map is two index arrays: src holds every subset of the
    elements matched so far and dst their images, so element e may go to c
    when TN[dst | 1 << c] equals TM[src | 1 << e] everywhere, one gather
    per candidate; on a match both arrays double."""
    n = len(labels_m)
    counts_m = (invariants_m or iso_invariants(TM, n))[1]
    counts_n = iso_invariants(TN, n)[1]
    inv_m = [row.tobytes() for row in counts_m]
    inv_n = [row.tobytes() for row in counts_n]
    # equal sorted count rows give equal sorted keys: the keys of size s > 0
    # number their column sum over the counts divided by s
    if sorted(inv_m) != sorted(inv_n):
        return None

    order = _match_order(counts_m, labels_m)
    candidates = sorted(range(n), key=lambda j: label_key(labels_n[j]))
    image = np.full(n, -1, dtype=np.intp)
    used = [False] * n

    def backtrack(depth, src, dst):
        if depth == n:
            return True
        pos = order[depth]
        grown = src | 1 << pos
        want = TM[grown]
        for cand in candidates:
            if used[cand] or inv_n[cand] != inv_m[pos]:
                continue
            if (TN[dst | 1 << cand] == want).all():
                image[pos] = cand
                used[cand] = True
                if backtrack(depth + 1, np.concatenate([src, grown]), np.concatenate([dst, dst | 1 << cand])):
                    return True
                used[cand] = False
        return False

    empty = np.zeros(1, dtype=np.intp)
    if not backtrack(0, empty, empty):
        return None
    # safety: verify the bijection on every subset
    if (TM != TN[(1 << image) @ bits(n)]).any():
        raise AssertionError("isomorphism search returned an invalid bijection")
    return {labels_m[i]: labels_n[image[i]] for i in range(n)}


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
    return VectorMatroid(*parse_matroid_text(text))


def parse_matroid_text(text: str) -> tuple:
    """(matrix, labels or None) of a matroid file."""
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
    return mat, labels
