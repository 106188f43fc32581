"""Exact arithmetic over GF(q) and dense matrix operations.

Field elements are encoded as integers 0..q-1; for extension fields the
base-p digits of the code are the polynomial coefficients (little-endian:
digit i is the coefficient of x**i).  Every field, prime or extension, is
the same four lookup tables (addition, negation, multiplication, inverse),
built once when the field is; arithmetic never branches on the field's
kind.  All matrix work is exact Gaussian elimination reading those tables,
one multiplication-table row per pivot.  No floating point.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_FIELD_ORDER = 256


class NonPrimeCharacteristic(ValueError):
    """The requested characteristic is not a prime number."""


class FieldTooLarge(ValueError):
    """The requested field order exceeds the supported cap of 256."""


class MatrixFormatError(ValueError):
    """A matrix text document failed to parse; carries the offending line."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficient lists little-endian


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    return _poly_trim(a)


def _poly_is_irreducible(m, p):
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for code in range(p**d):
            g = []
            c = code
            for _ in range(d):
                g.append(c % p)
                c //= p
            g.append(1)
            if not _poly_mod(m, g, p):
                return False
    return True


def _find_reduction_poly(p: int, k: int) -> tuple:
    """Smallest-encoding monic irreducible polynomial of degree k over GF(p)."""
    for code in range(p**k):
        digits = []
        c = code
        for _ in range(k):
            digits.append(c % p)
            c //= p
        cand = digits + [1]
        if _poly_is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


class FieldSpec:
    """A finite field GF(p**k), q <= 256, as four lookup tables.

    add_table[a][b], neg_table[a], mul_table[a][b] and inv_table[a] are
    tuples of element codes, built once per field; every arithmetic method
    is a lookup, the same for prime and extension fields.  Sums are taken
    digit by digit mod p; products and inverses come from exp/log tables
    over a generator of the multiplicative group, and so does `pow`.  Only
    the construction depends on k: a product of constants for k = 1, a
    polynomial product mod the reduction polynomial for k > 1.
    inv_table[0] is a placeholder 0; `inv(0)` raises.

    add_array, neg_array, mul_array and inv_array are the same four tables
    as read-only uint8 numpy arrays, for the vectorised consumers.
    """

    def __init__(self, p: int, k: int, reduction_poly: tuple):
        self.p = p
        self.k = k
        self.q = q = p**k
        self.reduction_poly = reduction_poly
        digits = np.array([[a // p**i % p for i in range(k)] for a in range(q)])
        weights = p ** np.arange(k)
        add = (digits[:, None] + digits) % p @ weights
        neg = -digits % p @ weights
        self.add_table = tuple(map(tuple, add.tolist()))
        self.neg_table = tuple(neg.tolist())
        exp = self._powers_of_generator()
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = tuple(exp), tuple(log)
        # exp repeated twice, so that log[a] + log[b] needs no reduction
        logs = np.array(log)
        mul = np.array(exp * 2)[logs[:, None] + logs]
        mul[0, :] = mul[:, 0] = 0
        self.mul_table = tuple(map(tuple, mul.tolist()))
        self.inv_table = (0,) + tuple(exp[-log[a] % (q - 1)] for a in range(1, q))
        self.add_array, self.neg_array, self.mul_array, self.inv_array = (
            _frozen_u8(t) for t in (add, neg, mul, self.inv_table)
        )

    def _product(self, a: int, b: int) -> int:
        """a * b for building the tables."""
        p, k = self.p, self.k
        if k == 1:
            return a * b % p
        prod = _poly_mul([a // p**i % p for i in range(k)], [b // p**i % p for i in range(k)], p)
        return sum(d * p**i for i, d in enumerate(_poly_mod(prod, self.reduction_poly, p)))

    def _powers_of_generator(self) -> list:
        """[g^0, g^1, ..., g^(q-2)] for the smallest generator g."""
        for g in range(1, self.q):
            powers = [1]
            x = g
            while x != 1:
                powers.append(x)
                x = self._product(x, g)
            if len(powers) == self.q - 1:
                return powers
        raise AssertionError(f"GF({self.q}) has no generator")

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.inv_table[a]

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        return self._exp[self._log[a] * e % (self.q - 1)]

    def elements(self):
        return range(self.q)

    def q_token(self) -> str:
        return str(self.p) if self.k == 1 else f"{self.p}^{self.k}"

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"GF({self.q})" if self.k == 1 else f"GF({self.p}^{self.k})"


def _frozen_u8(table) -> np.ndarray:
    arr = np.array(table, dtype=np.uint8)
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=None)
def field_new(p: int, k: int = 1) -> FieldSpec:
    """Build GF(p**k).  Instances are cached, so equal fields are identical."""
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if p**k > MAX_FIELD_ORDER:
        raise FieldTooLarge(f"{p}^{k} exceeds the cap of {MAX_FIELD_ORDER}")
    poly = () if k == 1 else _find_reduction_poly(p, k)
    return FieldSpec(p, k, poly)


def field_from_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q."""
    if q < 2:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    p = 2
    while q % p:
        p += 1
    k = 0
    n = q
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    return field_new(p, k)


# ---------------------------------------------------------------------------
# matrices


class GfMatrix:
    """Immutable dense matrix over a FieldSpec.

    `rows`/`cols` are counts; `entries` is a tuple of row tuples of element
    codes.  Zero-row and zero-column matrices are allowed (rank 0).
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, entries, cols: int | None = None):
        rows = tuple(tuple(r) for r in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        q = field.q
        for r in rows:
            for x in r:
                if not (0 <= x < q):
                    raise ValueError(f"entry {x} out of range for {field}")
        self.field = field
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "GfMatrix":
        return GfMatrix(self.field, [self.column(j) for j in range(self.cols)], cols=self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, GfMatrix)
            and self.field == other.field
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.cols, self.entries))

    def __repr__(self):
        return f"GfMatrix({self.field!r}, {self.rows}x{self.cols})"


def identity_matrix(field: FieldSpec, n: int) -> GfMatrix:
    return GfMatrix(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)


# ---------------------------------------------------------------------------
# the elimination kernel
#
# An echelon basis is a sequence of rows, each led by a 1 (its pivot, found
# as row.index(1)) and zero at the pivots of the rows before it.  Every rank,
# span and reduced form in the package is built from the two steps below, or
# from their batched forms on numpy arrays: `reduce_batch`, the forward step
# against one row per batch entry, and `unit_rows`; over GF(2), GF(3) and
# GF(4) the rank-table sweep takes the same step on bitsliced words
# (`matroid._word_step`).
# Subtracting c times a row y from x reads m = mul_table[-c] once and then
# add_table[x][m[y]] per entry.


def _unit_row(field: FieldSpec, v):
    """v scaled so that its first nonzero entry is 1, or None when v is zero."""
    for c in v:
        if c:
            if c != 1:
                m = field.mul_table[field.inv_table[c]]
                v = [m[x] for x in v]
            return tuple(v)
    return None


def reduce_vector(field: FieldSpec, basis, v):
    """Forward step: v less its components along an echelon basis.  The
    result is zero exactly when v lies in the span; otherwise it is zero at
    every basis pivot, so its first nonzero entry is a new pivot."""
    add, neg, mul = field.add_table, field.neg_table, field.mul_table
    for row in basis:
        c = v[row.index(1)]
        if c:
            m = mul[neg[c]]
            v = [add[x][m[y]] for x, y in zip(v, row)]
    return v


def echelon_push(field: FieldSpec, basis: list, v) -> None:
    """Append v's residue against `basis` as a new basis row, unless v is
    already spanned."""
    row = _unit_row(field, reduce_vector(field, basis, v))
    if row is not None:
        basis.append(row)


def reduce_batch(field: FieldSpec, rows, leads, vs) -> np.ndarray:
    """`reduce_vector` against a one-row basis, for a batch of N of them.

    rows (m, N) hold N uint8 rows down their columns, each leading with 1
    at its entry leads (N,), as `unit_rows` returns them; vs (m, L, N)
    holds L vectors per row, likewise.  Returns the (m, L, N) residues:
    each vector less c times its row, c its entry at the row's lead, as
    add[x, mul[neg[c], y]] through flat table gathers at uint16 indices
    (q^2 <= 65536)."""
    q = np.uint16(field.q)
    add, mul = field.add_array.ravel(), field.mul_array.ravel()
    c = np.take_along_axis(vs, leads[None, None], axis=0)
    step = mul[field.neg_array[c] * q + rows[:, None]]
    idx = vs * q
    idx += step
    return add[idx]


def unit_rows(field: FieldSpec, rows) -> tuple:
    """`_unit_row` for a batch of uint8 rows held down the columns of rows
    (m, N): the rows scaled so that each leads with 1, and the index of
    that 1 in each.  A zero row stays zero."""
    lead = (rows != 0).argmax(axis=0)
    c = np.take_along_axis(rows, lead[None], axis=0)
    return field.mul_array.ravel()[field.inv_array[c] * np.uint16(field.q) + rows], lead


def rank(A: GfMatrix) -> int:
    """Rank of the row space."""
    return rank_of_columns(A.field, A.entries)


def rank_of_columns(field: FieldSpec, columns) -> int:
    """Rank of a list of vectors (tuples over the field)."""
    basis = []
    for col in columns:
        echelon_push(field, basis, col)
    return len(basis)


def rref(A: GfMatrix) -> tuple:
    """Reduced row-echelon form.

    Args:
        A: any matrix; zero rows end up at the bottom.

    Returns:
        (R, pivot_cols): R is the RREF with the same row space as A, and
        pivot_cols is the strictly increasing tuple of pivot column indices
        (its length is the rank).
    """
    f = A.field
    basis = []
    for row in A.entries:
        echelon_push(f, basis, row)
    # each row is zero at the pivots before it; clearing it at the pivots
    # after it leaves the reduced basis
    basis = sorted((tuple(reduce_vector(f, basis[i + 1:], row)) for i, row in enumerate(basis)),
                   key=lambda row: row.index(1))
    rows = basis + [(0,) * A.cols] * (A.rows - len(basis))
    return GfMatrix(f, rows, cols=A.cols), tuple(row.index(1) for row in basis)


def orthogonal_complement(A: GfMatrix) -> GfMatrix:
    """A full-row-rank generator of the orthogonal complement of A's row
    space, from R = rref(A): one row per free column f, 1 at f and
    -R[i][f] at the pivot column of row i."""
    neg = A.field.neg_table
    R, pivots = rref(A)
    entries = []
    for f in sorted(set(range(A.cols)) - set(pivots)):
        row = [0] * A.cols
        row[f] = 1
        for r, p in zip(R.entries, pivots):
            row[p] = neg[r[f]]
        entries.append(row)
    return GfMatrix(A.field, entries, cols=A.cols)


# ---------------------------------------------------------------------------
# text format: first line "q m n", then m rows of n space-separated codes


def matrix_to_text(A: GfMatrix) -> str:
    lines = [f"{A.field.q_token()} {A.rows} {A.cols}"]
    for row in A.entries:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_field_token(token: str) -> FieldSpec:
    if "^" in token:
        ps, ks = token.split("^", 1)
        return field_new(int(ps), int(ks))
    return field_from_order(int(token))


def matrix_from_lines(lines, start: int = 0) -> tuple:
    """Parse a matrix from a list of lines; returns (GfMatrix, next_index)."""
    i = start
    while i < len(lines) and not lines[i].strip():
        i += 1
    if i >= len(lines):
        raise MatrixFormatError("missing header", line=start + 1)
    header = lines[i].split()
    if len(header) != 3:
        raise MatrixFormatError("header must be 'q m n'", line=i + 1)
    try:
        field = parse_field_token(header[0])
        m, n = int(header[1]), int(header[2])
    except (ValueError, NonPrimeCharacteristic, FieldTooLarge) as exc:
        raise MatrixFormatError(str(exc), line=i + 1) from exc
    if m < 0 or n < 0:
        raise MatrixFormatError("row and column counts must be nonnegative", line=i + 1)
    i += 1
    rows = []
    for r in range(m):
        while i < len(lines) and not lines[i].strip():
            i += 1
        if i >= len(lines):
            raise MatrixFormatError(f"expected {m} rows, found {r}", line=i)
        toks = lines[i].split()
        if len(toks) != n:
            raise MatrixFormatError(f"expected {n} entries, found {len(toks)}", line=i + 1)
        try:
            row = [int(t) for t in toks]
        except ValueError as exc:
            raise MatrixFormatError(str(exc), line=i + 1) from exc
        for x in row:
            if not (0 <= x < field.q):
                raise MatrixFormatError(f"entry {x} out of range 0..{field.q - 1}", line=i + 1)
        rows.append(row)
        i += 1
    return GfMatrix(field, rows, cols=n), i
