"""Exact arithmetic over GF(q) and dense matrix operations.

Field elements are encoded as integers 0..q-1; for extension fields the
base-p digits of the code are the polynomial coefficients (little-endian:
digit i is the coefficient of x**i), reduced modulo the smallest-encoding
monic irreducible polynomial of degree k.  Every field, prime or
extension, is the same four lookup tables (addition, negation,
multiplication, inverse), built once when the field is, in integer numpy
operations over the digit vectors of all q codes at once (`FieldSpec`);
arithmetic never branches on the field's kind.  All matrix work is exact
Gaussian elimination reading those tables, one multiplication-table row
per pivot.  No floating point.
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


def _poly_product(a, b, p: int) -> np.ndarray:
    """Every product mod p of a polynomial of a with one of b, as an
    (m + n - 1, A, B) array: a (m, A) and b (n, B) hold A and B polynomials
    as uint16 columns of little-endian coefficients below p.  Each
    coefficient sums at most min(m, n) products below p^2, so it fits
    uint16 for every field up to the cap."""
    out = np.zeros((len(a) + len(b) - 1, a.shape[1], b.shape[1]), dtype=np.uint16)
    b = b[:, None]
    for i, ai in enumerate(a[:, :, None]):
        out[i:i + len(b)] += ai * b
    return out % p


class FieldSpec:
    """A finite field GF(p**k), q <= 256, as four lookup tables.

    add_table[a][b], neg_table[a], mul_table[a][b] and inv_table[a] are
    tuples of element codes, built once per field; every arithmetic method
    is a lookup, the same for prime and extension fields.  The tables come
    from the base-p digit vectors of all q codes at once: sums digit by
    digit mod p, and products as the q^2 polynomial products of the digit
    vectors, each coefficient of x^d (d >= k) folded back through x^d mod
    the reduction polynomial.  The reduction polynomial is the
    smallest-encoding monic irreducible of degree k: the smallest code that
    no product of monic polynomials of degrees d and k - d (1 <= d <= k/2)
    reaches; () for k = 1.  neg_table and inv_table are read off the other
    two (inv_table[0] is a placeholder 0; `inv(0)` raises), and `pow` is
    square-and-multiply over mul_table.

    add_array, neg_array, mul_array and inv_array are the same four tables
    as read-only uint8 numpy arrays, for the vectorised consumers.
    """

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.q = q = p**k
        # digits[i, c]: the coefficient of x^i in code c, for c < 2q, so
        # that codes p^d .. 2p^d - 1 are the monic polynomials of degree d
        powers = p ** np.arange(k + 1, dtype=np.uint16)
        digits = np.arange(2 * q, dtype=np.uint16) // powers[:, None] % p

        def codes(coefficients):
            # Horner's rule in p over the first k digit planes
            out = coefficients[k - 1]
            for i in range(k - 2, -1, -1):
                out = out * p + coefficients[i]
            return out

        def monic(d):
            return digits[:d + 1, p**d:2 * p**d]

        # reducible[c]: x^k + (code c) is a product of two monic polynomials
        reducible = np.zeros(q, dtype=bool)
        for d in range(1, k // 2 + 1):
            reducible[codes(_poly_product(monic(d), monic(k - d), p)[:k])] = True
        f = digits[:, q + reducible.argmin()]
        self.reduction_poly = tuple(f.tolist()) if k > 1 else ()
        digits = digits[:k, :q]
        add = codes((digits[:, :, None] + digits[:, None]) % p)
        prod = _poly_product(digits, digits, p)
        # x^k = -(f - x^k) mod f, so the coefficient of x^d, d >= k, moves
        # onto x^(d-k) .. x^(d-1) times -(f - x^k), from the top down.  No
        # reduction in between: each fold raises the coefficients' bound by
        # at most a factor p, from p - 1 to below q after all k - 1 folds.
        for d in range(2 * k - 2, k - 1, -1):
            prod[d - k:d] += prod[d] * ((p - f[:k, None, None]) % p)
        mul = codes(prod[:k] % p)
        # each row of add holds every code once, so 0 is its least entry
        neg, inv = add.argmin(axis=1), (mul == 1).argmax(axis=1)
        self.add_table, self.mul_table = (tuple(map(tuple, t.tolist())) for t in (add, mul))
        self.neg_table, self.inv_table = (tuple(t.tolist()) for t in (neg, inv))
        self.add_array, self.neg_array, self.mul_array, self.inv_array = (
            _frozen_u8(t) for t in (add, neg, mul, inv)
        )

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
        """a**e; a negative e raises a's inverse to -e, and 0**e is 0 for
        every e but 0."""
        if e < 0:
            a, e = self.inv_table[a], -e
        mul, power = self.mul_table, 1
        while e:
            if e & 1:
                power = mul[power][a]
            a, e = mul[a][a], e >> 1
        return power

    def q_token(self) -> str:
        return str(self.p) if self.k == 1 else f"{self.p}^{self.k}"

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"GF({self.q})" if self.k == 1 else f"GF({self.p}^{self.k})"


def _frozen_u8(table: np.ndarray) -> np.ndarray:
    arr = table.astype(np.uint8)
    arr.setflags(write=False)
    return arr


def field_new(p: int, k: int = 1) -> FieldSpec:
    """Build GF(p**k).  Instances are cached on (p, k), whatever form the
    call takes, so equal fields are identical.

    The cap is checked before p**k is computed or p tested for primality
    (2**k already passes it for k >= 9), so a huge p or k is refused at
    once."""
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if p >= 2 and (p > MAX_FIELD_ORDER or k >= MAX_FIELD_ORDER.bit_length()
                   or p**k > MAX_FIELD_ORDER):
        raise FieldTooLarge(f"{p}^{k} exceeds the cap of {MAX_FIELD_ORDER}")
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    return _field_spec(p, k)


# one FieldSpec per (p, k); field_new, its only caller, passes both
# positionally, so field_new(2), field_new(2, 1) and field_from_order(2)
# share one entry
_field_spec = functools.cache(FieldSpec)


def field_from_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q."""
    if q < 2:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    if q > MAX_FIELD_ORDER:
        raise FieldTooLarge(f"{q} exceeds the cap of {MAX_FIELD_ORDER}")
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

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

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
# from their batched forms on numpy arrays, the rank-table sweep's steps
# against one row per subset: on bitsliced words over GF(2), GF(3) and GF(4)
# (`matroid._word_step`) and on bytes over every other field
# (`matroid._byte_step`).
# Subtracting c times a row y from x reads m = mul_table[-c] once and then
# add_table[x][m[y]] per entry.  The byte step reads each residue's
# multiplier once, from a q x q table of -e / c, and then makes one product
# gather per entry and one sum: an XOR in characteristic 2, a uint8 sum
# less p over the primes below 128, the add table otherwise.


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
    if n == 0:
        # the m empty rows, written as blank lines, are read from none
        if m > len(lines) - i:
            raise MatrixFormatError(f"expected {m} rows, found {len(lines) - i} lines", line=i)
        return GfMatrix(field, [()] * m, cols=0), i
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
