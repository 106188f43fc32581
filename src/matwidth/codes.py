"""Linear codes as the vector matroids of their labelled generator
matrices, so puncturing, shortening and duals are the matroid layer's
deletion, contraction and dual; equivalence with explicit (permutation,
diagonal) witnesses, trellis-width as matroid pathwidth, and the catalog
codes used by the trellis-width-one characterization.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from . import algebra, minors
from .algebra import FieldSpec, GfMatrix
from .matroid import VectorMatroid, _span_words, contract, delete, dual, matroid_to_text, parse_matroid_text
from .pathwidth import WidthCertificate, pathwidth_exact, width_of_ordering

EQUIV_MAX_LENGTH = 7


class UnknownLabel(ValueError):
    """A coordinate label is not part of the code."""


class LengthTooLarge(ValueError):
    """Brute-force equivalence / minor checks are capped at small lengths."""


class UnknownName(ValueError):
    """Unrecognized catalog code name."""


class FieldTooSmallForMDS(ValueError):
    """The Vandermonde-with-infinity construction needs q >= n - 1."""


class LinearCode(VectorMatroid):
    """A length-n code given by any generator matrix (rows may be dependent;
    the dimension is always the matrix rank), as the vector matroid of the
    generator's columns: the ground set is the coordinate labels, (1..n) by
    default, and puncturing and shortening are deletion and contraction."""

    @property
    def generator(self) -> GfMatrix:
        return self.matrix

    @property
    def length(self) -> int:
        return self.size

    @property
    def dim(self) -> int:
        return self.rank_full

    def position(self, label) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise UnknownLabel(f"unknown coordinate label {label!r}") from None

    def __repr__(self):
        return f"LinearCode([{self.length},{self.dim}] over {self.field!r})"


def code_matroid(C: LinearCode) -> VectorMatroid:
    """The vector matroid of the generator's columns, ground set = labels:
    the code itself.  Independent of which generator represents the code."""
    return C


def dual_code(C: LinearCode) -> LinearCode:
    """Generator of the orthogonal complement; label sequence unchanged."""
    return dual(C)


def puncture(C: LinearCode, J) -> LinearCode:
    """Drop the coordinates with labels in J; remaining labels keep order."""
    return delete(C, J)


def shorten(C: LinearCode, J) -> LinearCode:
    """The codewords vanishing on J, restricted to the other coordinates."""
    return contract(C, J)


def trellis_width(C: LinearCode) -> WidthCertificate:
    """tw(C) = pathwidth of the associated matroid, with an optimal
    coordinate ordering as the certificate; refused as `pathwidth_exact`
    refuses it (GroundSetTooLargeForExact)."""
    return pathwidth_exact(C)


def state_profile(C: LinearCode, ordering) -> tuple:
    """The per-prefix connectivity values under a coordinate ordering."""
    return width_of_ordering(C, ordering).prefix_lambdas


# ---------------------------------------------------------------------------
# code equivalence


def transform_code(C: LinearCode, perm, diag) -> LinearCode:
    """Apply the witness (perm, diag): coordinate i is scaled by diag[i] and
    sent to position perm[i].  Labels reset to the default."""
    n = C.length
    field = C.field
    entries = [[0] * n for _ in C.generator.entries]
    for i in range(n):
        d = diag[i]
        for r, row in enumerate(C.generator.entries):
            entries[r][perm[i]] = field.mul(d, row[i])
    return LinearCode(GfMatrix(field, entries, cols=n))


def _weight_enumerator(C: LinearCode):
    """Number of codewords of each weight 0..n, or None past 4096 words."""
    basis = algebra.row_basis(C.generator)
    if C.field.q**basis.rows > 4096:
        return None
    gens = np.array(basis.entries, dtype=np.uint8).reshape(basis.rows, C.length)
    weights = np.count_nonzero(_span_words(C.field, gens), axis=1)
    return tuple(np.bincount(weights, minlength=C.length + 1).tolist())


def are_equivalent(C: LinearCode, C2: LinearCode):
    """Search for (perm, diag) with transform_code(C, perm, diag) equal to C2
    as a row space; None if the codes are inequivalent.  Brute force over
    coordinate permutations (length <= 7) pruned by weight enumerators and
    pivot patterns; the diagonal is recovered by ratio propagation on the
    reduced echelon forms and the witness is re-verified before returning."""
    n = C.length
    if n > EQUIV_MAX_LENGTH or C2.length > EQUIV_MAX_LENGTH:
        raise LengthTooLarge(f"equivalence search capped at {EQUIV_MAX_LENGTH}")
    if C.field != C2.field or n != C2.length or C.dim != C2.dim:
        return None
    if _weight_enumerator(C) != _weight_enumerator(C2):
        return None
    field = C.field
    B2, piv2 = algebra.rref(C2.generator)
    B2 = GfMatrix(field, B2.entries[: len(piv2)], cols=n)
    gen = algebra.row_basis(C.generator)
    k = gen.rows
    for perm in itertools.permutations(range(n)):
        entries = [[0] * n for _ in range(k)]
        for i in range(n):
            for r in range(k):
                entries[r][perm[i]] = gen.entries[r][i]
        B, piv = algebra.rref(GfMatrix(field, entries, cols=n))
        if piv != piv2:
            continue
        B = GfMatrix(field, B.entries[:k], cols=n)
        diag_by_pos = _propagate_diagonal(field, B, B2, piv)
        if diag_by_pos is None:
            continue
        diag = tuple(diag_by_pos[perm[i]] for i in range(n))
        if algebra.same_row_space(transform_code(C, perm, diag).generator, C2.generator):
            return tuple(perm), diag
    return None


def _propagate_diagonal(field, B, B2, pivots):
    """Solve for column scalings d with rref(B scaled) == B2: each nonzero
    entry forces d[j] = (B2[i][j] / B[i][j]) * d[pivot_i].  Constraints are
    propagated in both directions across their ratio graph; one free scale
    per connected component is pinned to 1."""
    n = B.cols
    k = B.rows
    for i in range(k):
        for j in range(n):
            if (B.entries[i][j] == 0) != (B2.entries[i][j] == 0):
                return None
    adj = [[] for _ in range(n)]  # (other, ratio): d[other] = ratio * d[this]
    for i, p in enumerate(pivots):
        for j in range(n):
            if j != p and B.entries[i][j]:
                ratio = field.mul(B2.entries[i][j], field.inv(B.entries[i][j]))
                adj[p].append((j, ratio))
                adj[j].append((p, field.inv(ratio)))
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = 1
        stack = [start]
        while stack:
            u = stack.pop()
            for v, ratio in adj[u]:
                val = field.mul(ratio, d[u])
                if d[v] is None:
                    d[v] = val
                    stack.append(v)
                elif d[v] != val:
                    return None
    return d


# ---------------------------------------------------------------------------
# catalog codes

_G4 = ((1, 0, 0, 1, 0, -1), (0, 1, 0, 1, 1, -1), (0, 0, 1, 0, 1, -1))
_G23 = ((1, 0, 0, 0, -1, -1), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1))
_G23_DUAL = ((1, -1, 0, -1, 1, 0), (1, 0, -1, -1, 0, 1))

_MDS_RE = re.compile(r"^MDS\((\d+),(\d+)\)$")


def _lift_signed(field: FieldSpec, rows) -> GfMatrix:
    ent = [[field.neg(1) if x == -1 else x for x in row] for row in rows]
    return GfMatrix(field, ent, cols=len(rows[0]))


def mds_code(n: int, k: int, field: FieldSpec) -> LinearCode:
    """[n, k] MDS generator from Vandermonde points plus infinity."""
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    if field.q < n - 1:
        raise FieldTooSmallForMDS(f"need q >= {n - 1}, have q = {field.q}")
    points = list(range(min(n, field.q)))
    cols = [tuple(field.pow(a, i) for i in range(k)) for a in points]
    if len(cols) < n:
        cols.append(tuple([0] * (k - 1) + [1]))
    entries = [[c[i] for c in cols] for i in range(k)]
    code = LinearCode(GfMatrix(field, entries, cols=n))
    if math.comb(n, k) <= 5000:
        assert all(
            algebra.rank_of_columns(field, [cols[i] for i in sub]) == k
            for sub in itertools.combinations(range(n), k)
        ), "MDS construction failed its defining-property check"
    return code


def catalog_code(name: str, field_or_q) -> LinearCode:
    """The explicitly printed catalog generators (entries -1 lift to the
    field's additive inverse of 1) and generic MDS codes."""
    field = field_or_q if isinstance(field_or_q, FieldSpec) else algebra.field_from_order(field_or_q)
    if name == "C_K4":
        return LinearCode(_lift_signed(field, _G4))
    if name == "C_K23":
        return LinearCode(_lift_signed(field, _G23))
    if name == "C_K23_dual":
        return LinearCode(_lift_signed(field, _G23_DUAL))
    m = _MDS_RE.match(name)
    if m:
        return mds_code(int(m.group(1)), int(m.group(2)), field)
    raise UnknownName(f"unknown catalog code {name!r}")


def frobenius_variants(C: LinearCode) -> list:
    """The codes obtained by applying each field automorphism x -> x**(p**t)
    entrywise; a single code over prime fields."""
    field = C.field
    out = []
    seen = set()
    for t in range(field.k):
        e = field.p**t
        ent = tuple(tuple(field.pow(x, e) for x in row) for row in C.generator.entries)
        if ent not in seen:
            seen.add(ent)
            out.append(LinearCode(GfMatrix(field, ent, cols=C.length), C.labels))
    return out


# ---------------------------------------------------------------------------
# the trellis-width <= 1 test


@dataclass
class Tw1Witness:
    pattern_name: str
    certificate: minors.MinorCertificate

    def to_doc(self) -> dict:
        return self.certificate.to_doc()


def tw_le_1_check(C: LinearCode):
    """(tw(C) <= 1, excluded-minor witness or None) by `pw_le_1_by_minors`,
    which runs the witness search and the exact solver and requires them to
    agree."""
    if C.length > minors.PW1_MAX_GROUND:
        raise LengthTooLarge(f"length {C.length} exceeds the cap {minors.PW1_MAX_GROUND}")
    ok, cert = minors.pw_le_1_by_minors(C)
    return ok, None if cert is None else Tw1Witness(cert.pattern_name, cert)


# ---------------------------------------------------------------------------
# code files: matrix text plus optional labels line

code_to_text = matroid_to_text


def code_from_text(text: str) -> LinearCode:
    return LinearCode(*parse_matroid_text(text))
