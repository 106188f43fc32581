"""Linear codes as the vector matroids of their labelled generator
matrices, so puncturing, shortening and duals are the matroid layer's
`delete`, `contract` and `dual`; trellis-width as matroid pathwidth, and
the catalog codes used by the trellis-width-one characterization.  A code
is a matroid, so it meets the matroid layer's caps and no others:
`trellis_width` is refused by the byte budget, and the trellis-width <= 1
test is `minors.pw_le_1_by_minors`, refused past 12 coordinates by its
minor search.
"""

from __future__ import annotations

import itertools
import math
import re

from . import algebra
from .algebra import FieldSpec, GfMatrix
from .matroid import VectorMatroid, matroid_to_text, parse_matroid_text
from .pathwidth import WidthCertificate, pathwidth_exact


class UnknownLabel(ValueError):
    """A coordinate label is not part of the code."""


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


def trellis_width(C: LinearCode) -> WidthCertificate:
    """tw(C) = pathwidth of the associated matroid, with an optimal
    coordinate ordering as the certificate; refused as `pathwidth_exact`
    refuses it (`matroid.check_budget`)."""
    return pathwidth_exact(C)


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


# ---------------------------------------------------------------------------
# code files: matrix text plus optional labels line

code_to_text = matroid_to_text


def code_from_text(text: str) -> LinearCode:
    return LinearCode(*parse_matroid_text(text))
