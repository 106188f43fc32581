"""Minor containment with replayable certificates, the excluded-minor
catalogs for pathwidth <= 1 (complete) and <= 2 (partial), and the
excluded-minor verification harness.

Catalog representations are constructed, not asserted: each entry is
validated at build time by an oracle for its defining property (uniform:
every k-subset of columns independent; graphic: rank = vertices minus
components on every edge subset; Fano: 7 elements, rank 3, exactly 7
dependent triples).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import graph as graphmod
from . import matroid as matroidmod
from .algebra import FieldSpec, GfMatrix, rank_of_columns
from .matroid import (
    GroundSetTooLarge,
    MinorSpec,
    VectorMatroid,
    apply_minor,
    iso_invariants,
    table_isomorphism,
)
from .pathwidth import DEFAULT_EXACT_CAP, pathwidth_exact

HOST_MAX_GROUND = 12
PW1_MAX_GROUND = 10


class HostTooLarge(ValueError):
    """Exhaustive minor search is capped at 12 host elements."""


class UniformNotRepresentable(ValueError):
    """No U_{k,n} representation exists over the given field."""


@dataclass
class MinorCertificate:
    """Witness that host / contract \\ delete is isomorphic to a pattern."""

    contract: frozenset
    delete: frozenset
    bijection: dict  # pattern label -> label of the minor
    pattern_name: str | None = None

    def to_doc(self) -> dict:
        return {
            "contract": sorted(self.contract, key=matroidmod.label_key),
            "delete": sorted(self.delete, key=matroidmod.label_key),
            "bijection": {str(k): v for k, v in self.bijection.items()},
            "pattern": self.pattern_name,
        }


@dataclass
class CatalogEntry:
    name: str
    matroid: VectorMatroid
    expected_rank: int


# ---------------------------------------------------------------------------
# canonical representations


def uniform_representation(k: int, n: int, field: FieldSpec) -> GfMatrix:
    """A k x n matrix whose every k columns are independent: Vandermonde
    columns plus the point at infinity, extended greedily (deterministically)
    when n exceeds q + 1, as for U_{3,6} over GF(4)."""
    if k < 0 or n < k:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        return GfMatrix(field, [], cols=n)
    if k == 1:
        return GfMatrix(field, [[1] * n], cols=n)
    if k == n:
        from .algebra import identity_matrix

        return identity_matrix(field, n)
    q = field.q
    pool = []
    for a in range(q):
        col = [field.pow(a, i) for i in range(k)]
        pool.append(tuple(col))
    pool.append(tuple([0] * (k - 1) + [1]))
    # projective canonical candidates for the greedy completion
    for code in range(q**k):
        col = []
        c = code
        for _ in range(k):
            col.append(c % q)
            c //= q
        col = tuple(col)
        lead = next((x for x in col if x), None)
        if lead == 1 and col not in pool:
            pool.append(col)

    chosen: list = []
    for cand in pool:
        if len(chosen) == n:
            break
        if len(chosen) < k - 1:
            # no complete k-subsets yet; just keep the chosen columns independent
            ok = rank_of_columns(field, chosen + [cand]) == len(chosen) + 1
        else:
            ok = all(
                rank_of_columns(field, [chosen[i] for i in sub] + [cand]) == k
                for sub in itertools.combinations(range(len(chosen)), k - 1)
            )
        if ok:
            chosen.append(cand)
    if len(chosen) < n:
        raise UniformNotRepresentable(f"U_{{{k},{n}}} has no representation over {field}")
    entries = [[col[i] for col in chosen] for i in range(k)]
    return GfMatrix(field, entries, cols=n)


def uniform_matroid(k: int, n: int, field: FieldSpec) -> VectorMatroid:
    return VectorMatroid(uniform_representation(k, n, field))


def fano_representation(field: FieldSpec) -> GfMatrix:
    """[I_3 | all remaining nonzero GF(2) columns]; characteristic 2 only."""
    if field.p != 2:
        raise UniformNotRepresentable("the Fano plane is representable only in characteristic 2")
    cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    entries = [[c[i] for c in cols] for i in range(3)]
    return GfMatrix(field, entries, cols=7)


def graphic_matroid(G: graphmod.MultiGraph, field: FieldSpec) -> VectorMatroid:
    return graphmod.cycle_matroid(G, field)


# build-time validation oracles


def check_uniform(M: VectorMatroid, k: int) -> bool:
    n = M.size
    for mask in range(1 << n):
        expect = min(bin(mask).count("1"), k)
        if M.rank_subset(mask) != expect:
            return False
    return True


def check_graphic_rank(M: VectorMatroid, G: graphmod.MultiGraph) -> bool:
    """rank(S) must equal touched-vertex count minus component count."""
    labels = M.labels
    for mask in range(1 << M.size):
        subset = [labels[i] for i in range(M.size) if (mask >> i) & 1]
        chosen = set(subset)
        edges = [(u, v) for u, v, lbl in G.edges if lbl in chosen]
        verts = {u for e in edges for u in e}
        parent = {v: v for v in verts}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = len(verts)
        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        if M.rank_subset(mask) != len(verts) - comps:
            return False
    return True


def check_fano(M: VectorMatroid) -> bool:
    if M.size != 7 or M.rank_full != 3:
        return False
    dep_triples = sum(
        1
        for sub in itertools.combinations(range(7), 3)
        if M.rank_subset(sum(1 << i for i in sub)) == 2
    )
    return dep_triples == 7


# ---------------------------------------------------------------------------
# catalogs


def _entry(name, M, expected_rank, oracle) -> CatalogEntry:
    if M.rank_full != expected_rank or not oracle():
        raise AssertionError(f"catalog entry {name} failed its defining-property check")
    return CatalogEntry(name, M, expected_rank)


@functools.lru_cache(maxsize=None)
def excluded_minor_catalog(w: int, field: FieldSpec) -> tuple:
    """The excluded-minor list for pathwidth <= w over the given field
    (complete for w = 1; the known partial list for w = 2).  Entries not
    representable over the field are omitted: a non-representable pattern
    can never occur as a minor of a representable host."""
    q = field.q
    entries = []
    if w == 1:
        if q >= 3:
            m = uniform_matroid(2, 4, field)
            entries.append(_entry("U24", m, 2, lambda: check_uniform(m, 2)))
        k4 = graphmod.complete_graph(4)
        mk4 = graphic_matroid(k4, field)
        entries.append(_entry("MK4", mk4, 3, lambda: check_graphic_rank(mk4, k4)))
        k23 = graphmod.complete_bipartite(2, 3)
        mk23 = graphic_matroid(k23, field)
        entries.append(_entry("MK23", mk23, 4, lambda: check_graphic_rank(mk23, k23)))
        mk23d = matroidmod.dual(mk23)
        entries.append(_entry("MK23*", mk23d, 2, lambda: _dual_rank_ok(mk23d, mk23)))
    elif w == 2:
        if field.p == 2:
            f7 = VectorMatroid(fano_representation(field))
            entries.append(_entry("F7", f7, 3, lambda: check_fano(f7)))
            f7d = matroidmod.dual(f7)
            entries.append(_entry("F7*", f7d, 4, lambda: _dual_rank_ok(f7d, f7)))
        k5 = graphmod.complete_graph(5)
        mk5 = graphic_matroid(k5, field)
        entries.append(_entry("MK5", mk5, 4, lambda: check_graphic_rank(mk5, k5)))
        mk5d = matroidmod.dual(mk5)
        entries.append(_entry("MK5*", mk5d, 6, lambda: _dual_rank_ok(mk5d, mk5)))
        k33 = graphmod.complete_bipartite(3, 3)
        mk33 = graphic_matroid(k33, field)
        entries.append(_entry("MK33", mk33, 5, lambda: check_graphic_rank(mk33, k33)))
        mk33d = matroidmod.dual(mk33)
        entries.append(_entry("MK33*", mk33d, 4, lambda: _dual_rank_ok(mk33d, mk33)))
        if q >= 4:
            u36 = uniform_matroid(3, 6, field)
            entries.append(_entry("U36", u36, 3, lambda: check_uniform(u36, 3)))
    else:
        raise ValueError("catalogs exist for w = 1 and w = 2 only")
    return tuple(entries)


def _dual_rank_ok(Md: VectorMatroid, M: VectorMatroid) -> bool:
    """Spot-check the dual rank identity r*(X) = |X| + r(E - X) - r(E)."""
    n = M.size
    full = (1 << n) - 1
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if Md.rank_subset(mask) != size + M.rank_subset(full ^ mask) - M.rank_full:
            return False
    return True


def catalog_entry(name: str, field: FieldSpec) -> CatalogEntry:
    for w in (1, 2):
        for e in excluded_minor_catalog(w, field):
            if e.name == name:
                return e
    raise KeyError(f"unknown catalog entry {name!r}")


# ---------------------------------------------------------------------------
# minor search


def minor_contains(host: VectorMatroid, pattern: VectorMatroid, host_cap: int = HOST_MAX_GROUND):
    """Search for disjoint (contract, delete) sets and a bijection making
    host / X \\ Y isomorphic to the pattern; None if no minor exists.

    Contract sets range over independent sets of size 0..r(host)-r(pattern)
    (smaller sizes cover rank lost by deletions); within each size, (X, Y)
    pairs are tried in lexicographic label order, so the first certificate
    found is canonical.  Every candidate is read off the host's rank table
    T: it has rank T(E - Y) - |X| and rank table T(S + X) - |X|, so no
    minor matrix is built.

    The candidates of one contract set X are tested in one numpy batch.
    The delete sets Y of each size are listed once, in lexicographic order,
    and those of the wrong rank dropped (the rank test does not involve X);
    X's batch is those of the rest that avoid X, still in order.  Their
    tables are gathered in one indexing step, and the rows whose sorted
    ranks on the 1-, 2- and 3-element layers differ from the pattern's are
    rejected together.  The rows left go to `table_isomorphism` one at a
    time, in order, so the first certificate is the one a pair-by-pair
    loop finds.  A batch holds at most C(n - |X|, |Y|) rows of 2^|pattern|
    entries (9 bytes each, an int64 index and a uint8 table), never a
    whole |X| layer: tracemalloc peaks below 100 KB on the benchmark's
    check-minor queries and below 1 MB on 12-element hosts against the
    w = 1 catalog."""
    n_host, n_pat = host.size, pattern.size
    if n_host > host_cap:
        raise HostTooLarge(f"{n_host} > {host_cap} host elements")
    if n_pat > n_host or pattern.rank_full > host.rank_full:
        return None
    T = host.rank_table()
    T_pat = pattern.rank_table()
    inv_pat = iso_invariants(T_pat, n_pat)
    layers, profiles, _ = inv_pat
    # bits_t[t, S] = bit t of the pattern mask S; (1 << kept) @ bits_t expands
    # S to the host mask with bit kept[t] set for each bit t of S
    bits_t = (np.arange(1 << n_pat) >> np.arange(n_pat)[:, None]) & 1
    elements = np.arange(n_host)
    full = host.full_mask
    removals = n_host - n_pat
    max_contract = host.rank_full - pattern.rank_full
    positions = sorted(range(n_host), key=lambda i: matroidmod.label_key(host.labels[i]))
    for c_size in range(min(max_contract, removals) + 1):
        d_size = removals - c_size
        # every delete set of this size, in lexicographic label order, kept
        # where the minor has the pattern's rank: T(E - Y) - |X| = r(pattern)
        count = math.comb(n_host, d_size)
        all_ys = np.fromiter(itertools.chain.from_iterable(itertools.combinations(positions, d_size)),
                             dtype=np.intp, count=count * d_size).reshape(count, d_size)
        all_ymasks = (1 << all_ys).sum(axis=1)
        right_rank = T[full ^ all_ymasks] == c_size + pattern.rank_full
        all_ys, all_ymasks = all_ys[right_rank], all_ymasks[right_rank]
        if not len(all_ys):
            continue
        for X_pos in itertools.combinations(positions, c_size):
            xmask = sum(1 << i for i in X_pos)
            if T[xmask] != c_size:
                continue  # only independent contract sets are needed
            # the delete sets avoiding X, still in lexicographic order
            disjoint = (all_ymasks & xmask) == 0
            if not disjoint.any():
                continue
            ys, ymasks = all_ys[disjoint], all_ymasks[disjoint]
            kept = np.nonzero((ymasks[:, None] | xmask) >> elements & 1 == 0)[1].reshape(len(ys), n_pat)
            index = (1 << kept) @ bits_t
            index |= xmask
            tables = T[index]
            del index
            tables -= np.uint8(c_size)
            # reject on the sorted ranks of each small layer, as
            # table_isomorphism would one row at a time; rows[j] is the
            # candidate of tables[j]
            rows = np.arange(len(tables))
            for idx, prof in zip(layers, profiles):
                match = (np.sort(tables.take(idx, axis=1), axis=1) == prof).all(axis=1)
                rows, tables = rows[match], tables[match]
                if not len(rows):
                    break
            for r, table in zip(rows, tables):
                labels = [host.labels[i] for i in kept[r]]
                bij = table_isomorphism(T_pat, pattern.labels, table, labels, inv_pat)
                if bij is not None:
                    X = frozenset(host.labels[i] for i in X_pos)
                    Y = frozenset(host.labels[i] for i in ys[r])
                    return MinorCertificate(X, Y, bij)
    return None


def replay_certificate(host: VectorMatroid, pattern: VectorMatroid, cert: MinorCertificate) -> bool:
    """Re-verify a certificate independently of the search: check
    r_pattern(S) = r_host(f(S) + X) - r_host(X) on every pattern subset S by
    elimination on the matrix columns, never reading a rank table.  A
    malformed certificate (overlapping or unknown sets, a bijection onto
    anything but E - X - Y) replays False."""
    X, Y, bij = cert.contract, cert.delete, cert.bijection
    ground = set(host.labels)
    kept = ground - X - Y
    if (X & Y or not (X | Y) <= ground or set(bij) != set(pattern.labels)
            or set(bij.values()) != kept or len(kept) != pattern.size):
        return False
    field = host.field

    def column(M, lbl):
        return M.matrix.column(M.position(lbl))

    x_cols = [column(host, lbl) for lbl in X]
    r_x = rank_of_columns(field, x_cols)
    n = pattern.size
    for mask in range(1 << n):
        subset = [pattern.labels[i] for i in range(n) if (mask >> i) & 1]
        r_pat = rank_of_columns(pattern.field, [column(pattern, lbl) for lbl in subset])
        r_minor = rank_of_columns(field, x_cols + [column(host, bij[lbl]) for lbl in subset]) - r_x
        if r_pat != r_minor:
            return False
    return True


def catalog_minor_witness(M: VectorMatroid, w: int):
    """First catalog pattern occurring as a minor of M, with certificate."""
    for entry in excluded_minor_catalog(w, M.field):
        cert = minor_contains(M, entry.matroid)
        if cert is not None:
            cert.pattern_name = entry.name
            return cert
    return None


def pw_le_1_by_minors(M: VectorMatroid):
    """Decide pathwidth <= 1 by excluded minors; cross-checked against the
    exact solver (a mismatch would be an implementation bug and raises)."""
    if M.size > PW1_MAX_GROUND:
        raise GroundSetTooLarge(f"{M.size} > {PW1_MAX_GROUND} elements")
    cert = catalog_minor_witness(M, 1)
    by_minors = cert is None
    by_exact = pathwidth_exact(M).width <= 1
    if by_minors != by_exact:
        raise RuntimeError(
            f"excluded-minor test ({by_minors}) disagrees with the exact solver "
            f"({by_exact}); this indicates an implementation bug"
        )
    return by_minors, cert


# ---------------------------------------------------------------------------
# excluded-minor verification


@dataclass
class ExcludedMinorReport:
    w: int
    pathwidth: int
    element_results: list  # (label, operation, minor pathwidth, ok)
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_doc(self) -> dict:
        return {
            "w": self.w,
            "pathwidth": self.pathwidth,
            "passed": self.passed,
            "elements": [
                {"element": str(lbl), "operation": op, "pathwidth": pw, "ok": ok}
                for lbl, op, pw, ok in self.element_results
            ],
            "failures": self.failures,
        }


def verify_excluded_minor(M: VectorMatroid, w: int, exact_cap: int = DEFAULT_EXACT_CAP) -> ExcludedMinorReport:
    """Check the excluded-minor property: pw(M) > w, yet deleting or
    contracting any single element drops the pathwidth to at most w."""
    pw = pathwidth_exact(M, exact_cap).width
    failures = []
    if pw <= w:
        failures.append(f"pathwidth {pw} is not above {w}")
    results = []
    for lbl in M.labels:
        for op, spec in (
            ("delete", MinorSpec(frozenset(), frozenset([lbl]))),
            ("contract", MinorSpec(frozenset([lbl]), frozenset())),
        ):
            sub_pw = pathwidth_exact(apply_minor(M, spec), exact_cap).width
            ok = sub_pw <= w
            results.append((lbl, op, sub_pw, ok))
            if not ok:
                failures.append(f"{op}({lbl}) has pathwidth {sub_pw} > {w}")
    return ExcludedMinorReport(w, pw, results, failures)
