"""Minor containment with replayable certificates, the excluded-minor
catalogs for pathwidth <= 1 (complete) and <= 2 (partial), and the
excluded-minor verification harness.

Catalog representations are constructed, not asserted: each entry is
validated at build time by an oracle for its defining property (uniform:
every k-subset of columns independent; graphic: rank = vertices minus
components on every edge subset; Fano: 7 elements, rank 3, exactly 7
dependent triples).

The minor search is exhaustive, so it has the isomorphism search's cap,
`matroid.ISO_MAX_GROUND` = 12 elements, and so has everything that runs
it: the pathwidth <= 1 test `pw_le_1_by_minors` and, on codes, `check-tw1`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import graph as graphmod
from . import matroid as matroidmod
from .algebra import FieldSpec, GfMatrix, echelon_push, field_new, rank_of_columns
from .matroid import (
    ISO_MAX_GROUND,
    GroundSetTooLarge,
    VectorMatroid,
    iso_invariants,
    table_isomorphism,
)
from .pathwidth import pathwidth_and_minors, pathwidth_at_most

# the bytes of gathered candidate tables one slice of the minor search may
# hold (see minor_contains)
BATCH_BYTES = 1 << 16


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
        mk4 = graphmod.cycle_matroid(k4, field)
        entries.append(_entry("MK4", mk4, 3, lambda: check_graphic_rank(mk4, k4)))
        k23 = graphmod.complete_bipartite(2, 3)
        mk23 = graphmod.cycle_matroid(k23, field)
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
        mk5 = graphmod.cycle_matroid(k5, field)
        entries.append(_entry("MK5", mk5, 4, lambda: check_graphic_rank(mk5, k5)))
        mk5d = matroidmod.dual(mk5)
        entries.append(_entry("MK5*", mk5d, 6, lambda: _dual_rank_ok(mk5d, mk5)))
        k33 = graphmod.complete_bipartite(3, 3)
        mk33 = graphmod.cycle_matroid(k33, field)
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


def catalog_entry(name: str, field: FieldSpec):
    """The catalog entry named name over field; None for an entry with no
    representation over field (one of GF(4)'s, which represents them all),
    never a minor of a matroid over field.  KeyError for any other name."""
    for f in (field, field_new(2, 2)):
        for e in excluded_minor_catalog(1, f) + excluded_minor_catalog(2, f):
            if e.name == name:
                return e if f == field else None
    raise KeyError(f"unknown catalog entry {name!r}")


# ---------------------------------------------------------------------------
# minor search


def minor_contains(host: VectorMatroid, pattern: VectorMatroid):
    """Search for disjoint (contract, delete) sets and a bijection making
    host / X \\ Y isomorphic to the pattern; None if no minor exists.

    Contract sets range over independent sets of size 0..r(host)-r(pattern)
    (smaller sizes cover rank lost by deletions); within each size, (X, Y)
    pairs are tried in lexicographic label order, so the first certificate
    found is canonical.  Every candidate is read off the host's rank table
    T: it has rank T(E - Y) - |X| and rank table T(S + X) - |X|, so no
    minor matrix is built.  Hosts of more than ISO_MAX_GROUND elements, the
    cap of every exhaustive search, are refused.

    The candidates are tested in numpy slices of many contract sets.  For
    each contract size, the delete sets Y are listed once, in lexicographic
    order, and those of the wrong rank dropped (the rank test does not
    involve X); the independent contract sets X are listed once too, and
    walked in lexicographic order in slices.  Both are held only as masks
    over the host's positions, and a certificate's X and Y are read back
    from them.  A slice's (X, Y) pairs are the disjoint ones of one mask
    product, in row-major order, so the pairs keep the lexicographic order
    of a pair-by-pair loop.  Their tables are gathered through the cached
    `_expansions` of the host's and the pattern's sizes, whose row for
    K = E - X - Y sends each pattern mask S to the host mask of the
    elements of K that S picks: one `take` of the slice's rows and one
    gather T(that + X) - |X|.  The rows are then rejected together on
    their keys |S| * (n + 1) + r(S) (`matroid.rank_keys`): `_key_filter`
    keeps a row when its histogram of keys is the pattern's, which is when
    its sorted keys, the first test of `table_isomorphism`, are.  The rows
    left go to `table_isomorphism` one at a time, in order, so the first
    certificate is the one a pair-by-pair loop finds.

    Each contract size has one slice width, set by the byte cap
    `BATCH_BYTES` alone: every slice of that size but the last holds the
    same number m of contract sets.  Against the l delete sets of the
    right rank, a contract set X holds its row of the mask product, 9
    bytes a delete set, and a candidate row for each delete set disjoint
    from it, at most p = min(l, C(n_host - |X|, |Y|)).  A candidate row
    holds 2^|pattern| entries of 10 bytes (its uint8 table and uint8 keys,
    and the intp index that gathers the table, freed before the keys' intp
    bins take its place) and its histogram, 9 bytes a bin of
    `_key_filter`: row bytes in all.  m is the largest with
    m * (9 * l + p * row) <= BATCH_BYTES, or 1.  In a fresh interpreter,
    tracemalloc peaks at 147 KB, below 256 KB, on the benchmark's
    check-minor queries and at 763 KB, below 1 MB, on 12-element hosts
    against the w = 1 catalog, where a rank-3 host against MK4 puts 924
    rows in one contract set."""
    n_host, n_pat = host.size, pattern.size
    if n_host > ISO_MAX_GROUND:
        raise GroundSetTooLarge(f"{n_host} > {ISO_MAX_GROUND} elements for an exhaustive search")
    if n_pat > n_host or pattern.rank_full > host.rank_full:
        return None
    T = host.rank_table()
    T_pat = pattern.rank_table()
    rank_keys = matroidmod.rank_keys(n_pat)
    combos, ids, expand = _expansions(n_host, n_pat)
    full = host.full_mask
    removals = n_host - n_pat
    max_contract = host.rank_full - pattern.rank_full
    # the host's positions in label order: index subsets taken in
    # lexicographic order pick subsets in lexicographic label order
    order = np.array(sorted(range(n_host), key=lambda i: matroidmod.label_key(host.labels[i])), dtype=np.intp)
    row_bytes = None
    for c_size in range(min(max_contract, removals) + 1):
        d_size = removals - c_size
        # every delete set of this size, in lexicographic label order, kept
        # where the minor has the pattern's rank: T(E - Y) - |X| = r(pattern)
        ymasks = (1 << order[_combinations(n_host, d_size)]).sum(axis=1)
        ymasks = ymasks[T[full ^ ymasks] == c_size + pattern.rank_full]
        if not len(ymasks):
            continue
        # only independent contract sets are needed
        xmasks = (1 << order[_combinations(n_host, c_size)]).sum(axis=1)
        xmasks = xmasks[T[xmasks] == c_size]
        if row_bytes is None:
            # the pattern's invariants, once some pair has the right rank
            inv_pat = iso_invariants(T_pat, n_pat)
            matching, bins = _key_filter(inv_pat[0])
            row_bytes = (10 << n_pat) + 9 * bins
        # the minor's ranks T(S + X) - |X|, read where S + X holds X, which
        # has rank |X|
        T_minor = T - np.uint8(c_size)
        # a contract set's bytes: its row of the mask product, and a row
        # for each delete set it is disjoint from, at most this many
        pairs = min(len(ymasks), math.comb(n_host - c_size, d_size))
        width = max(1, BATCH_BYTES // (9 * len(ymasks) + pairs * row_bytes))
        for lo in range(0, len(xmasks), width):
            # the disjoint (X, Y) pairs of the slice, in lexicographic order
            xi, yi = np.nonzero((xmasks[lo:lo + width, None] & ymasks) == 0)
            if not len(xi):
                continue
            xs, ys = xmasks[lo + xi], ymasks[yi]
            # the row of expand of K = E - X - Y sends each pattern mask S to
            # the host mask of the elements of K that S picks; S + X is that
            # with X's bits
            kept = ids[full ^ (xs | ys)]
            index = expand.take(kept, axis=0).astype(np.intp)
            index |= xs[:, None]
            tables = T_minor[index]
            del index
            # reject on the keys' histograms, as table_isomorphism would on
            # the sorted keys one row at a time
            for r in matching(tables + rank_keys):
                labels = [host.labels[i] for i in combos[kept[r]]]
                bij = table_isomorphism(T_pat, pattern.labels, tables[r], labels, inv_pat)
                if bij is not None:
                    X = frozenset(host.labels_of(int(xs[r])))
                    Y = frozenset(host.labels_of(int(ys[r])))
                    return MinorCertificate(X, Y, bij)
    return None


@functools.cache
def _expansions(n, k):
    """The k-subsets K of range(n) as (`_combinations(n, k)`, the id of each
    mask K among them at index K of a 2^n array, expand), read-only, with
    expand[id(K), S] the mask of the elements of K that the k-bit mask S
    picks, bit t of S picking K's t-th smallest: uint16, so C(12, 8) * 2^8
    entries, 253 KB, at most within ISO_MAX_GROUND.  Built column block by
    column block, S + 2^t being S plus K's t-th element."""
    combos = _combinations(n, k)
    ids = np.zeros(1 << n, dtype=np.intp)
    ids[(1 << combos).sum(axis=1)] = np.arange(len(combos))
    expand = np.zeros((len(combos), 1 << k), dtype=np.uint16)
    for t in range(k):
        np.bitwise_or(expand[:, :1 << t], (1 << combos[:, t, None]).astype(np.uint16), out=expand[:, 1 << t:2 << t])
    ids.flags.writeable = expand.flags.writeable = False
    return combos, ids, expand


def _key_filter(keys_pat):
    """(matching, bins): matching(keys) lists the rows of a uint8 (rows,
    len(keys_pat)) array of keys that hold the same keys as keys_pat, as
    many times each, so exactly those whose sorted keys equal keys_pat's
    sorted.  Each of keys_pat's distinct keys has a bin, and every other key
    the one bin after them; a row matches when its histogram over the bins,
    counted for all rows by one `np.bincount`, is keys_pat's, which has
    nothing in the last bin."""
    counts = np.bincount(keys_pat, minlength=256)
    distinct = np.flatnonzero(counts)
    bins = len(distinct) + 1
    lut = np.full(256, len(distinct), dtype=np.intp)
    lut[distinct] = np.arange(len(distinct))
    hist_pat = np.append(counts[distinct], 0)

    def matching(keys):
        at = lut[keys]
        at += np.arange(0, len(keys) * bins, bins)[:, None]
        hist = np.bincount(at.reshape(-1), minlength=len(keys) * bins).reshape(len(keys), bins)
        return np.flatnonzero((hist == hist_pat).all(axis=1))

    return matching, bins


@functools.cache
def _combinations(n, size):
    """Every size-subset of range(n) in lexicographic order, as a read-only
    (count, size) array.  Kept per (n, size): every host of n elements
    lists the same ones."""
    count = math.comb(n, size)
    out = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), size)),
                      dtype=np.intp, count=count * size).reshape(count, size)
    out.flags.writeable = False
    return out


def replay_certificate(host: VectorMatroid, pattern: VectorMatroid, cert: MinorCertificate) -> bool:
    """Re-verify a certificate independently of the search: check
    r_pattern(S) = r_host(f(S) + X) - r_host(X) on every pattern subset S by
    elimination on the matrix columns, never reading a rank table.  A
    malformed certificate (overlapping or unknown sets, a bijection onto
    anything but E - X - Y) replays False.

    The subsets are walked depth first, S + i after S for each i past S's
    last element, so each side's echelon basis of S + i is the one of S
    plus one `echelon_push`: the pattern's from an empty basis, the minor's
    from a basis of X.  Only the bases on the current path are held, and
    each is cut back to its parent's on the way up."""
    X, Y, bij = cert.contract, cert.delete, cert.bijection
    ground = set(host.labels)
    kept = ground - X - Y
    if (X & Y or not (X | Y) <= ground or set(bij) != set(pattern.labels)
            or set(bij.values()) != kept or len(kept) != pattern.size):
        return False
    field, n = host.field, pattern.size
    images = [host.columns[host.position(bij[lbl])] for lbl in pattern.labels]
    pat_basis, minor_basis = [], []
    for lbl in X:
        echelon_push(field, minor_basis, host.columns[host.position(lbl)])
    r_x = len(minor_basis)

    def agrees(start) -> bool:
        # every S + i, i >= start, and the subsets below it
        for i in range(start, n):
            p, m = len(pat_basis), len(minor_basis)
            echelon_push(pattern.field, pat_basis, pattern.columns[i])
            echelon_push(field, minor_basis, images[i])
            ok = len(pat_basis) == len(minor_basis) - r_x and agrees(i + 1)
            del pat_basis[p:], minor_basis[m:]
            if not ok:
                return False
        return True

    return agrees(0)


def catalog_minor_witness(M: VectorMatroid, w: int):
    """First catalog pattern occurring as a minor of M, with certificate."""
    for entry in excluded_minor_catalog(w, M.field):
        cert = minor_contains(M, entry.matroid)
        if cert is not None:
            cert.pattern_name = entry.name
            return cert
    return None


def pw_le_1_by_minors(M: VectorMatroid):
    """(pathwidth <= 1, the first catalog minor's certificate or None),
    decided by excluded minors and cross-checked against the exact solver
    (a mismatch would be an implementation bug and raises).  The exact side
    only decides pw(M) <= 1 (`pathwidth_at_most`): one threshold pass at 1,
    or none when the layer bound is already 2 or more, and a yes is
    certified by elimination.  For a code this is the trellis-width <= 1
    test; the minor search refuses more than ISO_MAX_GROUND elements."""
    cert = catalog_minor_witness(M, 1)
    by_minors = cert is None
    by_exact = pathwidth_at_most(M, 1)
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


def verify_excluded_minor(M: VectorMatroid, w: int) -> ExcludedMinorReport:
    """Check the excluded-minor property: pw(M) > w, yet deleting or
    contracting any single element drops the pathwidth to at most w.  The
    2n minor widths come first, from batched DP calls on lambda read from
    M's own table, each certified by elimination on M's columns, and pw(M)
    then from M's DP given the order of the least-width deletion M \\ e
    with e appended, of width at most pw(M \\ e) + 1
    (`pathwidth.pathwidth_and_minors`): on an entry
    that passes, that is at most w + 1, and the DP runs no pass once its
    layer bound reaches it.  The reported width is an ordering's, its
    prefix lambdas computed by elimination."""
    cert, minors = pathwidth_and_minors(M)
    pw = cert.width
    failures = []
    if pw <= w:
        failures.append(f"pathwidth {pw} is not above {w}")
    results = []
    for lbl, op, minor in minors:
        ok = minor.width <= w
        results.append((lbl, op, minor.width, ok))
        if not ok:
            failures.append(f"{op}({lbl}) has pathwidth {minor.width} > {w}")
    return ExcludedMinorReport(w, pw, results, failures)
