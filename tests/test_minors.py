"""Minor search certificates, the excluded-minor catalogs, and the
excluded-minor verification harness."""

import numpy as np
import pytest

from matwidth.graph import cycle_matroid, make_umbrella
from matwidth.matroid import GroundSetTooLarge, VectorMatroid, direct_sum, dual, is_isomorphic
from matwidth.minors import (
    MinorCertificate,
    UniformNotRepresentable,
    catalog_minor_witness,
    check_fano,
    check_uniform,
    excluded_minor_catalog,
    fano_representation,
    minor_contains,
    pw_le_1_by_minors,
    replay_certificate,
    uniform_matroid,
    uniform_representation,
    verify_excluded_minor,
)
from matwidth.pathwidth import pathwidth_exact
from util import GF2, GF3, GF4, GF5, matroid, u24


# ---------------------------------------------------------------------------
# canonical representations


def test_uniform_representation_small():
    for k, n, f in ((2, 4, GF3), (2, 4, GF5), (1, 5, GF2), (3, 5, GF4), (4, 4, GF2)):
        M = VectorMatroid(uniform_representation(k, n, f))
        assert check_uniform(M, k)


def test_u36_over_gf4_exists():
    # needs the greedy completion beyond the q+1 Vandermonde points
    M = uniform_matroid(3, 6, GF4)
    assert check_uniform(M, 3)


def test_u24_has_no_binary_representation():
    # exhaustive: no 2x4 GF(2) matrix has all六 2-column subsets independent
    found = False
    for bits in range(1 << 8):
        entries = [[(bits >> (4 * r + c)) & 1 for c in range(4)] for r in range(2)]
        M = matroid(GF2, entries)
        if check_uniform(M, 2):
            found = True
    assert not found
    with pytest.raises(UniformNotRepresentable):
        uniform_representation(2, 4, GF2)


def test_fano_defining_properties():
    F7 = VectorMatroid(fano_representation(GF2))
    assert check_fano(F7)
    with pytest.raises(UniformNotRepresentable):
        fano_representation(GF3)


# ---------------------------------------------------------------------------
# catalogs


def test_catalog_w1_gf2_omits_u24():
    names = [e.name for e in excluded_minor_catalog(1, GF2)]
    assert names == ["MK4", "MK23", "MK23*"]


def test_catalog_w1_gf3_complete():
    names = [e.name for e in excluded_minor_catalog(1, GF3)]
    assert names == ["U24", "MK4", "MK23", "MK23*"]


def test_catalog_w2_gf2():
    names = [e.name for e in excluded_minor_catalog(2, GF2)]
    assert names == ["F7", "F7*", "MK5", "MK5*", "MK33", "MK33*"]


def test_catalog_w2_gf3_no_fano():
    names = [e.name for e in excluded_minor_catalog(2, GF3)]
    assert names == ["MK5", "MK5*", "MK33", "MK33*"]


def test_catalog_w2_gf4_and_gf5_include_u36():
    assert "U36" in [e.name for e in excluded_minor_catalog(2, GF4)]
    assert "U36" in [e.name for e in excluded_minor_catalog(2, GF5)]


def test_catalog_w1_closed_under_duality():
    entries = {e.name: e.matroid for e in excluded_minor_catalog(1, GF3)}
    assert is_isomorphic(dual(entries["U24"]), entries["U24"]) is not None
    assert is_isomorphic(dual(entries["MK4"]), entries["MK4"]) is not None
    assert is_isomorphic(dual(entries["MK23"]), entries["MK23*"]) is not None
    assert is_isomorphic(dual(entries["MK23*"]), entries["MK23"]) is not None


def test_catalog_w1_entries_are_excluded_minors():
    for field in (GF2, GF3):
        for entry in excluded_minor_catalog(1, field):
            report = verify_excluded_minor(entry.matroid, 1)
            assert report.passed, (entry.name, report.failures)


def test_invalid_w():
    with pytest.raises(ValueError):
        excluded_minor_catalog(3, GF2)


# ---------------------------------------------------------------------------
# minor search


def test_pattern_equals_host():
    M = u24()
    cert = minor_contains(M, M)
    assert cert.contract == frozenset() and cert.delete == frozenset()
    assert replay_certificate(M, M, cert)


def test_u36_contains_u24():
    host = uniform_matroid(3, 6, GF4)
    pattern = uniform_matroid(2, 4, GF4)
    cert = minor_contains(host, pattern)
    assert cert is not None
    assert len(cert.contract) == 1 and len(cert.delete) == 1
    assert replay_certificate(host, pattern, cert)


def test_fano_contains_mk4():
    host = VectorMatroid(fano_representation(GF2))
    pattern = next(e.matroid for e in excluded_minor_catalog(1, GF2) if e.name == "MK4")
    cert = minor_contains(host, pattern)
    assert cert is not None
    assert replay_certificate(host, pattern, cert)


def test_all_w2_entries_contain_an_excluded_w1_minor():
    # every pathwidth-2 obstruction exceeds pathwidth 1, so it must contain
    # a pathwidth-1 obstruction
    for entry in excluded_minor_catalog(2, GF2):
        assert catalog_minor_witness(entry.matroid, 1) is not None


def test_no_minor_when_pattern_larger():
    assert minor_contains(u24(), uniform_matroid(3, 6, GF4)) is None


def test_host_cap():
    M = matroid(GF2, [[1] * 13])
    with pytest.raises(GroundSetTooLarge, match="^13 > 12 elements for an exhaustive search$"):
        minor_contains(M, matroid(GF2, [[1]]))


def test_certificate_is_lexicographically_first():
    host = direct_sum(u24(), matroid(GF3, [(1,)]))
    cert = minor_contains(host, u24())
    assert cert.contract == frozenset() and cert.delete == {"1'"}


def test_replay_rejects_bad_certificate():
    from matwidth.minors import MinorCertificate

    host = uniform_matroid(3, 6, GF4)
    pattern = uniform_matroid(2, 4, GF4)
    good = minor_contains(host, pattern)
    bad = MinorCertificate(good.contract, good.delete, dict(good.bijection))
    # corrupt the bijection by swapping two images
    keys = sorted(bad.bijection, key=str)[:2]
    bad.bijection[keys[0]], bad.bijection[keys[1]] = (
        bad.bijection[keys[1]],
        bad.bijection[keys[0]],
    )
    # a swapped pair may still be an automorphism of U24; rank check decides
    assert replay_certificate(host, pattern, bad)  # uniform matroids are transitive
    really_bad = MinorCertificate(frozenset(), frozenset(), {})
    assert not replay_certificate(host, pattern, really_bad)


def _u24_plus_coloop_certificate():
    host = direct_sum(u24(), matroid(GF3, [(1,)]))
    return host, minor_contains(host, u24())


def test_replay_rejects_overlapping_sets():
    host, cert = _u24_plus_coloop_certificate()
    bad = MinorCertificate(frozenset([1]), frozenset([1, "1'"]), dict(cert.bijection))
    assert not replay_certificate(host, u24(), bad)


def test_replay_rejects_unknown_label():
    host, cert = _u24_plus_coloop_certificate()
    bad = MinorCertificate(frozenset([99]), cert.delete, dict(cert.bijection))
    assert not replay_certificate(host, u24(), bad)


def test_replay_rejects_bijection_onto_wrong_set():
    host, cert = _u24_plus_coloop_certificate()
    # one pattern element sent to the deleted coloop instead of its image
    bad = MinorCertificate(cert.contract, cert.delete, {**cert.bijection, 1: "1'"})
    assert not replay_certificate(host, u24(), bad)
    unknown = MinorCertificate(cert.contract, cert.delete, {**cert.bijection, 1: 99})
    assert not replay_certificate(host, u24(), unknown)


def test_replay_never_reads_the_rank_table():
    host, cert = _u24_plus_coloop_certificate()
    assert cert.delete == {"1'"}
    # forge a table with elements 1 and 1' exchanged: the search then deletes
    # 1 and keeps the coloop, a minor of true rank 3
    T = host.rank_table()
    a, b = host.position(1), host.position("1'")
    forged = np.array([T[m ^ ((((m >> a) ^ (m >> b)) & 1) * ((1 << a) | (1 << b)))]
                       for m in range(T.size)], dtype=T.dtype)
    host._rank_table = forged
    swapped = minor_contains(host, u24())
    assert swapped.delete == {1}
    assert replay_certificate(host, u24(), cert)
    assert not replay_certificate(host, u24(), swapped)


# ---------------------------------------------------------------------------
# pathwidth <= 1 membership


def test_umbrella_matroids_pass():
    for counts in ([0, 0], [1, 2], [2, 0, 1]):
        M = cycle_matroid(make_umbrella(counts), GF2)
        ok, cert = pw_le_1_by_minors(M)
        assert ok and cert is None


def test_u24_fails_with_trivial_certificate():
    ok, cert = pw_le_1_by_minors(u24())
    assert not ok
    assert cert.pattern_name == "U24"
    assert cert.contract == frozenset() and cert.delete == frozenset()


def test_direct_sum_with_k23_fails():
    M = direct_sum(
        matroid(GF2, [(1, 0, 0, 0, 1, 1), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1)]),
        matroid(GF2, [(1, 1)]),
    )
    ok, cert = pw_le_1_by_minors(M)
    assert not ok
    assert cert.pattern_name == "MK23"
    assert replay_certificate(
        M, next(e.matroid for e in excluded_minor_catalog(1, GF2) if e.name == "MK23"), cert
    )


def test_membership_cap():
    # the cap is the minor search's: 12 elements answer, 13 are refused
    assert pw_le_1_by_minors(matroid(GF2, [[1] * 12])) == (True, None)
    ok, cert = pw_le_1_by_minors(direct_sum(matroid(GF3, [[1] * 8]), u24()))
    assert not ok and cert.pattern_name == "U24"
    with pytest.raises(GroundSetTooLarge):
        pw_le_1_by_minors(matroid(GF2, [[1] * 13]))


def test_minor_search_matches_dependent_contract_brute_force():
    # oracle: enumerate every disjoint (X, Y) pair, dependent X included,
    # deciding isomorphism by unpruned permutation search
    import itertools

    from matwidth.matroid import MinorSpec, apply_minor

    def brute_iso(P, N):
        n = P.size
        TP, TN = P.rank_table(), N.rank_table()
        for perm in itertools.permutations(range(n)):
            ok = True
            for mask in range(1 << n):
                img = 0
                mm = mask
                while mm:
                    low = mm & -mm
                    img |= 1 << perm[low.bit_length() - 1]
                    mm ^= low
                if TP[mask] != TN[img]:
                    ok = False
                    break
            if ok:
                return True
        return False

    def brute_minor(host, pattern):
        n = host.size
        removals = n - pattern.size
        labels = host.labels
        for xmask in range(1 << n):
            c = bin(xmask).count("1")
            if c > removals:
                continue
            rest = [i for i in range(n) if not (xmask >> i) & 1]
            for Ypos in itertools.combinations(rest, removals - c):
                X = frozenset(labels[i] for i in range(n) if (xmask >> i) & 1)
                Y = frozenset(labels[i] for i in Ypos)
                if brute_iso(pattern, apply_minor(host, MinorSpec(X, Y))):
                    return True
        return False

    rng = np.random.default_rng(4242)
    for t in range(30):
        field = GF2 if t % 2 else GF3
        nh = int(rng.integers(3, 7))
        npat = int(rng.integers(2, nh + 1))
        rows_h = int(rng.integers(1, nh + 1))
        rows_p = int(rng.integers(1, npat + 1))
        host = matroid(field, [[int(x) for x in r] for r in rng.integers(0, field.q, (rows_h, nh))])
        pattern = matroid(
            field, [[int(x) for x in r] for r in rng.integers(0, field.q, (rows_p, npat))]
        )
        cert = minor_contains(host, pattern)
        assert (cert is not None) == brute_minor(host, pattern)
        if cert is not None:
            assert replay_certificate(host, pattern, cert)


def test_agreement_with_exact_solver_random():
    rng = np.random.default_rng(3)
    for i in range(60):
        field = GF2 if i % 2 else GF3
        n = int(rng.integers(2, 9))
        rows = int(rng.integers(1, n + 1))
        M = matroid(field, [[int(x) for x in row] for row in rng.integers(0, field.q, (rows, n))])
        witness = catalog_minor_witness(M, 1)
        assert (witness is None) == (pathwidth_exact(M).width <= 1)


# ---------------------------------------------------------------------------
# excluded-minor verification


def test_u24_is_excluded_minor_for_w1():
    assert verify_excluded_minor(u24(), 1).passed


def test_fano_is_excluded_minor_for_w2():
    report = verify_excluded_minor(VectorMatroid(fano_representation(GF2)), 2)
    assert report.passed
    assert report.pathwidth == 3


def test_coloop_padding_is_not_minor_minimal():
    M = direct_sum(u24(), matroid(GF3, [(1,)]))
    report = verify_excluded_minor(M, 1)
    assert not report.passed
    assert any("delete" in f for f in report.failures)


def test_report_document_shape():
    doc = verify_excluded_minor(u24(), 1).to_doc()
    assert doc["passed"] is True
    assert doc["w"] == 1 and doc["pathwidth"] == 2
    assert len(doc["elements"]) == 8  # 4 deletions + 4 contractions
