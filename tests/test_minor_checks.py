"""The exact cross-checks of the minor commands: the depth-first certificate
replay against a from-scratch reference replay, on found and on tampered
certificates, and the memory it holds; `pathwidth_at_most` against the
full DP and the elimination check behind its yes; and the threshold passes
that `check-tw1` and `verify-excluded` run."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matwidth.pathwidth as pathwidth
from matwidth import cli
from matwidth.matroid import MinorSpec, VectorMatroid, apply_minor, matroid_to_text
from matwidth.minors import MinorCertificate, excluded_minor_catalog, minor_contains, replay_certificate
from matwidth.pathwidth import pathwidth_at_most, pathwidth_exact
from util import GF2, GF3, GF4, matroid, ref_column_rank, ref_rank_table, ref_replay


@st.composite
def _found_certificates(draw):
    """(host, pattern, certificate): a host of at most 10 columns over
    GF(2), GF(3) or GF(4), a pattern that is a minor of it (a random
    contract and delete set, relabelled), and the certificate that
    `minor_contains` finds."""
    field = draw(st.sampled_from([GF2, GF3, GF4]))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(2, 10))
    rows = draw(st.lists(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n), min_size=k, max_size=k))
    host = matroid(field, rows)
    roles = draw(st.lists(st.sampled_from(["keep", "keep", "contract", "delete"]), min_size=n, max_size=n))
    spec = MinorSpec(frozenset(lbl for lbl, r in zip(host.labels, roles) if r == "contract"),
                     frozenset(lbl for lbl, r in zip(host.labels, roles) if r == "delete"))
    minor = apply_minor(host, spec)
    pattern = VectorMatroid(minor.matrix, [f"p{i}" for i in range(minor.size)])
    cert = minor_contains(host, pattern)
    assert cert is not None
    return host, pattern, cert


def _swap_images(host, pattern, cert):
    """The bijection with the images of two pattern elements a, b swapped,
    for the first pair whose swap is not an automorphism of the pattern (a
    swap that is one leaves the certificate valid); None if every swap is."""
    T = ref_rank_table(pattern.field, pattern.matrix.entries, pattern.size)
    for a, b in itertools.combinations(range(pattern.size), 2):
        swap = [S ^ ((1 << a) | (1 << b)) if (S >> a ^ S >> b) & 1 else S for S in range(len(T))]
        if any(T[S] != T[swap[S]] for S in range(len(T))):
            bij = dict(cert.bijection)
            la, lb = pattern.labels[a], pattern.labels[b]
            bij[la], bij[lb] = bij[lb], bij[la]
            return MinorCertificate(cert.contract, cert.delete, bij)
    return None


def _move_to_delete(host, pattern, cert):
    """The certificate with one contracted element x deleted instead, for
    the first x spanned by the rest of the kept and contracted elements
    (otherwise x is a coloop there, and deleting it gives the same minor);
    None if there is none."""
    def rank(labels):
        return ref_column_rank(host.field, [host.columns[host.position(lbl)] for lbl in labels])

    kept = set(cert.bijection.values())
    for x in sorted(cert.contract, key=str):
        rest = kept | cert.contract
        if rank(rest - {x}) == rank(rest):
            return MinorCertificate(cert.contract - {x}, cert.delete | {x}, cert.bijection)
    return None


def _outside_label(host, pattern, cert):
    """The certificate with a label outside the host's ground set: as the
    image of the first pattern element, or deleted when the pattern is
    empty."""
    if not pattern.size:
        return MinorCertificate(cert.contract, cert.delete | {"outside"}, cert.bijection)
    return MinorCertificate(cert.contract, cert.delete, {**cert.bijection, pattern.labels[0]: "outside"})


@settings(max_examples=100)
@given(_found_certificates())
def test_replay_agrees_with_a_reference_replay_on_found_and_tampered_certificates(case):
    host, pattern, cert = case
    assert replay_certificate(host, pattern, cert) and ref_replay(host, pattern, cert)
    for tamper in (_swap_images, _move_to_delete, _outside_label):
        bad = tamper(host, pattern, cert)
        if bad is not None:
            assert not ref_replay(host, pattern, bad), tamper.__name__
            assert not replay_certificate(host, pattern, bad), tamper.__name__


def test_every_tamper_occurs_on_catalog_certificates():
    # the property above is not vacuous: among the certificates of the
    # w = 1 catalog patterns in GF(3) graphic hosts, each tamper applies to
    # some, and every tampered one is refused
    from matwidth.graph import complete_bipartite, complete_graph, cycle_matroid

    applied = set()
    for graph in (complete_graph(5), complete_bipartite(3, 3)):
        host = cycle_matroid(graph, GF3)
        for entry in excluded_minor_catalog(1, GF3):
            cert = minor_contains(host, entry.matroid)
            if cert is None:
                continue
            for tamper in (_swap_images, _move_to_delete, _outside_label):
                bad = tamper(host, entry.matroid, cert)
                if bad is not None:
                    applied.add(tamper.__name__)
                    assert not replay_certificate(host, entry.matroid, bad)
    assert applied == {"_swap_images", "_move_to_delete", "_outside_label"}


def _replay_peak(n):
    rows = np.random.default_rng(n).integers(0, 3, (n // 2, n)).tolist()
    host = matroid(GF3, rows)
    pattern = VectorMatroid(host.matrix, [f"p{i}" for i in range(n)])
    cert = MinorCertificate(frozenset(), frozenset(), dict(zip(pattern.labels, host.labels)))
    assert replay_certificate(host, pattern, cert)  # field and caches built before measuring
    tracemalloc.start()
    try:
        assert replay_certificate(host, pattern, cert)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_replay_on_a_12_element_host_holds_only_the_bases_on_its_path():
    # 4,096 subsets, whose bases would take over 1 MB if all were held; the
    # path holds at most 12 rows a side, as for 6 elements
    peak = _replay_peak(12)
    assert peak < 16_000
    assert peak < 4 * _replay_peak(6)


def _seeded_matroids():
    """Seeded matroids of 1 to 9 columns over GF(2), GF(3) and GF(4), with
    a loop and a parallel class planted in most."""
    out = []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        field = (GF2, GF3, GF4)[seed % 3]
        n, k = int(rng.integers(1, 10)), int(rng.integers(1, 5))
        cols = [list(rng.integers(0, field.q, k)) for _ in range(n)]
        if n > 2 and seed % 4:
            cols[int(rng.integers(n))] = [0] * k
            src, dst = rng.choice(n, 2, replace=False)
            cols[dst] = [field.mul_table[int(rng.integers(1, field.q))][int(x)] for x in cols[src]]
        out.append(matroid(field, [[int(c[i]) for c in cols] for i in range(k)]))
    return out


@pytest.mark.parametrize("w", [0, 1, 2, 3])
def test_pathwidth_at_most_matches_the_exact_width(w):
    for M in _seeded_matroids():
        assert pathwidth_at_most(M, w) == (pathwidth_exact(M).width <= w)
    assert pathwidth_at_most(matroid(GF2, [[]]), w)


@pytest.mark.parametrize("tamper", ["lambda", "width"])
def test_a_tampered_yes_fails_the_elimination_check(monkeypatch, tamper):
    # pw = 1 <= 1: raise the lambda of the DP's first prefix, or lower its
    # width, and the check that re-derives the lambdas refuses the yes
    real = pathwidth.prefix_dp

    def tampered(cost, classes, tie_key, upper=None):
        # M's call is a batch of one
        ((width, order),) = real(cost, classes, tie_key, upper)
        if tamper == "width":
            return [(width - 1, order)]
        strides, _ = pathwidth._strides(classes[0])
        cost[0][next(s for s, c in zip(strides, classes[0]) if order[0] in c)] += 1
        return [(width, order)]

    M = matroid(GF3, [(1, 0, 1, 1, 0), (0, 1, 1, 2, 0)])
    assert pathwidth_exact(M).width == 2 and pathwidth_at_most(M, 2)
    monkeypatch.setattr(pathwidth, "prefix_dp", tampered)
    message = "rank table gives lambda" if tamper == "lambda" else "DP width"
    with pytest.raises(AssertionError, match=message):
        pathwidth_at_most(M, 2)


@pytest.fixture
def dp_calls(monkeypatch):
    """Every prefix_dp call as {"upper", "elements", "lower_bound", "passes"},
    elements the number in each member's classes.  Every call is a batch,
    M's own one of one."""
    calls = []
    real_dp, real_pass = pathwidth.prefix_dp, pathwidth._StateSpace.threshold_pass

    def counted_dp(cost, classes, tie_key, upper=None):
        space = pathwidth._StateSpace(cost, classes[0])
        calls.append({"upper": upper, "elements": sum(map(len, classes[0])), "lower_bound": space.lower_bound(),
                      "passes": 0})
        return real_dp(cost, classes, tie_key, upper)

    def counted_pass(self, w):
        calls[-1]["passes"] += 1
        return real_pass(self, w)

    monkeypatch.setattr(pathwidth, "prefix_dp", counted_dp)
    monkeypatch.setattr(pathwidth._StateSpace, "threshold_pass", counted_pass)
    return calls


def test_check_tw1_runs_at_most_one_pass_per_exact_decision(dp_calls, tmp_path, capsys):
    answers = set()
    for seed in range(12):
        field = (GF2, GF3)[seed % 2]
        rows = np.random.default_rng(seed).integers(0, field.q, (4, 8)).tolist()
        path = tmp_path / f"code{seed}.txt"
        path.write_text(matroid_to_text(matroid(field, rows)))
        dp_calls.clear()
        assert cli.main(["check-tw1", str(path)]) == 0
        answers.add('"tw_le_1": true' in capsys.readouterr().out)
        (call,) = dp_calls
        assert call["upper"] == 2 and call["passes"] == (0 if call["lower_bound"] >= 2 else 1)
    assert answers == {True, False}


def test_verify_excluded_runs_no_parent_pass_once_the_layer_bound_reaches_the_upper_width(dp_calls, tmp_path,
                                                                                        capsys):
    skipped = []
    for entry in excluded_minor_catalog(2, GF4):
        path = tmp_path / f"{entry.name}.txt"
        path.write_text(matroid_to_text(entry.matroid))
        dp_calls.clear()
        assert cli.main(["verify-excluded", "--w", "2", "--matroid", str(path)]) == 0
        assert '"passed": true' in capsys.readouterr().out
        (parent,) = [c for c in dp_calls if c["elements"] == entry.matroid.size]
        assert parent["upper"] == 3
        assert parent["passes"] == (0 if parent["lower_bound"] >= parent["upper"] else 1)
        if not parent["passes"]:
            skipped.append(entry.name)
    assert len(excluded_minor_catalog(2, GF4)) == 7
    assert skipped == ["MK5", "MK5*", "MK33", "MK33*", "U36"]
