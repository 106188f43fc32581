"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every criterion is checked at its stated scale, seeded, and
against its stated wall-clock budget.
"""

import time

from matwidth import field_new, verify
from matwidth.graph import cycle_matroid, complete_graph, complete_bipartite
from matwidth.matroid import VectorMatroid, dual
from matwidth.minors import fano_representation, uniform_matroid, verify_excluded_minor
from matwidth.pathwidth import pathwidth_exact
from matwidth.algebra import GfMatrix, identity_matrix
from matwidth.codes import LinearCode, trellis_width

GF2 = field_new(2)
GF3 = field_new(3)
GF4 = field_new(2, 2)
GF5 = field_new(5)


def report(num, ok, detail, elapsed, budget):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s / {budget:.0f}s) {detail}"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"


def test_criterion_01_pw_u24_over_three_fields():
    t0 = time.time()
    widths = {}
    for field in (GF3, GF4, GF5):
        t1 = time.time()
        widths[field.q] = pathwidth_exact(uniform_matroid(2, 4, field)).width
        assert time.time() - t1 < 1.0
    ok = widths == {3: 2, 4: 2, 5: 2}
    report(1, ok, f"pw(U24) = {widths}", time.time() - t0, 3.0)


def test_criterion_02_pw_of_k4_and_k23_families():
    t0 = time.time()
    got = {}
    for name, M in (
        ("MK4", cycle_matroid(complete_graph(4), GF2)),
        ("MK23", cycle_matroid(complete_bipartite(2, 3), GF2)),
        ("MK23*", dual(cycle_matroid(complete_bipartite(2, 3), GF2))),
    ):
        t1 = time.time()
        got[name] = pathwidth_exact(M).width
        assert time.time() - t1 < 1.0
    ok = got == {"MK4": 2, "MK23": 2, "MK23*": 2}
    report(2, ok, f"pathwidths = {got}", time.time() - t0, 3.0)


def test_criterion_03_free_matroids():
    t0 = time.time()
    widths = [pathwidth_exact(VectorMatroid(identity_matrix(GF2, n))).width for n in range(1, 11)]
    ok = widths == [0] * 10
    report(3, ok, "pw(U_nn) = 0 for n <= 10", time.time() - t0, 1.0)


def test_criterion_04_duality():
    t0 = time.time()
    r = verify.check_duality(samples=200, seed=7, n_max=9, qs=(2, 3))
    report(4, r["ok"], f"{r['checked']} random matroids, {len(r['violations'])} mismatches",
           time.time() - t0, 60.0)


def test_criterion_05_minor_monotonicity():
    t0 = time.time()
    r = verify.check_minor_monotonicity(samples=200, seed=11, n_max=9, qs=(2, 3))
    report(5, r["ok"], f"{r['checked']} random matroids, all single-element minors monotone",
           time.time() - t0, 120.0)


def test_criterion_06_direct_sum_rule():
    t0 = time.time()
    r = verify.check_direct_sum(samples=100, seed=13, n_max=6, qs=(2, 3))
    report(6, r["ok"], f"{r['checked']} random pairs", time.time() - t0, 60.0)


def test_criterion_07_reduction_end_to_end():
    t0 = time.time()
    r = verify.check_reduction(seed=23, extra_samples=20)
    report(7, r["ok"],
           f"{r['checked']} graphs (all 10 connected <=4-vertex isomorphism classes "
           f"+ 20 seeded 5-vertex), pw(M) = pw(G) + 1", time.time() - t0, 600.0)


def test_criterion_08_decompositions_induce_narrow_orderings():
    t0 = time.time()
    r = verify.check_decomp_to_ordering(seed=23, extra_samples=20)
    report(8, r["ok"], f"{r['checked']} optimal decompositions, width <= pw(G) + 1",
           time.time() - t0, 600.0)


def test_criterion_09_reordering_pass():
    t0 = time.time()
    ok = True
    details = []
    for g in ("k3", "p4"):
        r = verify.check_reorder(graph=g, samples=200, seed=29)
        ok = ok and r["ok"]
        details.append(f"{g}: {r['checked']} runs")
    report(9, ok, "; ".join(details) + " (width never increased, block shape held)",
           time.time() - t0, 120.0)


def test_criterion_10_excluded_minor_equivalence_w1():
    t0 = time.time()
    ok = True
    total = 0
    for q in (2, 3):
        r = verify.check_p1q(q=q, n_max=8, samples=250, seed=31 + q)
        ok = ok and r["ok"]
        total += r["checked"]
    report(10, ok, f"{total} random matroids over GF(2)/GF(3), minor test == exact test",
           time.time() - t0, 900.0)


def test_criterion_11_umbrellas():
    t0 = time.time()
    r = verify.check_umbrellas(m_max=6, max_parallel=2)
    report(11, r["ok"], f"{r['checked']} umbrellas certified width <= 1 by the explicit ordering",
           time.time() - t0, 60.0)


def test_criterion_12_excluded_minors_w2():
    t0 = time.time()
    checks = [
        ("F7", VectorMatroid(fano_representation(GF2)), 2),
        ("F7*", dual(VectorMatroid(fano_representation(GF2))), 2),
        ("U36/GF4", uniform_matroid(3, 6, GF4), 2),
        ("MK33", cycle_matroid(complete_bipartite(3, 3), GF2), 2),
        ("MK33*", dual(cycle_matroid(complete_bipartite(3, 3), GF2)), 2),
        ("MK5", cycle_matroid(complete_graph(5), GF2), 2),
        ("MK5*", dual(cycle_matroid(complete_graph(5), GF2)), 2),
    ]
    failures = []
    for name, M, w in checks:
        r = verify_excluded_minor(M, w)
        if not r.passed:
            failures.append((name, r.failures))
    report(12, not failures, f"{len(checks)} catalog matroids verified excluded-minor-minimal",
           time.time() - t0, 1200.0)


def test_criterion_13_tw1_characterization_for_codes():
    t0 = time.time()
    r = verify.check_tw1_codes(samples=300, seed=37, n_max=7, qs=(2, 3))
    report(13, r["ok"], f"{r['checked']} random codes, tw <= 1 iff no catalog code minor",
           time.time() - t0, 600.0)


def test_criterion_14_caterpillar_identity():
    t0 = time.time()
    r = verify.check_caterpillar(samples=100, seed=17)
    report(14, r["ok"], f"{r['checked']} random (matroid, ordering) pairs", time.time() - t0, 60.0)


def test_criterion_15_golay_trellis_width():
    # the extended Golay [24,12,8] code: the 12 cyclic shifts of
    # g(x) = 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11 in length 23, each with
    # an overall parity bit
    t0 = time.time()
    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    rows = []
    for shift in range(12):
        row = [0] * shift + g + [0] * (11 - shift)
        rows.append(row + [sum(row) % 2])
    cert = trellis_width(LinearCode(GfMatrix(GF2, rows, cols=24)))
    lams = cert.prefix_lambdas
    # the code and its dual have distance 8, so any 7 coordinates or fewer,
    # or all but 7 or fewer, have lambda equal to their count: the profile
    # rises 1..7 and ends 7..1, 0, with steps of at most one in between
    ok = (cert.width == 9 and max(lams) == 9 and lams[:7] == (1, 2, 3, 4, 5, 6, 7)
          and lams[-8:] == (7, 6, 5, 4, 3, 2, 1, 0)
          and all(abs(a - b) <= 1 for a, b in zip(lams, lams[1:])))
    report(15, ok, f"tw(Golay24) = {cert.width}, prefix lambdas {list(lams)}", time.time() - t0, 30.0)
