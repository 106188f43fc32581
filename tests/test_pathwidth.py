"""Ordering widths, the exact DP against brute force and against the subset
DP on reference ranks, greedy bounds, and caterpillar branch-decompositions."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matwidth.pathwidth as pathwidth
from matwidth import field_new
from matwidth.algebra import identity_matrix, rank_of_columns
from matwidth.graph import MultiGraph, complete_graph, cycle_graph, cycle_matroid
from matwidth.matroid import (
    EXACT_BYTES,
    STATE_BYTES,
    TABLE_BYTES,
    GroundSetTooLarge,
    VectorMatroid,
    direct_sum,
    dual,
    label_key,
)
from matwidth.pathwidth import (
    LeafLabelMismatch,
    NotAPermutation,
    TooFewElements,
    WidthCertificate,
    _class_ranks,
    _gather,
    _StateSpace,
    _strides,
    _walk_back,
    _walk_back_batch,
    branch_width_of_tree,
    caterpillar,
    parallel_classes,
    pathwidth_and_minors,
    pathwidth_at_most,
    pathwidth_exact,
    pathwidth_upper_greedy,
    prefix_dp,
    width_of_ordering,
)
from matwidth.reduction import add_apex, apex_matroid, simplify_double
from util import (
    GF2, GF3, GF4, GF5, brute_force_pathwidth, graphic_lambda, matroid, ref_field_ops,
    ref_lambda_table, ref_rank_table, u24,
)


def _class_lambdas(M, classes):
    """M's lambda over its class-count states, by the solver's one gather."""
    lam = np.empty(_strides(classes)[1], dtype=np.uint8)
    _gather(_class_ranks(M, classes), lam)
    return lam


def random_matroid(rng, field, n):
    rows = int(rng.integers(1, n + 1))
    return matroid(field, [[int(x) for x in row] for row in rng.integers(0, field.q, (rows, n))])


# ---------------------------------------------------------------------------
# width_of_ordering


def test_free_matroid_has_width_zero():
    M = VectorMatroid(identity_matrix(GF2, 5))
    for pi in ([1, 2, 3, 4, 5], [5, 3, 1, 2, 4]):
        assert width_of_ordering(M, pi).width == 0


def test_u24_every_ordering_has_width_two():
    M = u24()
    for pi in itertools.permutations(M.labels):
        assert width_of_ordering(M, pi).width == 2


def test_k4_triangle_first_profile():
    G = complete_graph(4)
    M = cycle_matroid(G, GF2)
    # edges 1,2,4 form the triangle on vertices {0,1,2}
    pi = (1, 2, 4, 3, 5, 6)
    cert = width_of_ordering(M, pi)
    assert cert.prefix_lambdas == (1, 2, 2, 2, 1, 0)
    assert cert.width == 2
    # oracle: union-find connectivity on the graph
    for i in range(6):
        assert cert.prefix_lambdas[i] == graphic_lambda(G, pi[: i + 1])


def test_width_certificate_consistency():
    cert = width_of_ordering(u24(), (2, 4, 1, 3))
    assert cert.width == max(cert.prefix_lambdas)
    assert cert.prefix_lambdas[-1] == 0


def test_not_a_permutation():
    M = u24()
    with pytest.raises(NotAPermutation):
        width_of_ordering(M, (1, 2, 3))
    with pytest.raises(NotAPermutation):
        width_of_ordering(M, (1, 2, 3, 3))


# ---------------------------------------------------------------------------
# pathwidth_exact


def test_pw_u24_is_two():
    assert pathwidth_exact(u24()).width == 2


def test_pw_u14_is_one():
    M = matroid(GF2, [(1, 1, 1, 1)])
    assert pathwidth_exact(M).width == 1


def test_pw_k23_and_dual_are_two():
    M = matroid(
        GF3, [(1, 0, 0, 0, 2, 2), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1)]
    )
    assert pathwidth_exact(M).width == 2
    assert pathwidth_exact(dual(M)).width == 2


def test_pw_free_matroids_zero():
    for n in range(1, 11):
        M = VectorMatroid(identity_matrix(GF2, n))
        cert = pathwidth_exact(M)
        assert cert.width == 0


def test_exact_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(12):
        field = GF2 if rng.integers(2) else GF3
        n = int(rng.integers(3, 8))
        M = random_matroid(rng, field, n)
        assert pathwidth_exact(M).width == brute_force_pathwidth(M)


def test_exact_matches_brute_force_n8():
    rng = np.random.default_rng(19)
    M = random_matroid(rng, GF2, 8)
    assert pathwidth_exact(M).width == brute_force_pathwidth(M)


def test_exact_matches_brute_force_extension_fields():
    from matwidth import field_new

    rng = np.random.default_rng(23)
    for field in (field_new(2, 2), field_new(3, 2), field_new(2, 3)):
        for _ in range(3):
            M = random_matroid(rng, field, int(rng.integers(3, 7)))
            assert pathwidth_exact(M).width == brute_force_pathwidth(M)


def test_certificate_ordering_attains_width():
    rng = np.random.default_rng(23)
    for _ in range(10):
        M = random_matroid(rng, GF3, 7)
        cert = pathwidth_exact(M)
        again = width_of_ordering(M, cert.ordering)
        assert again.width == cert.width
        assert again.prefix_lambdas == cert.prefix_lambdas


def test_width_of_ordering_ignores_the_rank_table():
    # the prefix lambdas come from elimination: a forged table changes nothing
    rng = np.random.default_rng(29)
    M = random_matroid(rng, GF3, 7)
    pi = list(M.labels)
    before = width_of_ordering(M, pi)
    M.rank_table()
    M._rank_table = np.zeros(1 << M.size, dtype=np.uint8)
    assert width_of_ordering(M, pi) == before
    cols = M.matrix.columns()
    mask = 0
    for lbl, lam in zip(pi, before.prefix_lambdas):
        mask |= 1 << M.position(lbl)
        inside = [cols[i] for i in range(M.size) if (mask >> i) & 1]
        outside = [cols[i] for i in range(M.size) if not (mask >> i) & 1]
        r = rank_of_columns(GF3, inside) + rank_of_columns(GF3, outside) - M.rank_full
        assert lam == r


def _dict_prefix_dp(cost, n, tie_key):
    """prefix_dp by a dictionary over subsets, the same recurrence and tie rule."""
    B = {0: 0}
    for S in sorted(range(1, 1 << n), key=lambda S: bin(S).count("1")):
        B[S] = max(int(cost[S]), min(B[S ^ (1 << e)] for e in range(n) if (S >> e) & 1))
    order, S = [], (1 << n) - 1
    while S:
        e = min((e for e in range(n) if (S >> e) & 1), key=lambda e: (B[S ^ (1 << e)], tie_key(e), e))
        order.append(e)
        S ^= 1 << e
    return B[(1 << n) - 1], order[::-1]


@pytest.mark.parametrize("n", range(1, 9))
def test_prefix_dp_matches_dictionary_dp(n):
    rng = np.random.default_rng(100 + n)
    for top in (1, 2, 3, 6):
        cost = rng.integers(0, top + 1, 1 << n).astype(np.uint8)
        rank = rng.permutation(n)
        for tie_key in (lambda e: 0, lambda e: int(rank[e])):
            assert prefix_dp(cost, n, tie_key) == _dict_prefix_dp(cost, n, tie_key)


def test_prefix_dp_memory_at_24_elements():
    # B and its padding (25.2 MB), the rest in chunks of 2^17 states: no
    # digit sums of the whole state space, no index array of a whole layer
    cost = np.random.default_rng(24).integers(0, 13, 1 << 24).astype(np.uint8)
    tracemalloc.start()
    try:
        prefix_dp(cost, 24, lambda e: e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32.0e6


# ---------------------------------------------------------------------------
# threshold passes against the full layered DP


def _layered_prefix_dp(cost, classes, tie_key):
    """prefix_dp as one full layered sweep: every state of every layer
    relaxed, each layer found by scanning the digit sums of all states, the
    gathers wrapping below 0 onto later layers; the same back-walk."""
    if isinstance(classes, int):
        classes = [[e] for e in range(classes)]
    strides, size = _strides(classes)
    layer = np.zeros(1, dtype=np.uint8)
    for c in classes:
        layer = (np.arange(len(c) + 1, dtype=np.uint8)[:, None] + layer).reshape(-1)
    B = np.full(size, 255, dtype=np.uint8)
    B[0] = 0
    for d in range(1, int(layer[-1]) + 1):
        idx = np.flatnonzero(layer == d)
        best = np.full(idx.size, 255, dtype=np.uint8)
        for stride in strides:
            np.minimum(best, np.take(B, idx - stride, mode="wrap"), out=best)
        B[idx] = np.maximum(best, cost[idx])
    members = [sorted(c, key=lambda e: (tie_key(e), e)) for c in classes]
    taken, seq, x = [0] * len(classes), [], size - 1
    while x:
        _, _, e, j = min((int(B[x - strides[j]]), tie_key(c[t]), c[t], j)
                         for j, (c, t) in enumerate(zip(members, taken)) if t < len(c))
        seq.append(e)
        taken[j] += 1
        x -= strides[j]
    return int(B[size - 1]), seq[::-1]


def _passes(cost, classes):
    """(lower bound, value): the DP runs value - lower bound + 1 passes."""
    if isinstance(classes, int):
        classes = [[e] for e in range(classes)]
    return _StateSpace(cost, classes).lower_bound(), prefix_dp(cost, classes, lambda e: e)[0]


@pytest.mark.parametrize("n", [0, 1, 17, 18])
def test_threshold_dp_matches_layered_dp_on_singletons(n):
    # past 16 singletons the states split into low and high parts
    rng = np.random.default_rng(500 + n)
    for top in (2, 6, 12):
        cost = rng.integers(0, top + 1, 1 << n).astype(np.uint8)
        rank = rng.permutation(max(n, 1))
        for tie_key in (lambda e: 0, lambda e: int(rank[e])):
            assert prefix_dp(cost, n, tie_key) == _layered_prefix_dp(cost, n, tie_key)


def test_threshold_dp_matches_layered_dp_on_parallel_pairs():
    classes = [[2 * j + 1, 2 * j] for j in range(11)]  # 3^11 states
    _, size = _strides(classes)
    rng = np.random.default_rng(511)
    for top in (3, 8):
        cost = rng.integers(0, top + 1, size).astype(np.uint8)
        for tie_key in (lambda e: 0, lambda e: -e):
            assert prefix_dp(cost, classes, tie_key) == _layered_prefix_dp(cost, classes, tie_key)


def test_threshold_dp_matches_layered_dp_over_several_passes():
    # high costs with one cheap state planted per layer: the layer minima
    # stay low while every order has to cross expensive states
    rng = np.random.default_rng(523)
    for classes in (14, [[0, 1, 2], [3], [4, 5], [6], [7, 8], [9, 10, 11], [12]]):
        cls = [[e] for e in range(classes)] if isinstance(classes, int) else classes
        strides, size = _strides(cls)
        layer = np.zeros(1, dtype=np.uint8)
        for c in cls:
            layer = (np.arange(len(c) + 1, dtype=np.uint8)[:, None] + layer).reshape(-1)
        for _ in range(3):
            cost = rng.integers(4, 9, size).astype(np.uint8)
            for d in range(int(layer[-1]) + 1):
                cost[rng.choice(np.flatnonzero(layer == d))] = int(rng.integers(0, 3))
            lb, value = _passes(cost, classes)
            assert lb + 2 <= value
            for tie_key in (lambda e: 0, lambda e: -e):
                assert prefix_dp(cost, classes, tie_key) == _layered_prefix_dp(cost, classes, tie_key)


def test_threshold_dp_matches_layered_dp_when_every_state_qualifies():
    rng = np.random.default_rng(541)
    for n in (5, 12):
        cost = rng.integers(0, 4, 1 << n).astype(np.uint8)
        cost[-1] = 3  # the full state's cost is the largest, so is the bound
        assert _passes(cost, n)[0] == 3
        assert prefix_dp(cost, n, lambda e: e) == _layered_prefix_dp(cost, n, lambda e: e)
    cost = np.full(1 << 10, 2, dtype=np.uint8)
    assert prefix_dp(cost, 10, lambda e: -e) == _layered_prefix_dp(cost, 10, lambda e: -e)


@pytest.mark.parametrize("j", [14, 15])
def test_threshold_dp_reads_same_layer_borrows_before_they_are_written(j):
    # 17 singletons.  x0 = A + {j + 1} and y0 = A + {j} lie in one layer, and
    # the gather of x0 at stride 2^j borrows: it lands on y0.  Only y0 has
    # B = 1 there, so x0 must be relaxed before y0 is written, in another
    # chunk of the same low group (j = 14) or of the next block (j = 15,
    # element 16 being the high part); x0's own predecessors cost 2, and
    # every order through x0 is cheap from there on, so reading y0's
    # written B would give width 1 instead of 2.
    n, A = 17, sum(1 << b for b in (0, 1, 2, 3, 4, 5, 6, 12, 13))
    x0, y0 = A | 1 << (j + 1), A | 1 << j
    layer = np.bitwise_count(np.arange(1 << n))
    cost = np.ones(1 << n, dtype=np.uint8)
    cost[A] = 2
    cost[[x0 ^ 1 << b for b in range(n) if A >> b & 1]] = 2
    cost[layer == 10] = 2
    cost[[x0, y0]] = 1
    cost[layer == 11] = 2
    cost[[x0 | 1 << e for e in range(n) if not (x0 | 1 << j) >> e & 1]] = 1
    assert _passes(cost, n) == (1, 2)
    for tie_key in (lambda e: 0, lambda e: -e):
        assert prefix_dp(cost, n, tie_key) == _layered_prefix_dp(cost, n, tie_key)


@pytest.mark.parametrize("graph", ["K4", "C6"])
def test_threshold_dp_matches_layered_dp_on_apex_lambda_tables(graph):
    G = complete_graph(4) if graph == "K4" else cycle_graph(6)
    M = apex_matroid(add_apex(simplify_double(G)), GF2)
    classes = parallel_classes(M)
    lam = _class_lambdas(M, classes)

    def tie_key(i):
        return label_key(M.labels[i])

    assert prefix_dp(lam, classes, tie_key) == _layered_prefix_dp(lam, classes, tie_key)


# ---------------------------------------------------------------------------
# a known upper bound: one threshold pass at u - 1, or none


def _counting_passes(monkeypatch):
    """The thresholds of every threshold pass run from here on."""
    seen, real = [], _StateSpace.threshold_pass

    def counted(self, w):
        seen.append(w)
        return real(self, w)

    monkeypatch.setattr(_StateSpace, "threshold_pass", counted)
    return seen


def test_prefix_dp_with_an_upper_bound_runs_one_pass_at_most(monkeypatch):
    seen = _counting_passes(monkeypatch)
    rng = np.random.default_rng(557)
    for classes in (9, [[0, 1], [2], [3, 4, 5], [6, 7], [8]]):
        cls = [[e] for e in range(classes)] if isinstance(classes, int) else classes
        _, size = _strides(cls)
        for top in (3, 8):
            cost = rng.integers(0, top + 1, size).astype(np.uint8)
            lb = _StateSpace(cost, cls).lower_bound()
            for tie_key in (lambda e: 0, lambda e: -e):
                width, order = _layered_prefix_dp(cost, classes, tie_key)
                for u in (width, width + 1, width + 3):
                    seen.clear()
                    got = prefix_dp(cost, classes, tie_key, upper=u)
                    assert got == ((width, order) if width < u else (u, None))
                    assert seen == ([] if lb >= u else [u - 1])


def test_prefix_dp_with_an_upper_bound_on_a_batch(monkeypatch):
    # members share the one pass: those it reaches are walked back as alone
    seen = _counting_passes(monkeypatch)
    rng = np.random.default_rng(563)
    classes = [[0, 1], [2], [3, 4]]
    _, size = _strides(classes)
    cost = rng.integers(0, 5, (6, size)).astype(np.uint8)
    alone = [_layered_prefix_dp(row, classes, lambda e: e) for row in cost]
    u = max(width for width, _ in alone)
    assert min(width for width, _ in alone) < u and _StateSpace(cost, classes).lower_bound() < u
    got = prefix_dp(cost, [classes] * len(cost), lambda e: e, upper=u)
    assert got == [(width, order) if width < u else (u, None) for width, order in alone]
    assert seen == [u - 1]


def _random_members(rng, sizes, count, labels):
    """count class lists over the class sizes, each a random assignment of
    distinct elements drawn from range(len(labels))."""
    ends = list(itertools.accumulate(sizes))
    members = []
    for _ in range(count):
        picked = rng.permutation(len(labels))[:sum(sizes)].tolist()
        members.append([picked[end - size:end] for end, size in zip(ends, sizes)])
    return members


def _mixed_labels(rng, n):
    """n labels, ints and strings mixed, with repeats, so that label_key
    puts the ints first and ties on it fall to the element index."""
    return [int(x) if rng.integers(2) else f"e{x}" for x in rng.integers(0, n, n)]


def _recording_batched_walks(monkeypatch) -> list:
    """The number of members of each `_walk_back_batch` call, recorded."""
    walks, real = [], pathwidth._walk_back_batch

    def walk(B, rows, *args):
        walks.append(len(rows))
        return real(B, rows, *args)

    monkeypatch.setattr(pathwidth, "_walk_back_batch", walk)
    return walks


@pytest.mark.parametrize("seed", range(4))
def test_batched_walk_gives_each_member_the_lone_walk(seed):
    # singleton and multi-member classes, int and str labels, and any rows
    # of B walked, on random B (the walk reads B, whatever made it)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        sizes = [int(s) for s in rng.integers(1, 4, int(rng.integers(1, 6)))]
        labels = _mixed_labels(rng, 2 * sum(sizes))
        members = _random_members(rng, sizes, int(rng.integers(2, 7)), labels)
        strides, size = _strides(members[0])
        B = rng.integers(0, 6, (len(members), size)).astype(np.uint8)
        rows = sorted(rng.choice(len(members), int(rng.integers(2, len(members) + 1)), replace=False).tolist())
        tie_key = lambda e: label_key(labels[e])  # noqa: E731
        alone = [_walk_back(B[k], members[k], strides, tie_key) for k in rows]
        assert _walk_back_batch(B, rows, members, strides, tie_key) == alone


def test_batched_walk_of_members_with_no_elements():
    B = np.zeros((3, 1), dtype=np.uint8)
    assert _walk_back(B[0], [], [], label_key) == []
    assert _walk_back_batch(B, [0, 2], [[], [], []], [], label_key) == [[], []]


@pytest.mark.parametrize("together", [2, pathwidth.WALK_TOGETHER])
def test_a_batch_walks_back_each_member_as_alone(monkeypatch, together):
    # the members a pass reaches are walked back, together when there are
    # enough of them, the others in a later pass, or with an upper bound
    # not at all
    monkeypatch.setattr(pathwidth, "WALK_TOGETHER", together)
    walks = _recording_batched_walks(monkeypatch)
    rng = np.random.default_rng(571)
    sizes = [2, 1, 3, 1]
    for _ in range(20):
        labels = _mixed_labels(rng, 9)
        members = _random_members(rng, sizes, 8, labels)
        _, size = _strides(members[0])
        cost = rng.integers(0, 5, (len(members), size)).astype(np.uint8)
        tie_key = lambda e: label_key(labels[e])  # noqa: E731
        alone = [prefix_dp(row, classes, tie_key) for row, classes in zip(cost, members)]
        assert prefix_dp(cost, members, tie_key) == alone
        u = max(width for width, _ in alone)
        assert prefix_dp(cost, members, tie_key, upper=u) == [
            (width, order) if width < u else (u, None) for width, order in alone]
    assert min(walks) >= together and min(walks) < 8


def test_the_minors_of_a_one_element_matroid_are_walked_as_a_batch(monkeypatch):
    # M \\ e and M / e have no elements: a batch of two with no step to
    # walk, walked together once two are enough
    monkeypatch.setattr(pathwidth, "WALK_TOGETHER", 2)
    walks = _recording_batched_walks(monkeypatch)
    empty = WidthCertificate(0, (), ())
    for M in (matroid(GF2, [(0,)]), matroid(GF3, [(1,)], ["x"])):
        cert, minors = pathwidth_and_minors(M)
        assert cert.width == 0
        assert minors == [(M.labels[0], "delete", empty), (M.labels[0], "contract", empty)]
    assert walks == [2, 2]


def _seeded_matroid(rng, field, n):
    """A matroid of n elements over field with loops and columns parallel to
    earlier ones drawn often."""
    k = int(rng.integers(1, n + 1))
    cols = []
    for j in range(n):
        kind = rng.choice(["random", "loop", "parallel"] if j else ["random", "loop"])
        if kind == "random":
            cols.append([int(x) for x in rng.integers(0, field.q, k)])
        elif kind == "loop":
            cols.append([0] * k)
        else:
            c = int(rng.integers(1, field.q))
            cols.append([field.mul(c, x) for x in cols[int(rng.integers(j))]])
    return matroid(field, [[col[i] for col in cols] for i in range(k)])


def _upper_orderings(M, rng):
    """The three upper orderings: the DP's own order, a seeded random
    permutation and the greedy order."""
    return (pathwidth_exact(M).ordering, tuple(M.labels[i] for i in rng.permutation(M.size)),
            pathwidth_upper_greedy(M).ordering)


def _check_upper(M, rng) -> set:
    """Checks pathwidth_exact(M, upper=pi) for the three orderings; returns
    whether the DP beat each pi."""
    exact, beaten = pathwidth_exact(M), set()
    for pi in _upper_orderings(M, rng):
        got = pathwidth_exact(M, upper=pi)
        assert got.width == exact.width
        bound = width_of_ordering(M, pi)
        # the DP's certificate where it beats pi, pi's own where it cannot
        assert got == (exact if exact.width < bound.width else bound)
        beaten.add(exact.width < bound.width)
    return beaten


def test_exact_with_an_upper_ordering_on_apex_matroids():
    from matwidth.reduction import reduce_instance
    from matwidth.verify import small_connected_graphs

    rng = np.random.default_rng(569)
    beaten = set()
    for _, G in small_connected_graphs():
        M, _ = reduce_instance(G, GF2)
        beaten |= _check_upper(M, rng)
    assert beaten == {False, True}


def test_exact_with_an_upper_ordering_on_seeded_matroids():
    # random GF(4) columns are nearly uniform matroids, where every order is
    # optimal: the DP beats some pi over GF(2) and GF(3)
    rng = np.random.default_rng(571)
    beaten = set()
    for field in (GF2, GF3, GF4):
        for _ in range(25):
            beaten |= _check_upper(_seeded_matroid(rng, field, int(rng.integers(1, 10))), rng)
    assert beaten == {False, True}


def test_exact_with_an_upper_ordering_computes_its_width_by_elimination(monkeypatch):
    # the DP's answer for the ordering's width comes from elimination, not
    # from the DP's own lambda table
    M = u24()
    calls = []
    real = width_of_ordering

    def counted(M, ordering):
        calls.append(tuple(ordering))
        return real(M, ordering)

    monkeypatch.setattr("matwidth.pathwidth.width_of_ordering", counted)
    assert pathwidth_exact(M, upper=(1, 2, 3, 4)) == real(M, (1, 2, 3, 4))
    assert calls == [(1, 2, 3, 4)]


def test_exact_with_an_upper_ordering_rejects_a_non_permutation():
    M = u24()
    empty = VectorMatroid(identity_matrix(GF2, 0), labels=())
    for bad in ((1, 2, 3), (1, 2, 3, 3), (1, 2, 3, 5), (1, 2, 3, 4, 5)):
        with pytest.raises(NotAPermutation):
            pathwidth_exact(M, upper=bad)
    with pytest.raises(NotAPermutation):
        pathwidth_exact(empty, upper=(1,))
    assert pathwidth_exact(empty, upper=()) == WidthCertificate(0, (), ())


# ---------------------------------------------------------------------------
# class-count states: pathwidth_exact against the subset DP on reference ranks


def _reference_exact(field, rows, labels):
    """(width, ordering) of the dictionary subset DP on the full lambda table
    of the reference ranks, ties by label_key.  Past 16 elements the
    dictionary is too slow and the singleton prefix_dp, which
    test_prefix_dp_matches_dictionary_dp holds to it, stands in."""
    n = len(labels)
    dp = _dict_prefix_dp if n <= 16 else prefix_dp
    lam = ref_lambda_table(field, rows, n).astype(np.uint8)
    width, order = dp(lam, n, lambda e: label_key(labels[e]))
    return width, tuple(labels[e] for e in order)


def _non_simple_rows(field, rng, n):
    """Seeded rows whose columns are random, zero, or nonzero multiples of
    an earlier column."""
    _, mul = ref_field_ops(field)
    k = int(rng.integers(1, 5))
    cols = []
    for _ in range(n):
        kind = int(rng.integers(3)) if cols else 0
        if kind == 0:
            cols.append([int(x) for x in rng.integers(0, field.q, k)])
        elif kind == 1:
            cols.append([0] * k)
        else:
            src, c = cols[int(rng.integers(len(cols)))], int(rng.integers(1, field.q))
            cols.append([mul(c, x) for x in src])
    return [[col[i] for col in cols] for i in range(k)]


def _mixed_labels(rng, n):
    return [f"e{j}" if rng.integers(2) else int(rng.integers(100)) * 16 + j for j in range(n)]


@pytest.mark.parametrize("field", [GF2, GF3, GF4, GF5], ids=["GF2", "GF3", "GF4", "GF5"])
def test_exact_matches_subset_dp_on_non_simple_matroids(field):
    rng = np.random.default_rng(700 + field.q)
    for _ in range(12):
        n = int(rng.integers(2, 11))
        rows, labels = _non_simple_rows(field, rng, n), _mixed_labels(rng, n)
        cert = pathwidth_exact(matroid(field, rows, labels))
        assert (cert.width, cert.ordering) == _reference_exact(field, rows, labels)


def _graphs_to_4_vertices():
    """Every simple graph on 1 to 4 vertices, up to isomorphism."""
    for nv in range(1, 5):
        pairs = list(itertools.combinations(range(nv), 2))
        seen = set()
        for mask in range(1 << len(pairs)):
            edges = [p for b, p in enumerate(pairs) if (mask >> b) & 1]
            canon = min(tuple(sorted(tuple(sorted((pi[u], pi[v]))) for u, v in edges))
                        for pi in itertools.permutations(range(nv)))
            if canon not in seen:
                seen.add(canon)
                yield MultiGraph(nv, tuple((u, v, i + 1) for i, (u, v) in enumerate(edges)))


def test_exact_matches_subset_dp_on_apex_matroids():
    graphs = list(_graphs_to_4_vertices())
    assert len(graphs) == 1 + 2 + 4 + 11
    for G in graphs:
        M = apex_matroid(add_apex(simplify_double(G)), GF2)
        assert [len(c) for c in parallel_classes(M)] == [2] * (M.size // 2)
        rows = [list(row) for row in M.matrix.entries]
        cert = pathwidth_exact(M)
        assert (cert.width, cert.ordering) == _reference_exact(GF2, rows, M.labels)


def test_parallel_classes_scale_columns_and_gather_loops():
    # columns 1 and 5 are 2 and 4 times column 0 over GF(5); 2 and 4 are loops
    M = matroid(GF5, [(1, 2, 0, 1, 0, 4, 0), (2, 4, 0, 3, 0, 3, 3)])
    assert parallel_classes(M) == [[0, 1, 5], [2, 4], [3], [6]]
    assert parallel_classes(u24()) == [[0], [1], [2], [3]]


def _subset_states(classes, subsets):
    """The class-count state of each subset mask (int64 array)."""
    strides, _ = _strides(classes)
    return sum((strides[j] * np.bitwise_count(subsets & sum(1 << e for e in c)).astype(np.int64)
                for j, c in enumerate(classes)), np.zeros_like(subsets))


def test_class_lambdas_agree_with_every_subset():
    # M and its 2n single-element minors, each member's row gathered from
    # M's class ranks as _solve does, against lambda from reference ranks
    # of M at every subset: with E' = E - e, M \\ e has r(S) + r(E' - S) -
    # r(E') and M / e has r(S + e) + r(E - S) - r(e) - r(E), S within E'
    rng = np.random.default_rng(71)
    for field in (GF3, GF4, GF5):
        for _ in range(6):
            n = int(rng.integers(1, 10))
            rows = _non_simple_rows(field, rng, n)
            M = matroid(field, rows)
            classes = parallel_classes(M)
            lam = _class_lambdas(M, classes)
            assert lam.dtype == np.uint8 and lam.size == _strides(classes)[1]
            subsets = np.arange(1 << n, dtype=np.int64)
            assert np.array_equal(lam[_subset_states(classes, subsets)], ref_lambda_table(field, rows, n))
            r, full = np.array(ref_rank_table(field, rows, n)), (1 << n) - 1
            ranks = _class_ranks(M, classes)
            for e in range(n):
                j = next(j for j, c in enumerate(classes) if e in c)
                kept = [i for i in classes[j] if i != e]
                rest = classes[:j] + ([kept] if kept else []) + classes[j + 1:]
                S = subsets[(subsets >> e) & 1 == 0]
                rest_mask = full ^ (1 << e)
                refs = {"delete": r[S] + r[rest_mask ^ S] - r[rest_mask],
                        "contract": r[S | 1 << e] + r[full ^ S] - r[1 << e] - r[full]}
                for op, ref in refs.items():
                    row = np.empty(_strides(rest)[1], dtype=np.uint8)
                    _gather(ranks, row, len(classes) - 1 - j, op)
                    assert np.array_equal(row[_subset_states(rest, S)], ref), (e, op)


def test_class_lambdas_on_a_simple_matroid_are_the_subset_table():
    M = cycle_matroid(complete_graph(4), GF3)
    ranks = M.rank_table().astype(np.int64)
    lam = _class_lambdas(M, parallel_classes(M))
    assert np.array_equal(lam, ranks + ranks[::-1] - M.rank_full)


def test_exact_width_of_25_parallel_copies():
    # one class of 25: a 2-entry table and 26 states, far within the budget
    cert = pathwidth_exact(matroid(GF2, [[1] * 25]))
    assert cert.width == 1 and cert.prefix_lambdas == (1,) * 24 + (0,)


def test_exact_dp_on_an_apex_matroid_holds_no_class_ranks():
    # C6's apex matroid: 12 parallel pairs, 3^12 states.  Its class ranks
    # are a copy of a byte a state, freed before the DP, so the peak is
    # lambda, B and the DP's chunks, under 4 bytes a state
    M = apex_matroid(add_apex(simplify_double(cycle_graph(6))), GF2)
    assert [len(c) for c in parallel_classes(M)] == [2] * 12
    pathwidth_exact(M)  # caches filled before measuring
    tracemalloc.start()
    try:
        pathwidth_exact(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 3**12


def test_class_ranks_and_lambda_of_an_apex_matroid_hold_two_bytes_a_state():
    # C6's apex matroid, 3^12 states: r(S) is one byte a state, r(E - S) is
    # read from it reversed, and lambda is the other byte
    M = apex_matroid(add_apex(simplify_double(cycle_graph(6))), GF2)
    classes = parallel_classes(M)
    assert _strides(classes)[1] == 3**12

    def ranks_and_lambda():
        _gather(_class_ranks(M, classes), np.empty(3**12, dtype=np.uint8))

    ranks_and_lambda()  # caches filled before measuring
    tracemalloc.start()
    try:
        ranks_and_lambda()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 3**12 + 64 * 1024


def _simple_gf2_columns(n):
    """n distinct nonzero columns of GF(2)^5, as the 5 rows of a matrix."""
    cols = [[(v >> i) & 1 for i in range(5)] for v in range(1, n + 1)]
    return [[c[i] for c in cols] for i in range(5)]


def test_a_simple_25_element_matroid_is_refused_before_any_backend_runs(monkeypatch):
    from matwidth import matroid as matroidmod

    def no_backend(field, gens):
        raise AssertionError("rank-table backend ran")

    monkeypatch.setattr(matroidmod, "_sweep_ranks", no_backend)
    with pytest.raises(GroundSetTooLarge, match="budget"):
        matroid(GF2, _simple_gf2_columns(25)).rank_table()
    with pytest.raises(GroundSetTooLarge, match="budget"):
        pathwidth_exact(matroid(GF2, _simple_gf2_columns(25)))


def test_exact_refuses_an_oversized_dp_before_allocating(monkeypatch):
    # the 30 nonzero vectors of GF(2)^5 but one: simple, so its table alone
    # would hold 2^30 entries
    M = matroid(GF2, _simple_gf2_columns(30))

    def no_table(self):
        raise AssertionError("rank table built")

    monkeypatch.setattr(VectorMatroid, "rank_table", no_table)
    with pytest.raises(GroundSetTooLarge, match="budget"):
        pathwidth_exact(M)


def test_exact_budget_admits_every_simple_24_element_matroid():
    assert EXACT_BYTES >= (TABLE_BYTES + STATE_BYTES) * 2**24
    # 15 parallel pairs of K5's apex matroid: a 2^15 table and 3^15 states
    assert TABLE_BYTES * 2**15 + STATE_BYTES * 3**15 <= EXACT_BYTES


def test_every_table_and_dp_is_refused_by_the_budget_before_allocating(monkeypatch):
    # a 1 MB budget: a 2^20 table needs 6 MB and 2^20 graph states 4 MB
    from matwidth import matroid as matroidmod
    from matwidth.graph import graph_pathwidth, mk_graph

    monkeypatch.setattr(matroidmod, "EXACT_BYTES", 2**20)
    M = matroid(GF2, _simple_gf2_columns(20))
    G = mk_graph(20, [(i, i + 1) for i in range(19)])
    for refused in (M.rank_table, lambda: pathwidth_exact(M), lambda: pathwidth_exact(M, upper=M.labels),
                    lambda: pathwidth_at_most(M, 1), lambda: pathwidth_and_minors(M), lambda: graph_pathwidth(G)):
        tracemalloc.start()
        try:
            with pytest.raises(GroundSetTooLarge, match="over the budget of 1 MB$"):
                refused()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_empty_and_singleton_matroids():
    from matwidth.algebra import GfMatrix

    empty = VectorMatroid(GfMatrix(GF2, [], cols=0), labels=())
    cert = pathwidth_exact(empty)
    assert cert == WidthCertificate(0, (), ())
    assert pathwidth_at_most(empty, 0) and not pathwidth_at_most(empty, -1)
    assert pathwidth_and_minors(empty) == (WidthCertificate(0, (), ()), [])
    loop = matroid(GF2, [(0,)])
    coloop = matroid(GF2, [(1,)])
    assert pathwidth_exact(loop).width == 0
    assert pathwidth_exact(coloop).width == 0


def test_pw_duality_random():
    rng = np.random.default_rng(29)
    for _ in range(20):
        M = random_matroid(rng, GF3 if rng.integers(2) else GF2, int(rng.integers(2, 10)))
        assert pathwidth_exact(M).width == pathwidth_exact(dual(M)).width


@st.composite
def field_matroids(draw):
    """Matroids of up to 9 elements over word fields (GF(2), GF(3), GF(4))
    and byte fields (q > 4), with loops and columns parallel to earlier ones
    drawn often."""
    field = draw(st.sampled_from([GF2, GF3, GF4, GF5, field_new(3, 2), field_new(2, 4), field_new(17)]))
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, n))
    entry = st.integers(0, field.q - 1)
    cols = []
    for j in range(n):
        kind = draw(st.sampled_from(["random", "loop", "parallel"] if j else ["random", "loop"]))
        if kind == "random":
            cols.append(draw(st.lists(entry, min_size=k, max_size=k)))
        elif kind == "loop":
            cols.append([0] * k)
        else:
            src, c = draw(st.sampled_from(cols)), draw(st.integers(1, field.q - 1))
            cols.append([field.mul(c, x) for x in src])
    return matroid(field, [[col[i] for col in cols] for i in range(k)])


@settings(max_examples=100, deadline=None)
@given(field_matroids())
def test_pw_duality_property(M):
    # both table routes (the code's rank at most n/2 and above it) and the
    # elimination certificate, on word and byte residues
    assert pathwidth_exact(M).width == pathwidth_exact(dual(M)).width


def test_pw_direct_sum_rule_examples():
    assert pathwidth_exact(direct_sum(u24(), matroid(GF3, [(1, 1, 1)]))).width == 2
    rng = np.random.default_rng(31)
    for _ in range(10):
        M1 = random_matroid(rng, GF2, int(rng.integers(1, 6)))
        M2 = random_matroid(rng, GF2, int(rng.integers(1, 6)))
        assert pathwidth_exact(direct_sum(M1, M2)).width == max(
            pathwidth_exact(M1).width, pathwidth_exact(M2).width
        )


def test_pw_minor_monotone_small():
    from matwidth.matroid import contract, delete

    rng = np.random.default_rng(37)
    for _ in range(10):
        M = random_matroid(rng, GF2, int(rng.integers(2, 9)))
        pw = pathwidth_exact(M).width
        for lbl in M.labels:
            assert pathwidth_exact(delete(M, [lbl])).width <= pw
            assert pathwidth_exact(contract(M, [lbl])).width <= pw


def test_golden_certificate_json():
    cert = pathwidth_exact(u24())
    assert cert.to_doc() == {"ordering": [4, 3, 2, 1], "prefix_lambdas": [1, 2, 1, 0], "width": 2}


def test_golden_certificate_json_k4():
    cert = pathwidth_exact(cycle_matroid(complete_graph(4), GF2))
    assert cert.to_doc() == {"ordering": [6, 5, 4, 3, 2, 1], "prefix_lambdas": [1, 2, 2, 2, 1, 0], "width": 2}


# ---------------------------------------------------------------------------
# greedy upper bound


def test_greedy_on_free_matroid():
    M = VectorMatroid(identity_matrix(GF2, 6))
    assert pathwidth_upper_greedy(M).width == 0


def test_greedy_on_u24():
    assert pathwidth_upper_greedy(u24()).width == 2


def test_greedy_is_upper_bound():
    rng = np.random.default_rng(41)
    M = random_matroid(rng, GF2, 12)
    greedy = pathwidth_upper_greedy(M)
    exact = pathwidth_exact(M)
    assert greedy.width >= exact.width
    assert width_of_ordering(M, greedy.ordering).width == greedy.width


# ---------------------------------------------------------------------------
# caterpillars


def test_caterpillar_two_leaves():
    T = caterpillar((1, 2))
    assert T.edges == ((0, 1),)
    assert T.leaf_map() == {0: 1, 1: 2}


def test_caterpillar_four_leaves():
    T = caterpillar((1, 2, 3, 4))
    internal = [v for v in T.nodes if v not in dict(T.leaf_labels)]
    assert len(internal) == 2


def test_caterpillar_six_leaves():
    T = caterpillar(tuple(range(1, 7)))
    internal = [v for v in T.nodes if v not in dict(T.leaf_labels)]
    assert len(internal) == 4
    degree = {v: 0 for v in T.nodes}
    for a, b in T.edges:
        degree[a] += 1
        degree[b] += 1
    assert all(degree[v] == 3 for v in internal)
    assert all(degree[v] == 1 for v in T.nodes if v not in internal)


def test_caterpillar_too_few():
    with pytest.raises(TooFewElements):
        caterpillar((1,))


def test_branch_width_free_matroid():
    M = VectorMatroid(identity_matrix(GF2, 5))
    assert branch_width_of_tree(M, caterpillar(M.labels)) == 0


def test_branch_width_u24_any_cubic_tree():
    M = u24()
    assert branch_width_of_tree(M, caterpillar((2, 4, 1, 3))) == 2


def test_leaf_label_mismatch():
    M = u24()
    with pytest.raises(LeafLabelMismatch):
        branch_width_of_tree(M, caterpillar((1, 2, 3, 5)))


def test_caterpillar_width_equals_ordering_width():
    rng = np.random.default_rng(43)
    for _ in range(30):
        field = GF2 if rng.integers(2) else GF3
        n = int(rng.integers(2, 9))
        M = random_matroid(rng, field, n)
        pi = tuple(M.labels[int(i)] for i in rng.permutation(n))
        assert branch_width_of_tree(M, caterpillar(pi)) == width_of_ordering(M, pi).width
