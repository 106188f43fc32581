"""Path decompositions, exact graph pathwidth, cycle matroids, umbrellas."""

import itertools
import tracemalloc

import numpy as np
import pytest

from matwidth.graph import (
    CircuitTooSmall,
    MultiGraph,
    NotADecomposition,
    NotAnUmbrella,
    PathDecomposition,
    complete_graph,
    cycle_graph,
    cycle_matroid,
    graph_from_text,
    graph_pathwidth,
    graph_to_text,
    make_umbrella,
    mk_graph,
    path_graph,
    umbrella_ordering,
    validate_path_decomposition,
)
from matwidth.matroid import STATE_BYTES, GroundSetTooLarge, check_budget
from matwidth.pathwidth import pathwidth_exact, prefix_dp, width_of_ordering
from matwidth.verify import random_graph, rng_for
from util import GF2, GF3, bag_search_pathwidth, connected_components, edgeless_graph, graphic_rank

D = PathDecomposition


# ---------------------------------------------------------------------------
# validate_path_decomposition


def test_single_edge_single_bag():
    G = mk_graph(2, [(0, 1)])
    assert validate_path_decomposition(G, D(({0, 1},))) == 1


def test_k3_one_bag():
    assert validate_path_decomposition(complete_graph(3), D(({0, 1, 2},))) == 2


def test_path_sliding_bags():
    G = path_graph(3)
    assert validate_path_decomposition(G, D(({0, 1}, {1, 2}))) == 1
    with pytest.raises(NotADecomposition) as err:
        validate_path_decomposition(G, D(({0, 1}, {2})))
    assert "(ii)" in str(err.value)


def test_condition_three_violation():
    G = edgeless_graph(2)
    with pytest.raises(NotADecomposition) as err:
        validate_path_decomposition(G, D(({0}, {1}, {0})))
    assert "(iii)" in str(err.value)


def test_coverage_violation():
    with pytest.raises(NotADecomposition) as err:
        validate_path_decomposition(edgeless_graph(3), D(({0, 1},)))
    assert "(i)" in str(err.value)


def test_loop_needs_only_its_endpoint():
    G = MultiGraph(1, ((0, 0, "loop"),))
    assert validate_path_decomposition(G, D(({0},))) == 0


# ---------------------------------------------------------------------------
# graph_pathwidth


def test_edgeless_pathwidth_zero():
    for k in (1, 3, 5):
        w, decomp = graph_pathwidth(edgeless_graph(k))
        assert w == 0
        assert validate_path_decomposition(edgeless_graph(k), decomp) == 0


def test_null_graph_pathwidth_is_minus_one():
    # max bag size - 1 over no bags
    null = MultiGraph(0, ())
    assert graph_pathwidth(null) == (-1, D(()))
    assert validate_path_decomposition(null, D(())) == -1
    assert validate_path_decomposition(null, D(((),))) == -1
    with pytest.raises(NotADecomposition, match="unknown vertex"):
        validate_path_decomposition(null, D(({0},)))


def test_k3_pathwidth_two():
    w, decomp = graph_pathwidth(complete_graph(3))
    assert w == 2
    assert bag_search_pathwidth(complete_graph(3)) == 2
    assert validate_path_decomposition(complete_graph(3), decomp) == 2


def test_p4_pathwidth_one():
    G = path_graph(4)
    w, decomp = graph_pathwidth(G)
    assert w == 1
    assert bag_search_pathwidth(G) == 1
    assert validate_path_decomposition(G, decomp) == 1


def test_agrees_with_bag_search_up_to_5_vertices():
    rng = np.random.default_rng(3)
    cases = [complete_graph(4), cycle_graph(5), path_graph(5), complete_graph(5)]
    pool = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    for _ in range(12):
        k = int(rng.integers(0, 8))
        picks = rng.choice(len(pool), size=k, replace=False)
        cases.append(mk_graph(5, [pool[int(i)] for i in sorted(picks)]))
    for G in cases:
        w, decomp = graph_pathwidth(G)
        assert w == bag_search_pathwidth(G)
        assert validate_path_decomposition(G, decomp) == w


def test_parallel_edges_do_not_change_pathwidth():
    base = mk_graph(4, [(0, 1), (1, 2), (2, 3)])
    doubled = mk_graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)])
    assert graph_pathwidth(base)[0] == graph_pathwidth(doubled)[0]


def test_vertex_cap():
    # the byte budget admits 2^25 states and refuses 2^26, before anything
    # is allocated
    check_budget(0, 1 << 25)
    tracemalloc.start()
    try:
        with pytest.raises(GroundSetTooLarge, match="budget"):
            graph_pathwidth(edgeless_graph(26))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert graph_pathwidth(edgeless_graph(17))[0] == 0


def _reference_pathwidth(G):
    """graph_pathwidth as it was with one boundary block of 2^n masks, the
    reference for the blocked build."""
    n = G.vertex_count
    adj = G.adjacency_masks()
    masks = np.arange(1 << n, dtype=np.uint32)
    boundary = np.zeros(1 << n, dtype=np.uint8)
    for u in range(n):
        in_s = (masks >> u) & 1
        has_out = (masks & np.uint32(adj[u])) != np.uint32(adj[u])
        boundary += (in_s & has_out).astype(np.uint8)
    width, layout = prefix_dp(boundary, n, lambda v: v)
    bags, placed = [], 0
    for v in layout:
        bags.append(frozenset({v} | {u for u in range(n) if (placed >> u) & 1 and adj[u] & ~placed}))
        placed |= 1 << v
    return width, D(tuple(bags))


@pytest.mark.parametrize("n", [1, 5, 9, 12, 16])
def test_graph_pathwidth_matches_the_single_block_reference(n):
    rng = rng_for(n)
    for edges in (n // 2, n, 2 * n):
        G = random_graph(n, min(edges, n * (n - 1) // 2), rng)
        assert graph_pathwidth(G) == _reference_pathwidth(G)


def test_twenty_vertices_match_the_reference_within_the_state_allowance():
    G = random_graph(20, 40, rng_for(20))
    tracemalloc.start()
    try:
        got = graph_pathwidth(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _reference_pathwidth(G)
    assert peak <= STATE_BYTES << 20


# ---------------------------------------------------------------------------
# cycle matroids


def test_tree_cycle_matroid_is_free():
    G = path_graph(6)
    M = cycle_matroid(G, GF3)
    assert M.rank_full == 5
    assert pathwidth_exact(M).width == 0


def test_k4_cycle_matroid():
    M = cycle_matroid(complete_graph(4), GF2)
    assert M.size == 6 and M.rank_full == 3
    assert pathwidth_exact(M).width == 2


def test_cycle_matroid_refuses_too_many_edges_before_building():
    # 65 parallel edges on 1,000,000 vertices: the incidence matrix would
    # hold 65 million entries; the edge count alone refuses it
    G = mk_graph(1_000_000, [(0, 1)] * 65)
    tracemalloc.start()
    try:
        with pytest.raises(GroundSetTooLarge, match="^65 > 64 ground elements$"):
            cycle_matroid(G, GF2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_single_loop_is_rank_zero_single_element():
    M = cycle_matroid(MultiGraph(1, ((0, 0, 1),)), GF2)
    assert M.size == 1 and M.rank_full == 0


def test_cycle_matroid_rank_is_vertices_minus_components():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(0, 9))
        edges = [
            (int(rng.integers(n)), int(rng.integers(n)), i + 1) for i, _ in enumerate(range(m))
        ]
        G = MultiGraph(n, tuple(edges))
        M = cycle_matroid(G, GF3)
        assert M.rank_full == n - connected_components(G)
        # subset ranks match the union-find oracle
        for _ in range(10):
            mask = int(rng.integers(0, 1 << m)) if m else 0
            subset = [M.labels[i] for i in range(m) if (mask >> i) & 1]
            assert M.rank_subset(subset) == graphic_rank(G, subset)


# ---------------------------------------------------------------------------
# umbrellas


def test_umbrella_triangle():
    H = make_umbrella([0, 0])
    assert H.vertex_count == 3 and H.edge_count == 3


def test_umbrella_edge_count_example():
    H = make_umbrella([1, 0, 2])
    assert H.edge_count == 7  # (m + 1) cycle edges + 3 extra spokes


def test_umbrella_minus_apex_is_path():
    for counts in ([0, 0], [1, 2], [2, 0, 1], [0, 3, 0, 2]):
        H = make_umbrella(counts)
        rest = [(u, v) for u, v, _ in H.edges if 0 not in (u, v)]
        m = H.vertex_count - 1
        assert len(rest) == m - 1
        deg = {}
        for u, v in rest:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        assert sorted(deg.values()) == [1, 1] + [2] * (m - 2)


def test_umbrella_too_small():
    with pytest.raises(CircuitTooSmall):
        make_umbrella([3])


def test_umbrella_ordering_triangle_profile():
    H = make_umbrella([0, 0])
    pi = umbrella_ordering(H)
    cert = width_of_ordering(cycle_matroid(H, GF2), pi)
    assert cert.prefix_lambdas == (1, 1, 0)


def test_umbrella_ordering_four_cycle():
    H = make_umbrella([0, 0, 0])
    pi = umbrella_ordering(H)
    assert width_of_ordering(cycle_matroid(H, GF2), pi).width == 1


def test_umbrella_orderings_certify_width_one():
    for m in range(2, 5):
        for counts in itertools.product(range(3), repeat=m):
            H = make_umbrella(counts)
            pi = umbrella_ordering(H)
            M = cycle_matroid(H, GF2)
            assert width_of_ordering(M, pi).width <= 1


def test_umbrella_exact_pathwidth_at_most_one():
    for counts in ([0, 0], [2, 1], [1, 0, 2], [0, 2, 0, 1]):
        M = cycle_matroid(make_umbrella(counts), GF3)
        assert pathwidth_exact(M).width <= 1


def test_not_an_umbrella():
    with pytest.raises(NotAnUmbrella):
        umbrella_ordering(complete_graph(4))
    with pytest.raises(NotAnUmbrella):
        umbrella_ordering(edgeless_graph(3))


# ---------------------------------------------------------------------------
# text format


def test_graph_text_round_trip():
    G = mk_graph(3, [(0, 1), (1, 2), (1, 1)])
    text = graph_to_text(G)
    assert text == "3\n0 1 1\n1 2 2\n1 1 3\n"
    H = graph_from_text(text)
    assert H == G
    assert graph_to_text(H) == text


def test_graph_text_default_labels_and_parallels():
    H = graph_from_text("2\n0 1\n0 1\n")
    assert H.edge_count == 2
    assert H.edge_labels() == (1, 2)


def test_graph_text_custom_labels():
    H = graph_from_text("2\n0 1 left\n0 1 right\n")
    assert H.edge_labels() == ("left", "right")
