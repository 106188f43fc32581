"""The doubling + apex pipeline, ordering conversions, and the re-ordering
pass: width inequalities, block shape, and the closure-step law."""

import numpy as np
import pytest

from matwidth.graph import (
    MultiGraph,
    PathDecomposition,
    complete_graph,
    graph_pathwidth,
    mk_graph,
    path_graph,
    validate_path_decomposition,
)
from matwidth.matroid import is_isomorphic
from matwidth.pathwidth import pathwidth_exact, width_of_ordering
from matwidth.reduction import (
    CLASS_LG,
    CLASS_LX,
    CLASS_RG,
    CLASS_RX,
    InvalidDecomposition,
    NotDoubledForm,
    NotNormal,
    WrongShape,
    add_apex,
    apex_matroid,
    base_without_apex,
    check_block_shape,
    check_closure_property,
    decomp_to_ordering,
    is_normal,
    normalize,
    ordering_to_decomp,
    reduce_instance,
    reorder,
    simplify_double,
    strip_apex,
)
from util import GF2, GF3, matroid

RNG = np.random.default_rng


def apex_of(G, field=GF2):
    A = add_apex(simplify_double(G))
    M = apex_matroid(A, field)
    M.rank_table()
    return A, M


def random_normal(A, M, rng):
    return normalize(A, tuple(M.labels[int(i)] for i in rng.permutation(M.size)))


# ---------------------------------------------------------------------------
# simplify_double / add_apex


def test_double_triangle():
    Gp = simplify_double(complete_graph(3))
    assert Gp.edge_count == 6
    assert Gp.adjacent_pairs() == complete_graph(3).adjacent_pairs()


def test_double_collapses_loops_and_parallels():
    G = MultiGraph(2, ((0, 0, "loop"),) + tuple((0, 1, f"p{i}") for i in range(5)))
    Gp = simplify_double(G)
    assert Gp.edge_count == 2
    assert Gp.adjacent_pairs() == {(0, 1)}


def test_double_edgeless():
    assert simplify_double(mk_graph(3, [])).edge_count == 0


def test_add_apex_counts_single_edge():
    A = add_apex(simplify_double(mk_graph(2, [(0, 1)])))
    assert A.base.vertex_count == 3
    assert A.base.edge_count == 6


def test_add_apex_counts_triangle():
    A = add_apex(simplify_double(complete_graph(3)))
    assert A.base.vertex_count == 4
    assert A.base.edge_count == 12


def test_add_apex_single_vertex_is_parallel_pair():
    A = add_apex(simplify_double(mk_graph(1, [])))
    M = apex_matroid(A, GF2)
    assert is_isomorphic(M, matroid(GF2, [(1, 1)])) is not None


def test_add_apex_rejects_undoubled():
    with pytest.raises(NotDoubledForm):
        add_apex(mk_graph(2, [(0, 1)]))
    with pytest.raises(NotDoubledForm):
        add_apex(MultiGraph(1, ((0, 0, 1), (0, 0, 2))))


def test_apex_edge_classes_partition():
    A, M = apex_of(complete_graph(3))
    classes = {}
    for lbl in A.base.edge_labels():
        classes.setdefault(A.edge_class[lbl], []).append(lbl)
    assert sorted(classes) == sorted([CLASS_LG, CLASS_LX, CLASS_RG, CLASS_RX])
    assert len(classes[CLASS_LX]) == len(classes[CLASS_RX]) == 3
    assert len(classes[CLASS_LG]) == len(classes[CLASS_RG]) == 3
    for lbl in A.base.edge_labels():
        assert A.twin[A.twin[lbl]] == lbl


def test_apex_spans_everything():
    # the closure of the apex l-edges is the whole ground set
    A, M = apex_of(complete_graph(3))
    lx = [lbl for lbl in M.labels if A.edge_class[lbl] == CLASS_LX]
    rx = [lbl for lbl in M.labels if A.edge_class[lbl] == CLASS_RX]
    assert M.closure(lx) == frozenset(M.labels)
    assert M.closure(rx) == frozenset(M.labels)


# ---------------------------------------------------------------------------
# reduce_instance


def test_reduce_single_vertex():
    M, A = reduce_instance(mk_graph(1, []), GF2)
    assert pathwidth_exact(M).width == 1
    assert graph_pathwidth(mk_graph(1, []))[0] == 0


def test_reduce_single_edge():
    G = mk_graph(2, [(0, 1)])
    M, A = reduce_instance(G, GF2)
    assert pathwidth_exact(M).width == 2 == graph_pathwidth(G)[0] + 1


def test_reduce_k3_over_two_fields():
    G = complete_graph(3)
    for field in (GF2, GF3):
        _, A = reduce_instance(G, field)
        M = apex_matroid(A, field)
        assert pathwidth_exact(M).width == 3 == graph_pathwidth(G)[0] + 1


def test_reduced_matrix_columns_follow_edge_order():
    M, A = reduce_instance(complete_graph(3), GF3)
    assert M.matrix.cols == A.base.edge_count
    assert M.labels == A.base.edge_labels()


# ---------------------------------------------------------------------------
# decomp_to_ordering


def test_decomp_to_ordering_single_edge():
    G = mk_graph(2, [(0, 1)])
    _, A = reduce_instance(G, GF2)
    M = apex_matroid(A, GF2)
    pi = decomp_to_ordering(A, PathDecomposition(({0, 1},)))
    cert = width_of_ordering(M, pi)
    assert cert.width == 2
    assert len(pi) == 6


def test_decomp_to_ordering_p4_sliding():
    G = path_graph(4)  # 14-element apex matroid
    _, A = reduce_instance(G, GF2)
    M = apex_matroid(A, GF2)
    pi = decomp_to_ordering(A, PathDecomposition(({0, 1}, {1, 2}, {2, 3})))
    assert M.size == 14
    assert width_of_ordering(M, pi).width <= 2


def test_decomp_to_ordering_k3_optimal():
    G = complete_graph(3)
    pw, D = graph_pathwidth(G)
    _, A = reduce_instance(G, GF2)
    M = apex_matroid(A, GF2)
    pi = decomp_to_ordering(A, D)
    assert width_of_ordering(M, pi).width <= pw + 1


def test_decomp_to_ordering_output_is_normal():
    G = complete_graph(3)
    _, A = reduce_instance(G, GF2)
    pi = decomp_to_ordering(A, graph_pathwidth(G)[1])
    assert is_normal(A, pi)


def test_decomp_to_ordering_rejects_invalid():
    G = complete_graph(3)
    _, A = reduce_instance(G, GF2)
    with pytest.raises(InvalidDecomposition):
        decomp_to_ordering(A, PathDecomposition(({0, 1},)))


def test_width_bound_on_every_valid_decomposition():
    # width of the induced ordering is at most the decomposition width + 1
    G = complete_graph(3)
    _, A = reduce_instance(G, GF2)
    M = apex_matroid(A, GF2)
    for D in (
        PathDecomposition(({0, 1, 2},)),
        PathDecomposition(({0, 1}, {0, 1, 2})),
        PathDecomposition(({0, 2}, {0, 1, 2}, {1, 2})),
    ):
        w = validate_path_decomposition(G, D)
        pi = decomp_to_ordering(A, D)
        assert width_of_ordering(M, pi).width <= w + 1


# ---------------------------------------------------------------------------
# normal orderings


def test_is_normal_all_l_first():
    A, M = apex_of(complete_graph(3))
    l_first = sorted(
        M.labels, key=lambda lbl: (A.edge_class[lbl] in (CLASS_RG, CLASS_RX), str(lbl))
    )
    assert is_normal(A, tuple(l_first))


def test_swapping_one_pair_breaks_normality():
    A, M = apex_of(complete_graph(3))
    pi = list(normalize(A, M.labels))
    lbl = next(l for l in pi if A.edge_class[l] == CLASS_LG)
    i, j = pi.index(lbl), pi.index(A.twin[lbl])
    pi[i], pi[j] = pi[j], pi[i]
    assert not is_normal(A, tuple(pi))


def test_normalize_output_is_normal_and_idempotent():
    A, M = apex_of(complete_graph(3))
    rng = RNG(7)
    for _ in range(20):
        pi = tuple(M.labels[int(i)] for i in rng.permutation(M.size))
        norm = normalize(A, pi)
        assert is_normal(A, norm)
        assert normalize(A, norm) == norm


def test_normalize_preserves_prefix_lambdas():
    A, M = apex_of(complete_graph(3))
    rng = RNG(11)
    for _ in range(20):
        pi = tuple(M.labels[int(i)] for i in rng.permutation(M.size))
        assert (
            width_of_ordering(M, pi).prefix_lambdas
            == width_of_ordering(M, normalize(A, pi)).prefix_lambdas
        )


def test_fully_reversed_ordering_normalizes():
    A, M = apex_of(complete_graph(3))
    pi = normalize(A, M.labels)
    rev = tuple(reversed(pi))
    norm = normalize(A, rev)
    assert is_normal(A, norm)
    assert width_of_ordering(M, rev).prefix_lambdas == width_of_ordering(M, norm).prefix_lambdas


# ---------------------------------------------------------------------------
# the re-ordering pass


def test_reorder_requires_normal_input():
    A, M = apex_of(mk_graph(2, [(0, 1)]))
    pi = list(normalize(A, M.labels))
    lbl = next(l for l in pi if A.edge_class[l] == CLASS_LX)
    i, j = pi.index(lbl), pi.index(A.twin[lbl])
    pi[i], pi[j] = pi[j], pi[i]
    with pytest.raises(NotNormal):
        reorder(A, M, tuple(pi))


def test_reorder_never_increases_width():
    A, M = apex_of(complete_graph(3))
    rng = RNG(13)
    for _ in range(200):
        pi = random_normal(A, M, rng)
        star = reorder(A, M, pi)
        assert width_of_ordering(M, star).width <= width_of_ordering(M, pi).width


def test_reorder_builds_the_table_exactly_when_the_budget_admits_it(monkeypatch):
    from matwidth import matroid as matroidmod

    A = add_apex(simplify_double(complete_graph(3)))
    M = apex_matroid(A, GF2)
    pi = random_normal(A, M, RNG(19))
    # 12 elements: a 4,096-entry table needs 24,576 bytes
    monkeypatch.setattr(matroidmod, "EXACT_BYTES", 6 * 4096 - 1)
    without = reorder(A, M, pi)
    assert M._rank_table is None
    monkeypatch.setattr(matroidmod, "EXACT_BYTES", 6 * 4096)
    assert reorder(A, M, pi) == without and M._rank_table is not None


def test_reorder_block_shape_and_twin_alignment():
    A, M = apex_of(complete_graph(3))
    rng = RNG(17)
    for _ in range(60):
        star = reorder(A, M, random_normal(A, M, rng))
        groups = check_block_shape(A, star)
        assert check_closure_property(A, M, groups)
        for L, Ablk, B, R in groups:
            assert all(A.edge_class[l] == CLASS_LX for l in L)
            assert all(A.edge_class[l] == CLASS_LG for l in Ablk)
            assert all(A.edge_class[l] == CLASS_RG for l in B)
            assert all(A.edge_class[l] == CLASS_RX for l in R)


def test_reorder_preserves_optimal_width_on_p4():
    G = path_graph(4)
    A, M = apex_of(G)
    cert = pathwidth_exact(M)
    star = reorder(A, M, normalize(A, cert.ordering))
    assert width_of_ordering(M, star).width == cert.width


def test_reorder_fixed_point_width_on_shaped_input():
    A, M = apex_of(mk_graph(2, [(0, 1)]))
    cert = pathwidth_exact(M)
    star = reorder(A, M, normalize(A, cert.ordering))
    again = reorder(A, M, star)
    assert width_of_ordering(M, again).width == cert.width


def test_connectivity_step_law_on_normal_orderings():
    # along a normal ordering the prefix connectivity rises by one exactly
    # when the next element falls outside the prefix closure, and drops by
    # one exactly when it falls outside the closure of the strict suffix
    A, M = apex_of(complete_graph(3))
    rng = RNG(19)
    full = M.full_mask
    for _ in range(40):
        pi = random_normal(A, M, rng)
        mask = 0
        prev = 0
        for lbl in pi:
            pos = M.position(lbl)
            outside_prefix = not (M.closure(mask) >> pos) & 1
            suffix = full ^ mask ^ (1 << pos)
            outside_suffix = not (M.closure(suffix) >> pos) & 1
            lam = M.connectivity(mask | (1 << pos))
            assert (lam == prev + 1) == outside_prefix
            assert (lam == prev - 1) == outside_suffix
            mask |= 1 << pos
            prev = lam


def test_shape_checker_rejects_split_twins():
    A, M = apex_of(mk_graph(2, [(0, 1)]))
    lg = next(l for l in M.labels if A.edge_class[l] == CLASS_LG)
    lx = [l for l in M.labels if A.edge_class[l] == CLASS_LX]
    rx = [l for l in M.labels if A.edge_class[l] == CLASS_RX]
    # l-base edge in group 1, its twin r pushed into group 2
    bad = (lx[0], lg, rx[0], lx[1], A.twin[lg], rx[1])
    with pytest.raises(WrongShape):
        check_block_shape(A, bad)


# ---------------------------------------------------------------------------
# orderings -> decompositions


def test_ordering_to_decomp_single_vertex():
    G = mk_graph(1, [])
    _, A = reduce_instance(G, GF2)
    M = apex_matroid(A, GF2)
    star = reorder(A, M, normalize(A, pathwidth_exact(M).ordering))
    D = ordering_to_decomp(A, star)
    assert D.bags == (frozenset({0, 1}),)
    assert validate_path_decomposition(A.base, D) == 1


def test_ordering_to_decomp_single_edge():
    G = mk_graph(2, [(0, 1)])
    _, A = reduce_instance(G, GF2)
    M = apex_matroid(A, GF2)
    star = reorder(A, M, normalize(A, pathwidth_exact(M).ordering))
    D = ordering_to_decomp(A, star)
    assert validate_path_decomposition(A.base, D) <= 2
    stripped = strip_apex(D, A.apex)
    assert validate_path_decomposition(base_without_apex(A), stripped) <= 1


def test_ordering_to_decomp_k3():
    G = complete_graph(3)
    _, A = reduce_instance(G, GF2)
    M = apex_matroid(A, GF2)
    cert = pathwidth_exact(M)
    star = reorder(A, M, normalize(A, cert.ordering))
    D = ordering_to_decomp(A, star)
    assert validate_path_decomposition(A.base, D) <= cert.width
    stripped = strip_apex(D, A.apex)
    assert validate_path_decomposition(base_without_apex(A), stripped) <= cert.width - 1


def test_ordering_to_decomp_width_bounded_by_ordering_width():
    rng = RNG(23)
    for G in (mk_graph(2, [(0, 1)]), path_graph(3)):
        A, M = apex_of(G)
        for _ in range(25):
            star = reorder(A, M, random_normal(A, M, rng))
            D = ordering_to_decomp(A, star)
            w = validate_path_decomposition(A.base, D)
            assert w <= width_of_ordering(M, star).width


def test_apex_decomposition_strips_to_base_decomposition():
    # both directions of the apex relation: pw of the apex graph itself
    cases = (
        mk_graph(2, [(0, 1)]),
        complete_graph(3),
        path_graph(4),
        mk_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        mk_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]),
    )
    for G in cases:
        _, A = reduce_instance(G, GF2)
        assert graph_pathwidth(A.base)[0] == graph_pathwidth(G)[0] + 1


def test_reorder_stuck_diagnostic_on_broken_apex_invariants():
    from matwidth.reduction import ApexGraph, ReorderStuck

    _, A = reduce_instance(mk_graph(2, [(0, 1)]), GF2)
    # reclassify every apex l-edge as an r-edge: no Lx edge can ever qualify
    broken_classes = {
        lbl: (CLASS_RX if cls == CLASS_LX else cls) for lbl, cls in A.edge_class.items()
    }
    broken = ApexGraph(A.base, A.apex, broken_classes, A.twin)
    M = apex_matroid(broken, GF2)
    with pytest.raises(ReorderStuck):
        reorder(broken, M, tuple(M.labels))


# ---------------------------------------------------------------------------
# the reverse direction in `verify reduction`


@pytest.mark.parametrize("forged", ["wide", "invalid"])
def test_verify_reduction_flags_a_bad_reverse_decomposition(monkeypatch, forged):
    from matwidth import reduction, verify

    def one_bag(A, ordering):
        # every vertex in one bag is a valid decomposition, but wider than
        # pw(G) on any graph that is not complete
        return PathDecomposition((frozenset(range(A.base.vertex_count)),))

    def no_bags(A, ordering):
        return PathDecomposition(())

    monkeypatch.setattr(reduction, "ordering_to_decomp", one_bag if forged == "wide" else no_bags)
    r = verify.check_reduction(seed=23, extra_samples=0)
    assert not r["ok"] and r["checked"] == 10
    flagged = {v["graph"] for v in r["violations"] if v.get("kind") == "reverse"}
    if forged == "wide":
        # K1, K2, K3 and K4 are complete: one bag is an optimal decomposition
        assert flagged == {"P3", "P4", "star13", "paw", "C4", "diamond"}
        assert all(v["decomp_width"] > v["pw_matroid"] - 1 for v in r["violations"])
    else:
        assert len(flagged) == 10 and all("error" in v for v in r["violations"])
