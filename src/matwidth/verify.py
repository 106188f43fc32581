"""Seeded property-verification harnesses behind the `verify` CLI command
and the acceptance suite.  Every harness returns a JSON-able report dict
with an "ok" flag and a list of serialized counterexamples (a non-empty
list indicates an implementation bug, since the checked statements are
proven).  Randomness comes from a fixed 64-bit generator (PCG64).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import codes as codesmod
from . import graph as graphmod
from . import minors as minorsmod
from . import reduction as redmod
from .algebra import GfMatrix, field_from_order, field_new, matrix_to_text
from .graph import (
    MultiGraph,
    NotADecomposition,
    graph_pathwidth,
    graph_to_text,
    mk_graph,
    validate_path_decomposition,
)
from .matroid import VectorMatroid, direct_sum, dual
from .pathwidth import (
    branch_width_of_tree,
    caterpillar,
    pathwidth_and_minors,
    pathwidth_exact,
    width_of_ordering,
)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_matrix(field, rows, cols, rng) -> GfMatrix:
    ent = rng.integers(0, field.q, size=(rows, cols))
    return GfMatrix(field, [[int(x) for x in row] for row in ent], cols=cols)


def random_matroid(field, n, rng) -> VectorMatroid:
    rows = int(rng.integers(1, n + 1))
    return VectorMatroid(random_matrix(field, rows, n, rng))


def random_code(field, n, rng) -> codesmod.LinearCode:
    rows = int(rng.integers(1, n + 1))
    return codesmod.LinearCode(random_matrix(field, rows, n, rng))


def random_graph(n_vertices, n_edges, rng) -> MultiGraph:
    """A simple graph with n_edges distinct edges chosen uniformly."""
    pool = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
    picks = rng.choice(len(pool), size=n_edges, replace=False)
    return mk_graph(n_vertices, [pool[int(i)] for i in sorted(picks)])


def small_connected_graphs() -> list:
    """All connected simple graphs on at most 4 vertices, up to isomorphism
    (1 + 1 + 2 + 6 = 10 of them), as (name, graph) pairs."""
    return [
        ("K1", mk_graph(1, [])),
        ("K2", mk_graph(2, [(0, 1)])),
        ("P3", graphmod.path_graph(3)),
        ("K3", graphmod.complete_graph(3)),
        ("P4", graphmod.path_graph(4)),
        ("star13", mk_graph(4, [(0, 1), (0, 2), (0, 3)])),
        ("paw", mk_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])),
        ("C4", graphmod.cycle_graph(4)),
        ("diamond", mk_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])),
        ("K4", graphmod.complete_graph(4)),
    ]


NAMED_GRAPHS = {
    "k1": lambda: mk_graph(1, []),
    "k2": lambda: mk_graph(2, [(0, 1)]),
    "k3": lambda: graphmod.complete_graph(3),
    "k4": lambda: graphmod.complete_graph(4),
    "p3": lambda: graphmod.path_graph(3),
    "p4": lambda: graphmod.path_graph(4),
    "c4": lambda: graphmod.cycle_graph(4),
}


def _report(name, violations, checked, **params):
    doc = {"check": name, "ok": not violations, "checked": checked, "params": params}
    doc["violations"] = violations
    return doc


def _matroid_doc(M: VectorMatroid) -> dict:
    return {"matrix": matrix_to_text(M.matrix), "labels": [str(x) for x in M.labels]}


# ---------------------------------------------------------------------------
# pathwidth identities


def check_duality(samples=200, seed=7, n_max=9, qs=(2, 3)) -> dict:
    """pw(M) == pw(M*) on seeded random matroids."""
    rng = rng_for(seed)
    violations = []
    for i in range(samples):
        field = field_from_order(int(qs[i % len(qs)]))
        n = int(rng.integers(2, n_max + 1))
        M = random_matroid(field, n, rng)
        a = pathwidth_exact(M).width
        b = pathwidth_exact(dual(M)).width
        if a != b:
            violations.append({"sample": i, "pw": a, "pw_dual": b, **_matroid_doc(M)})
    return _report("duality", violations, samples, seed=seed, n_max=n_max, qs=list(qs))


def check_minor_monotonicity(samples=200, seed=11, n_max=9, qs=(2, 3)) -> dict:
    """Every single-element deletion/contraction has pathwidth <= pw(M),
    with pw(M) from the minor-derived upper bound of
    `pathwidth.pathwidth_and_minors`."""
    rng = rng_for(seed)
    violations = []
    for i in range(samples):
        field = field_from_order(int(qs[i % len(qs)]))
        n = int(rng.integers(2, n_max + 1))
        M = random_matroid(field, n, rng)
        parent, minors = pathwidth_and_minors(M)
        pw = parent.width
        for lbl, op, cert in minors:
            if cert.width > pw:
                violations.append(
                    {"sample": i, "op": op, "element": str(lbl), "pw": pw, "pw_minor": cert.width,
                     **_matroid_doc(M)}
                )
    return _report("minor-monotone", violations, samples, seed=seed, n_max=n_max, qs=list(qs))


def check_direct_sum(samples=100, seed=13, n_max=6, qs=(2, 3)) -> dict:
    """pw(M1 (+) M2) == max(pw(M1), pw(M2)) on random pairs."""
    rng = rng_for(seed)
    violations = []
    for i in range(samples):
        field = field_from_order(int(qs[i % len(qs)]))
        n1 = int(rng.integers(1, n_max + 1))
        n2 = int(rng.integers(1, n_max + 1))
        M1 = random_matroid(field, n1, rng)
        M2 = random_matroid(field, n2, rng)
        lhs = pathwidth_exact(direct_sum(M1, M2)).width
        rhs = max(pathwidth_exact(M1).width, pathwidth_exact(M2).width)
        if lhs != rhs:
            violations.append({"sample": i, "pw_sum": lhs, "max_pw": rhs,
                               "m1": _matroid_doc(M1), "m2": _matroid_doc(M2)})
    return _report("direct-sum", violations, samples, seed=seed, n_max=n_max, qs=list(qs))


def check_caterpillar(samples=100, seed=17, n_max=8, qs=(2, 3)) -> dict:
    """branch_width_of_tree(caterpillar(pi)) == w_M(pi) on random (M, pi)."""
    rng = rng_for(seed)
    violations = []
    for i in range(samples):
        field = field_from_order(int(qs[i % len(qs)]))
        n = int(rng.integers(2, n_max + 1))
        M = random_matroid(field, n, rng)
        pi = [M.labels[int(j)] for j in rng.permutation(n)]
        w = width_of_ordering(M, pi).width
        bw = branch_width_of_tree(M, caterpillar(pi))
        if w != bw:
            violations.append({"sample": i, "ordering_width": w, "tree_width": bw,
                               "pi": [str(x) for x in pi], **_matroid_doc(M)})
    return _report("caterpillar", violations, samples, seed=seed, n_max=n_max, qs=list(qs))


# ---------------------------------------------------------------------------
# the reduction pipeline


def reduction_test_graphs(seed=23, extra_samples=20) -> list:
    """The <= 4-vertex connected catalog plus seeded 5-vertex graphs with at
    most 5 edges."""
    out = list(small_connected_graphs())
    rng = rng_for(seed)
    for i in range(extra_samples):
        n_edges = int(rng.integers(0, 6))
        out.append((f"rand5_{i}", random_graph(5, n_edges, rng)))
    return out


def check_reduction(seed=23, extra_samples=20, field_q=2) -> dict:
    """pw(M(apex graph)) == pw(G) + 1 end to end, and the reverse direction
    on its own: the optimal ordering, normalized and re-ordered, gives a
    decomposition of the doubled base graph of width <= pw(M) - 1,
    validated without graph_pathwidth."""
    field = field_from_order(field_q)
    violations = []
    cases = reduction_test_graphs(seed, extra_samples)
    for name, G in cases:
        pw_g, _ = graph_pathwidth(G)
        M, A = redmod.reduce_instance(G, field)
        cert = pathwidth_exact(M)
        pw_m = cert.width
        if pw_m != pw_g + 1:
            violations.append({"graph": name, "pw_graph": pw_g, "pw_matroid": pw_m,
                               "text": graph_to_text(G)})
        star = redmod.reorder(A, M, redmod.normalize(A, cert.ordering))
        try:
            D = redmod.strip_apex(redmod.ordering_to_decomp(A, star), A.apex)
            width = validate_path_decomposition(redmod.base_without_apex(A), D)
        except (NotADecomposition, redmod.WrongShape) as exc:
            violations.append({"graph": name, "kind": "reverse", "error": str(exc),
                               "text": graph_to_text(G)})
            continue
        if width > pw_m - 1:
            violations.append({"graph": name, "kind": "reverse", "pw_matroid": pw_m,
                               "decomp_width": width, "text": graph_to_text(G)})
    return _report("reduction", violations, len(cases), seed=seed, field=field_q)


def check_decomp_to_ordering(seed=23, extra_samples=20, field_q=2) -> dict:
    """Orderings induced by optimal decompositions have width <= pw(G) + 1."""
    field = field_from_order(field_q)
    violations = []
    cases = reduction_test_graphs(seed, extra_samples)
    for name, G in cases:
        pw_g, D = graph_pathwidth(G)
        M, A = redmod.reduce_instance(G, field)
        pi = redmod.decomp_to_ordering(A, D)
        w = width_of_ordering(M, pi).width
        if w > pw_g + 1:
            violations.append({"graph": name, "pw_graph": pw_g, "ordering_width": w,
                               "text": graph_to_text(G)})
    return _report("decomp", violations, len(cases), seed=seed, field=field_q)


def check_reorder(graph="k3", samples=200, seed=29, field_q=2) -> dict:
    """The re-ordering pass never increases width, produces the aligned
    block shape, and satisfies the closure-step law along normal orderings."""
    if graph not in NAMED_GRAPHS:
        raise KeyError(f"unknown graph {graph!r}")
    field = field_from_order(field_q)
    G = NAMED_GRAPHS[graph]()
    A = redmod.add_apex(redmod.simplify_double(G))
    M = redmod.apex_matroid(A, field)
    M.rank_table()
    rng = rng_for(seed)
    n = M.size
    violations = []
    for i in range(samples):
        pi = redmod.normalize(A, tuple(M.labels[int(j)] for j in rng.permutation(n)))
        w_in = width_of_ordering(M, pi).width
        # closure-step law: lambda rises by one exactly outside the closure
        mask = 0
        lam_prev = 0
        for lbl in pi:
            bit = 1 << M.position(lbl)
            in_cl = bool((M.closure(mask) >> M.position(lbl)) & 1) if mask else (
                M.rank_subset(bit) == 0
            )
            lam = M.connectivity(mask | bit)
            if (lam == lam_prev + 1) != (not in_cl):
                violations.append({"sample": i, "kind": "closure-step", "pi": [str(x) for x in pi]})
                break
            mask |= bit
            lam_prev = lam
        star = redmod.reorder(A, M, pi)
        w_out = width_of_ordering(M, star).width
        if w_out > w_in:
            violations.append({"sample": i, "kind": "width-increase", "w_in": w_in,
                               "w_out": w_out, "pi": [str(x) for x in pi]})
            continue
        try:
            groups = redmod.check_block_shape(A, star)
        except redmod.WrongShape as exc:
            violations.append({"sample": i, "kind": "shape", "error": str(exc),
                               "pi_star": [str(x) for x in star]})
            continue
        if not redmod.check_closure_property(A, M, groups):
            violations.append({"sample": i, "kind": "closure-property",
                               "pi_star": [str(x) for x in star]})
    return _report("reorder", violations, samples, graph=graph, seed=seed, field=field_q)


def check_umbrellas(m_max=6, max_parallel=2, field_q=2) -> dict:
    """Every umbrella's explicit ordering certifies pathwidth <= 1."""
    field = field_from_order(field_q)
    violations = []
    checked = 0
    for m in range(2, m_max + 1):
        for counts in itertools.product(range(max_parallel + 1), repeat=m):
            H = graphmod.make_umbrella(counts)
            pi = graphmod.umbrella_ordering(H)
            M = graphmod.cycle_matroid(H, field)
            w = width_of_ordering(M, pi).width
            checked += 1
            if w > 1:
                violations.append({"m": m, "counts": list(counts), "width": w})
    return _report("umbrella", violations, checked, m_max=m_max, max_parallel=max_parallel)


# ---------------------------------------------------------------------------
# excluded minors


def check_p1q(q=3, n_max=8, samples=500, seed=31) -> dict:
    """The excluded-minor membership test for pathwidth <= 1 agrees with the
    exact solver on seeded random matroids (`minors.pw_le_1_by_minors`),
    and every witness it finds replays."""
    field = field_from_order(q)
    rng = rng_for(seed)
    violations = []
    for i in range(samples):
        n = int(rng.integers(2, n_max + 1))
        M = random_matroid(field, n, rng)
        try:
            # raises if the solver and the minor search disagree
            _, witness = minorsmod.pw_le_1_by_minors(M)
        except RuntimeError as exc:
            violations.append({"sample": i, "error": str(exc), **_matroid_doc(M)})
            continue
        if witness is not None and not minorsmod.replay_certificate(
            M, minorsmod.catalog_entry(witness.pattern_name, field).matroid, witness
        ):
            violations.append({"sample": i, "kind": "certificate-replay",
                               "witness": witness.to_doc(), **_matroid_doc(M)})
    return _report("p1q", violations, samples, q=q, n_max=n_max, seed=seed)


def check_excluded_w2() -> dict:
    """The partial pathwidth-2 catalog entries are genuinely excluded minors."""
    gf2 = field_new(2)
    gf4 = field_new(2, 2)
    cases = [(e.name, e.matroid, 2) for e in minorsmod.excluded_minor_catalog(2, gf2)]
    cases.append(("U36", minorsmod.uniform_matroid(3, 6, gf4), 2))
    violations = []
    for name, M, w in cases:
        report = minorsmod.verify_excluded_minor(M, w)
        if not report.passed:
            violations.append({"entry": name, "report": report.to_doc()})
    return _report("excluded-w2", violations, len(cases))


def check_tw1_codes(samples=300, seed=37, n_max=7, qs=(2, 3)) -> dict:
    """tw <= 1 iff no catalog excluded-minor code minor, on random codes."""
    rng = rng_for(seed)
    violations = []
    for i in range(samples):
        field = field_from_order(int(qs[i % len(qs)]))
        n = int(rng.integers(2, n_max + 1))
        C = random_code(field, n, rng)
        try:
            # raises if the solver and the minor search disagree
            minorsmod.pw_le_1_by_minors(C)
        except RuntimeError as exc:
            violations.append({"sample": i, "error": str(exc),
                               "generator": matrix_to_text(C.generator)})
    return _report("tw1-codes", violations, samples, seed=seed, n_max=n_max, qs=list(qs))


# ---------------------------------------------------------------------------
# registry


THEOREMS = {
    "duality": (check_duality, "pw(M) = pw(M*) on random matroids"),
    "minor-monotone": (check_minor_monotonicity, "minors never increase pathwidth"),
    "direct-sum": (check_direct_sum, "pw of a direct sum is the max of the parts"),
    "caterpillar": (check_caterpillar, "caterpillar width equals ordering width"),
    "reduction": (check_reduction, "pw(M(apex graph)) = pw(G) + 1"),
    "decomp": (check_decomp_to_ordering, "decompositions induce width <= pw(G)+1 orderings"),
    "reorder": (check_reorder, "re-ordering never increases width and shapes blocks"),
    "umbrella": (check_umbrellas, "umbrella matroids have pathwidth <= 1"),
    "p1q": (check_p1q, "excluded-minor test matches exact pathwidth <= 1"),
    "excluded-w2": (check_excluded_w2, "pathwidth-2 catalog entries are excluded minors"),
    "tw1-codes": (check_tw1_codes, "trellis-width <= 1 matches the code-minor test"),
}
