"""Timings and memory of the exact pathwidth DP, on apex matroids and alone.

    python3 benchmarks/prefix_dp.py --src before=../parent/src --src after=src --out BENCH.json

Every input below is measured for every tree by the shared child harness
(`harness.py`: five fresh interpreters per tree and input, the trees
alternating A B B A ..., each giving its best of 3 runs after a warm-up
and the tracemalloc peak of one more; the file keeps every child's best
and their median and quartiles).  Inputs:

- "apex": `pathwidth_exact` on the apex matroid over GF(2) (as
  `reduction.reduce_instance` builds it) of P6 (22 elements), K23 (22),
  C6 (24), K4 (20) and K5 (30); a fresh matroid for each run, so the
  rank table is built every time.  K4 and K5 are the dense ones: every
  state has lambda <= w*, and the largest layer minimum of lambda is
  w* - 1, so the DP's first pass fails;
- "dp": `prefix_dp` alone on seeded random uint8 costs below 13 over the
  2^n subsets of n = 20, 22 and 24 elements, every element its own class;
- "lam": `prefix_dp` alone on the lambda table of a simple code, ties by
  coordinate: "gf2-17-8", the random GF(2) [17,8] code of the tw-codes
  benchmark workload (drawn from random.Random("tw-codes-q2"), few states
  within w*), and "mds17-16-8", the [16,8] MDS code over GF(17) (every
  state within w* = 8 of lambda);
- "golay": `pathwidth_exact` on the extended Golay [24,12,8] code, a
  fresh matroid for each run;
- "graph": `graph_pathwidth` on the seeded graph of n = 16, 20 and 22
  vertices and 2n edges (`verify.random_graph` drawn from
  `verify.rng_for(n)`): the vertex-boundary costs and the same DP;
- "reduce": `cli.main(["reduce", G, "--verify"])` end to end, output
  silenced, on the graph files of P6, K23, C6, C7, K4 and K5: parsing,
  the reduction, graph pathwidth and the matroid's exact pathwidth.

The answer (width and ordering; for "reduce" the exit code and the
"verify" block) must agree between trees.
"""

from __future__ import annotations

import sys
import time

import harness

APEX = ("P6", "K23", "C6", "K4", "K5")
REDUCE = ("P6", "K23", "C6", "C7", "K4", "K5")
DP_SIZES = (20, 22, 24)
LAMBDA_TABLES = ("gf2-17-8", "mds17-16-8")
GRAPH_SIZES = (16, 20, 22)


def _graph(name: str):
    """The named graph."""
    from matwidth.graph import complete_bipartite, complete_graph, cycle_graph, path_graph

    return {"P6": lambda: path_graph(6), "K23": lambda: complete_bipartite(2, 3),
            "C6": lambda: cycle_graph(6), "C7": lambda: cycle_graph(7), "K4": lambda: complete_graph(4),
            "K5": lambda: complete_graph(5)}[name]()


def _apex_matroid(name: str):
    """A function building a fresh apex matroid of the named graph."""
    from matwidth.algebra import field_from_order
    from matwidth.reduction import add_apex, apex_matroid, simplify_double

    A, field = add_apex(simplify_double(_graph(name))), field_from_order(2)
    return lambda: apex_matroid(A, field)


def _code_matroid(name: str):
    """The matroid of the named simple code (module docstring)."""
    import random

    from matwidth.algebra import GfMatrix, field_from_order
    from matwidth.codes import LinearCode, mds_code

    if name == "mds17-16-8":
        return mds_code(16, 8, field_from_order(17))
    if name == "golay":
        g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
        rows = [[0] * s + g + [0] * (11 - s) for s in range(12)]
        rows = [row + [sum(row) % 2] for row in rows]
        return LinearCode(GfMatrix(field_from_order(2), rows, cols=24))
    # the tw-codes workload's draw: redrawn until full rank, no zero or
    # repeated column
    rng, field = random.Random("tw-codes-q2"), field_from_order(2)
    while True:
        rows = [[rng.randrange(2) for _ in range(17)] for _ in range(8)]
        cols = {tuple(col) for col in zip(*rows)}
        if len(cols) < 17 or (0,) * 8 in cols:
            continue
        M = LinearCode(GfMatrix(field, rows, cols=17))
        if M.rank_full == 8:
            return M


def runner(group: str, arg: str):
    """One input of the named group (module docstring)."""
    if group in ("apex", "golay"):
        from matwidth.pathwidth import pathwidth_exact

        build = _apex_matroid(arg) if group == "apex" else lambda: _code_matroid(arg)

        def run():
            M = build()
            start = time.perf_counter()
            cert = pathwidth_exact(M)
            return time.perf_counter() - start, [cert.width, list(cert.ordering)]

        return run
    if group == "reduce":
        import atexit
        import contextlib
        import io
        import json
        import os
        import tempfile

        from matwidth import cli
        from matwidth.graph import graph_to_text

        fd, path = tempfile.mkstemp(suffix=".graph")
        with os.fdopen(fd, "w") as fh:
            fh.write(graph_to_text(_graph(arg)))
        atexit.register(os.unlink, path)

        def run():
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["reduce", path, "--verify"])
            return time.perf_counter() - start, [code, json.loads(out.getvalue())["verify"]]

        return run
    if group == "graph":
        from matwidth.graph import graph_pathwidth
        from matwidth.verify import random_graph, rng_for

        n = int(arg)
        G = random_graph(n, 2 * n, rng_for(n))

        def run():
            start = time.perf_counter()
            width, decomp = graph_pathwidth(G)
            return time.perf_counter() - start, [width, [sorted(bag) for bag in decomp.bags]]

        return run
    import numpy as np

    from matwidth.pathwidth import prefix_dp

    if group == "lam":
        M = _code_matroid(arg)
        ranks = M.rank_table().astype(np.int16)
        cost = (ranks + ranks[::-1] - M.rank_full).astype(np.uint8)
        n = M.size
    else:
        n = int(arg)
        cost = np.random.default_rng(n).integers(0, 13, 1 << n).astype(np.uint8)

    def run():
        start = time.perf_counter()
        width, order = prefix_dp(cost, n, lambda e: e)
        return time.perf_counter() - start, [width, order]

    return run


INPUTS = {"apex": APEX, "reduce": REDUCE, "dp": [str(n) for n in DP_SIZES], "lam": LAMBDA_TABLES, "golay": ["golay"],
          "graph": [str(n) for n in GRAPH_SIZES]}
CASES = [({"group": group, "input": arg}, (group, arg)) for group in INPUTS for arg in INPUTS[group]]

if __name__ == "__main__":
    sys.exit(harness.main(__file__, __doc__, runner, CASES))
