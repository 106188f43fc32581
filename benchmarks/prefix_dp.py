"""Timings and memory of the exact pathwidth DP, on apex matroids and alone.

    python3 benchmarks/prefix_dp.py --src before=../parent/src --src after=src --out BENCH.json

Each --src LABEL=DIR names a source tree of the package.  Every input
below is measured for every tree in its own interpreter, with DIR first
on sys.path; the trees take turns input by input, so that every side sees
about the same machine state.  Inputs:

- "apex": `pathwidth_exact` on the apex matroid over GF(2) (as
  `reduction.reduce_instance` builds it) of P6 (22 elements), K23 (22),
  C6 (24), K4 (20) and K5 (30, under an exact cap of 30); a fresh matroid
  for each run, so the rank table is built every time.  K4 and K5 are
  the dense ones: every state has lambda <= w*, and the largest layer
  minimum of lambda is w* - 1, so the DP's first pass fails;
- "dp": `prefix_dp` alone on seeded random uint8 costs below 13 over the
  2^n subsets of n = 20, 22 and 24 elements, every element its own class;
- "lam": `prefix_dp` alone on the lambda table of a simple code, ties by
  coordinate: "gf2-17-8", the random GF(2) [17,8] code of the tw-codes
  benchmark workload (drawn from random.Random("tw-codes-q2"), few states
  within w*), and "mds17-16-8", the [16,8] MDS code over GF(17) (every
  state within w* = 8 of lambda);
- "golay": `pathwidth_exact` on the extended Golay [24,12,8] code, a
  fresh matroid for each run.

Per input and tree the JSON written to --out holds the best and all of
REPEATS wall times, the child's peak RSS (`ru_maxrss`, which includes the
interpreter and numpy), the tracemalloc peak of one further run (taken
apart from the timed runs, which it would slow), and the answer (width and
ordering), which must agree between trees; and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import tracemalloc

REPEATS = 3
APEX = ("P6", "K23", "C6", "K4", "K5")
DP_SIZES = (20, 22, 24)
LAMBDA_TABLES = ("gf2-17-8", "mds17-16-8")
APEX_CAP = 30  # K5's apex matroid has 30 elements, on 3^15 class-count states


def _apex_matroid(name: str):
    """A function building a fresh apex matroid of the named graph."""
    from matwidth.algebra import field_from_order
    from matwidth.graph import complete_bipartite, complete_graph, cycle_graph, path_graph
    from matwidth.reduction import add_apex, apex_matroid, simplify_double

    G = {"P6": lambda: path_graph(6), "K23": lambda: complete_bipartite(2, 3),
         "C6": lambda: cycle_graph(6), "K4": lambda: complete_graph(4),
         "K5": lambda: complete_graph(5)}[name]()
    A, field = add_apex(simplify_double(G)), field_from_order(2)
    return lambda: apex_matroid(A, field)


def _code_matroid(name: str):
    """The matroid of the named simple code (module docstring)."""
    import random

    from matwidth.algebra import GfMatrix, field_from_order
    from matwidth.codes import LinearCode, code_matroid, mds_code

    if name == "mds17-16-8":
        return code_matroid(mds_code(16, 8, field_from_order(17)))
    if name == "golay":
        g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
        rows = [[0] * s + g + [0] * (11 - s) for s in range(12)]
        rows = [row + [sum(row) % 2] for row in rows]
        return code_matroid(LinearCode(GfMatrix(field_from_order(2), rows, cols=24)))
    # the tw-codes workload's draw: redrawn until full rank, no zero or
    # repeated column
    rng, field = random.Random("tw-codes-q2"), field_from_order(2)
    while True:
        rows = [[rng.randrange(2) for _ in range(17)] for _ in range(8)]
        cols = {tuple(col) for col in zip(*rows)}
        if len(cols) < 17 or (0,) * 8 in cols:
            continue
        M = code_matroid(LinearCode(GfMatrix(field, rows, cols=17)))
        if M.rank_full == 8:
            return M


def _runner(group: str, arg: str):
    """A no-argument function that runs the input once and returns its
    answer, with any set-up done before it is returned."""
    if group in ("apex", "golay"):
        from matwidth.pathwidth import pathwidth_exact

        build = _apex_matroid(arg) if group == "apex" else lambda: _code_matroid(arg)

        def run():
            M = build()
            start = time.perf_counter()
            cert = pathwidth_exact(M, APEX_CAP)
            return time.perf_counter() - start, [cert.width, list(cert.ordering)]

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


def measure_here(group: str, arg: str) -> dict:
    run = _runner(group, arg)
    runs = []
    for _ in range(REPEATS):
        secs, answer = run()
        runs.append(secs)
    tracemalloc.start()
    run()
    traced = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"best_s": min(runs), "runs": runs, "peak_rss_mb": rss_kb / 1024,
            "tracemalloc_mb": traced / 1e6, "answer": answer}


def measure(src: str, group: str, arg: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, __file__, "--one", group, arg]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", default=[], metavar="LABEL=DIR")
    ap.add_argument("--out")
    ap.add_argument("--one", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(measure_here(*args.one)))
        return 0
    if not args.src or not args.out:
        ap.error("--src and --out are required")
    trees = dict(s.split("=", 1) for s in args.src)
    results = []
    inputs_of = {"apex": APEX, "dp": [str(n) for n in DP_SIZES], "lam": LAMBDA_TABLES,
                 "golay": ["golay"]}
    for group in inputs_of:
        for arg in inputs_of[group]:
            row = {"group": group, "input": arg}
            for label, src in trees.items():
                row[label] = measure(src, group, arg)
            answers = {json.dumps(row[label]["answer"]) for label in trees}
            row["answers_agree"] = len(answers) == 1
            print(json.dumps(row)[:400], flush=True)
            results.append(row)
    doc = {
        "script": "benchmarks/prefix_dp.py",
        "trees": list(trees),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "repeats": REPEATS,
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
