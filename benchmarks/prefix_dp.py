"""Timings and memory of the exact pathwidth DP, on apex matroids and alone.

    python3 benchmarks/prefix_dp.py --src before=../parent/src --src after=src --out BENCH.json

Each --src LABEL=DIR names a source tree of the package.  Every input
below is measured for every tree in its own interpreter, with DIR first
on sys.path; the trees take turns input by input, so that every side sees
about the same machine state.  Inputs:

- "apex": `pathwidth_exact` on the apex matroid over GF(2) (as
  `reduction.reduce_instance` builds it) of P6 (22 elements), K23 (22) and
  C6 (24); a fresh matroid for each run, so the rank table is built every
  time;
- "dp": `prefix_dp` alone on seeded random uint8 costs below 13 over the
  2^n subsets of n = 20, 22 and 24 elements, every element its own class.

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
APEX = ("P6", "K23", "C6")
DP_SIZES = (20, 22, 24)


def _apex_matroid(name: str):
    """A function building a fresh apex matroid of the named graph."""
    from matwidth.algebra import field_from_order
    from matwidth.graph import complete_bipartite, cycle_graph, path_graph
    from matwidth.reduction import add_apex, apex_matroid, simplify_double

    G = {"P6": lambda: path_graph(6), "K23": lambda: complete_bipartite(2, 3),
         "C6": lambda: cycle_graph(6)}[name]()
    A, field = add_apex(simplify_double(G)), field_from_order(2)
    return lambda: apex_matroid(A, field)


def _runner(group: str, arg: str):
    """A no-argument function that runs the input once and returns its
    answer, with any set-up done before it is returned."""
    if group == "apex":
        from matwidth.pathwidth import pathwidth_exact

        build = _apex_matroid(arg)

        def run():
            M = build()
            start = time.perf_counter()
            cert = pathwidth_exact(M)
            return time.perf_counter() - start, [cert.width, list(cert.ordering)]

        return run
    import numpy as np

    from matwidth.pathwidth import prefix_dp

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
    for group, inputs in (("apex", APEX), ("dp", [str(n) for n in DP_SIZES])):
        for arg in inputs:
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
