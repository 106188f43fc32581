"""Per-field timings of the two rank-table backends.

    python3 benchmarks/rank_tables.py --src before=../parent/src --src after=src --out BENCH.json

Each --src LABEL=DIR names a source tree of the package.  For every input
below, both backends (`VectorMatroid._count_rank_table` and
`_sweep_rank_table`) of every tree are timed best of 3, each in its own
interpreter with DIR first on sys.path; the trees take turns input by
input, so that every side sees about the same machine state.  Inputs:

- "grid": a seeded [n, n/2] code over GF(2), GF(3), GF(4), GF(5), GF(16),
  GF(17) and GF(2^8), at n = 16 and 20;
- "crossover": seeded codes with q^m near COUNT_RATIO * 2^n = 4 * 2^n,
  m = min(k, n - k), on both sides of the rule that picks the backend.

A timing is skipped, and recorded with the reason, when counting would
enumerate more than WORD_CAP words (q^m) or when the first of the three
runs takes longer than TIME_CAP seconds (an interval timer interrupts it;
an interpreter still running after 4 * TIME_CAP is stopped).  The JSON
written to --out holds, per input and backend, each tree's best and all
run times (or its skip reason) and the sum of the table, which must agree
between trees, and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

WORD_CAP = 1 << 26
TIME_CAP = 30.0
REPEATS = 3
GRID = [(q, n, n // 2) for n in (16, 20) for q in (2, 3, 4, 5, 16, 17, 256)]
CROSSOVER = [
    (256, 14, 2), (256, 15, 2), (64, 10, 2), (64, 11, 2), (16, 14, 4), (16, 13, 4),
    (8, 16, 6), (8, 14, 6), (5, 15, 7), (5, 13, 7), (17, 14, 4), (17, 16, 4),
]


def time_one(q: int, n: int, k: int, backend: str) -> dict:
    """Best-of-REPEATS seconds of one backend on the seeded [n, k] code over
    GF(q), in this interpreter (matwidth imported from sys.path)."""
    import numpy as np

    from matwidth.algebra import GfMatrix, field_from_order
    from matwidth.matroid import VectorMatroid

    field = field_from_order(q)
    rng = np.random.default_rng([q, n, k])
    while True:
        rows = rng.integers(0, q, (k, n)).tolist()
        M = VectorMatroid(GfMatrix(field, rows, cols=n))
        if M.rank_full == k:
            break
    build = getattr(M, f"_{backend}_rank_table")
    runs = []
    signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, TIME_CAP)
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            table = build()
            runs.append(time.perf_counter() - start)
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Overtime:
        return {"skipped": f"first run > {TIME_CAP:.0f} s"}
    return {"best_s": min(runs), "runs": runs, "table_sum": int(table.sum(dtype=np.int64))}


class Overtime(Exception):
    """The first run passed TIME_CAP."""


def _overtime(signum, frame):
    raise Overtime


def measure(src: str, q: int, n: int, k: int, backend: str) -> dict:
    if backend == "count" and q ** min(k, n - k) > WORD_CAP:
        return {"skipped": f"q^m = {q}^{min(k, n - k)} > {WORD_CAP} words"}
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, __file__, "--one", str(q), str(n), str(k), backend]
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=4 * TIME_CAP, check=True)
    except subprocess.TimeoutExpired:
        return {"skipped": f"stopped after {4 * TIME_CAP:.0f} s"}
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", default=[], metavar="LABEL=DIR")
    ap.add_argument("--out")
    ap.add_argument("--one", nargs=4, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        q, n, k, backend = args.one
        print(json.dumps(time_one(int(q), int(n), int(k), backend)))
        return 0
    if not args.src or not args.out:
        ap.error("--src and --out are required")
    trees = dict(s.split("=", 1) for s in args.src)
    results = []
    for group, inputs in (("grid", GRID), ("crossover", CROSSOVER)):
        for q, n, k in inputs:
            for backend in ("count", "sweep"):
                row = {"group": group, "q": q, "n": n, "k": k, "backend": backend}
                for label, src in trees.items():
                    row[label] = measure(src, q, n, k, backend)
                print(json.dumps(row), flush=True)
                results.append(row)
    doc = {
        "script": "benchmarks/rank_tables.py",
        "trees": list(trees),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "word_cap": WORD_CAP,
        "time_cap_s": TIME_CAP,
        "repeats": REPEATS,
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
