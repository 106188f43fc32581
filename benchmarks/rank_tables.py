"""Per-field timings of the two rank-table backends.

    python3 benchmarks/rank_tables.py --src before=../parent/src --src after=src --out BENCH.json

Both backends (`VectorMatroid._count_rank_table` and `_sweep_rank_table`)
of every tree are measured on every input below by the shared child
harness (`harness.py`: best of 3 runs in a fresh interpreter per tree and
input, the trees taking turns).  Inputs:

- "grid": a seeded [n, n/2] code over GF(2), GF(3), GF(4), GF(5), GF(16),
  GF(17) and GF(2^8), at n = 16, 20 and 24;
- "crossover": seeded codes with q^m near COUNT_RATIO * 2^n = 4 * 2^n,
  m = min(k, n - k), on both sides of the rule that picks the backend.

Counting is skipped, and recorded with the reason, when it would
enumerate more than WORD_CAP words (q^m).  The answer is the sum of the
table, which must agree between trees.
"""

from __future__ import annotations

import sys
import time

import harness

WORD_CAP = 1 << 26
GRID = [(q, n, n // 2) for n in (16, 20, 24) for q in (2, 3, 4, 5, 16, 17, 256)]
CROSSOVER = [
    (256, 14, 2), (256, 15, 2), (64, 10, 2), (64, 11, 2), (16, 14, 4), (16, 13, 4),
    (8, 16, 6), (8, 14, 6), (5, 15, 7), (5, 13, 7), (17, 14, 4), (17, 16, 4),
]


def runner(q: str, n: str, k: str, backend: str):
    """One backend on the seeded [n, k] code over GF(q)."""
    import numpy as np

    from matwidth.algebra import GfMatrix, field_from_order
    from matwidth.matroid import VectorMatroid

    q, n, k = int(q), int(n), int(k)
    if backend == "count" and q ** min(k, n - k) > WORD_CAP:
        return f"q^m = {q}^{min(k, n - k)} > {WORD_CAP} words"
    field = field_from_order(q)
    rng = np.random.default_rng([q, n, k])
    while True:
        rows = rng.integers(0, q, (k, n)).tolist()
        M = VectorMatroid(GfMatrix(field, rows, cols=n))
        if M.rank_full == k:
            break
    build = getattr(M, f"_{backend}_rank_table")

    def run():
        start = time.perf_counter()
        table = build()
        return time.perf_counter() - start, int(table.sum(dtype=np.int64))

    return run


CASES = [({"group": group, "q": q, "n": n, "k": k, "backend": backend}, (q, n, k, backend))
         for group, inputs in (("grid", GRID), ("crossover", CROSSOVER))
         for q, n, k in inputs for backend in ("count", "sweep")]

if __name__ == "__main__":
    sys.exit(harness.main(__file__, __doc__, runner, CASES))
