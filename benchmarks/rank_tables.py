"""Per-field timings of the rank table, as the commands build it.

    python3 benchmarks/rank_tables.py --src before=../parent/src --src after=src --out BENCH.json

`VectorMatroid.rank_table()` of every tree is measured on every input
below by the shared child harness
(`harness.py`: five fresh interpreters per tree and input, the trees
alternating A B B A ..., each giving its best of 3 runs after a warm-up
and the tracemalloc peak of one more; the file keeps every child's best
and their median and quartiles).  One run
builds the table of a fresh matroid max(1, 2^16 / 2^n) times and reports
the mean, so that tables of a few hundred entries are timed over
milliseconds.  Inputs, each a seeded [n, k] code over GF(q):

- "grid": k = n/2 over GF(2), GF(3), GF(4), GF(5), GF(16), GF(17) and
  GF(2^8), at n = 16, 20 and 24;
- "crossover": codes with q^m near 4 * 2^n, m = min(k, n - k), the shapes
  on both sides of the rule that once chose between counting codewords
  and sweeping;
- "small": the shapes of the minor search's tables, 6 to 10 elements over
  GF(2), GF(3) and GF(4), and [8, 2] over GF(2^8), the smallest byte-field
  table;
- "low-rank": [20, 4] codes, whose q^4 codewords were cheap to count;
- "tw-codes": the byte-field shapes of mwbench's tw-codes workload, [15, 7]
  and [15, 8] over GF(5), [16, 6] over GF(16) and [16, 8] over GF(17), and
  [16, 8] over GF(9), whose sum is neither an XOR nor an integer sum mod p,
  and over GF(127) and GF(131), the primes on either side of the rule
  that sums in uint8 below 128 and through the add table from there.

The answer is the sum of the table, which must agree between trees.
"""

from __future__ import annotations

import sys
import time

import harness

GRID = [(q, n, n // 2) for n in (16, 20, 24) for q in (2, 3, 4, 5, 16, 17, 256)]
CROSSOVER = [
    (256, 14, 2), (256, 15, 2), (64, 10, 2), (64, 11, 2), (16, 14, 4), (16, 13, 4),
    (8, 16, 6), (8, 14, 6), (5, 15, 7), (5, 13, 7), (17, 14, 4), (17, 16, 4),
]
SMALL = [(3, 8, 4), (3, 9, 5), (3, 9, 8), (3, 10, 5), (3, 10, 6), (4, 6, 3), (4, 7, 3), (4, 10, 4),
         (4, 10, 6), (2, 8, 4), (2, 10, 5), (256, 8, 2)]
LOW_RANK = [(q, 20, 4) for q in (3, 4, 5, 16)]
TW_CODES = [(5, 15, 7), (5, 15, 8), (16, 16, 6), (17, 16, 8), (9, 16, 8), (127, 16, 8), (131, 16, 8)]


def runner(q: str, n: str, k: str):
    """The rank table of the seeded [n, k] code over GF(q)."""
    import numpy as np

    from matwidth.algebra import GfMatrix, field_from_order
    from matwidth.matroid import VectorMatroid

    q, n, k = int(q), int(n), int(k)
    field = field_from_order(q)
    rng = np.random.default_rng([q, n, k])
    while True:
        rows = rng.integers(0, q, (k, n)).tolist()
        M = VectorMatroid(GfMatrix(field, rows, cols=n))
        if M.rank_full == k:
            break
    builds = max(1, (1 << 16) >> n)

    def run():
        start = time.perf_counter()
        for _ in range(builds):
            M._rank_table = None
            table = M.rank_table()
        return (time.perf_counter() - start) / builds, int(table.sum(dtype=np.int64))

    return run


CASES = [({"group": group, "q": q, "n": n, "k": k}, (q, n, k))
         for group, inputs in (("grid", GRID), ("crossover", CROSSOVER), ("small", SMALL),
                               ("low-rank", LOW_RANK), ("tw-codes", TW_CODES))
         for q, n, k in inputs]

if __name__ == "__main__":
    sys.exit(harness.main(__file__, __doc__, runner, CASES))
