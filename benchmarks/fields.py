"""Build times and contents of every field GF(q), q <= 256, between trees.

    python3 benchmarks/fields.py --src before=../parent/src --src after=src --out BENCH.json

One case per prime power q <= 256 (70 of them), measured for every tree by
the shared child harness
(`harness.py`: five fresh interpreters per tree and field, the trees
alternating A B B A ..., each giving its best of 3 runs after a warm-up
and the tracemalloc peak of one more; the file keeps every child's best
and their median and quartiles).  One run
builds GF(q) afresh (the field cache cleared) max(1, 2^16 / q^2)
times and reports the mean, so that the small fields are timed over
milliseconds.  The answer is the sha256 of the reduction polynomial, the
four tuple tables, the four uint8 arrays and pow(a, e) for every a and
e in (-1, 0, 1, 2, 5, q - 1, q), so `answers_agree` holds exactly when both
trees build the same field.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import harness

ORDERS = [q for q in range(2, 257)
          if len({p for p in range(2, q + 1) if q % p == 0 and all(p % d for d in range(2, p))}) == 1]


def runner(q: str):
    """GF(q), built afresh (module docstring)."""
    from matwidth import algebra

    q = int(q)
    builds = max(1, (1 << 16) // (q * q))
    # older trees cache field_new itself
    clear_cache = getattr(algebra, "_field_spec", algebra.field_new).cache_clear

    def run():
        start = time.perf_counter()
        for _ in range(builds):
            clear_cache()
            f = algebra.field_from_order(q)
        secs = (time.perf_counter() - start) / builds
        pows = [[f.pow(a, e) for a in range(q)] for e in (-1, 0, 1, 2, 5, q - 1, q)]
        blob = json.dumps([f.reduction_poly, f.add_table, f.neg_table, f.mul_table, f.inv_table,
                           *(t.tolist() for t in (f.add_array, f.neg_array, f.mul_array, f.inv_array)),
                           pows])
        return secs, hashlib.sha256(blob.encode()).hexdigest()

    return run


CASES = [({"q": q}, (q,)) for q in ORDERS]

if __name__ == "__main__":
    sys.exit(harness.main(__file__, __doc__, runner, CASES))
