"""Timings and memory of the minor search and the excluded-minor check.

    python3 benchmarks/minor_search.py --src before=../parent/src --src after=src --out BENCH.json

Every case below is measured for every tree by the shared child harness
(`harness.py`: best of 3 runs after a warm-up and the tracemalloc peak of
one more, in a fresh interpreter per tree and case, the trees taking
turns).  Cases:

- "minor": `minor_contains` on the GF(3) cycle matroids of the 5-spoke
  wheel, K33, the 5-fan, K25 and C9 (the hosts of the `check-minor`
  queries of mwbench's minor-search workload), each against U24, MK4,
  MK23 and MK23*; host and pattern tables are built before the clock
  starts;
- "excluded": `verify_excluded_minor(M, 2)` on each of the seven w <= 2
  catalog entries over GF(4), a fresh copy of the matroid for each run,
  so its rank table is built every time;
- "host12": `catalog_minor_witness(M, 1)` over GF(3) on the cycle matroid
  of the umbrella with parallel counts 2, 2, 2, 1 (12 elements, pathwidth
  1, so each of the four searches runs to the end), a fresh matroid for
  each run;
- "iso": `table_isomorphism` on the GF(3) cycle matroid of K25 and the
  MK5* catalog entry (10 elements each, equal on the 1-, 2- and 3-element
  rank profiles and the small-circuit counts of each element, not
  isomorphic), in both argument orders; both tables are built before the
  clock starts;
- "iso-hosts": `minor_contains` on seeded 12-element hosts (a uniformly
  random 6 x 12 matrix over the field from `numpy.random.default_rng(seed)`,
  seeds 1, 2, 3) against every w <= 2 catalog entry over GF(3) and over
  GF(4); host and pattern tables are built before the clock starts.

The answer (certificate or report) must agree between trees.
"""

from __future__ import annotations

import sys
import time

import harness
import numpy as np

HOSTS = ("W5", "K33", "fan5", "K25", "C9")
PATTERNS = ("U24", "MK4", "MK23", "MK23*")
EXCLUDED = ("F7", "F7*", "MK5", "MK5*", "MK33", "MK33*", "U36")
UMBRELLA = (2, 2, 2, 1)
ISO_PAIRS = ("K25:MK5*", "MK5*:K25")
HOST_SEEDS = (1, 2, 3)
HOST_SHAPE = (6, 12)
# the w <= 2 catalog over GF(3) lacks F7, F7* (characteristic 2) and U36 (q >= 4)
CATALOG_W2 = {3: ("MK5", "MK5*", "MK33", "MK33*"), 4: EXCLUDED}


def _host_graph(name: str):
    from matwidth.graph import complete_bipartite, cycle_graph, mk_graph

    return {
        "W5": lambda: mk_graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)]),
        "K33": lambda: complete_bipartite(3, 3),
        "fan5": lambda: mk_graph(6, [(i, i + 1) for i in range(4)] + [(5, i) for i in range(5)]),
        "K25": lambda: complete_bipartite(2, 5),
        "C9": lambda: cycle_graph(9),
    }[name]()


def _seeded_host(field, seed: int):
    from matwidth.algebra import GfMatrix
    from matwidth.matroid import VectorMatroid

    entries = np.random.default_rng(seed).integers(0, field.q, HOST_SHAPE).tolist()
    return VectorMatroid(GfMatrix(field, entries, cols=HOST_SHAPE[1]))


def runner(group: str, arg: str):
    """One case of the named group (module docstring)."""
    from matwidth.algebra import field_from_order
    from matwidth.graph import cycle_matroid, make_umbrella
    from matwidth.matroid import VectorMatroid, table_isomorphism
    from matwidth.minors import catalog_entry, catalog_minor_witness, minor_contains, verify_excluded_minor

    if group in ("minor", "iso-hosts"):
        if group == "minor":
            field = field_from_order(3)
            host_name, pattern_name = arg.split(":")
            host = cycle_matroid(_host_graph(host_name), field)
        else:
            q, seed, pattern_name = arg.split(":")
            field = field_from_order(int(q))
            host = _seeded_host(field, int(seed))
        pattern = catalog_entry(pattern_name, field).matroid
        host.rank_table()
        pattern.rank_table()

        def run():
            start = time.perf_counter()
            cert = minor_contains(host, pattern)
            return time.perf_counter() - start, None if cert is None else cert.to_doc()

        return run
    if group == "excluded":
        entry = catalog_entry(arg, field_from_order(4))

        def run():
            M = VectorMatroid(entry.matroid.matrix, entry.matroid.labels)
            start = time.perf_counter()
            report = verify_excluded_minor(M, 2)
            return time.perf_counter() - start, report.to_doc()

        return run
    if group == "iso":
        field = field_from_order(3)
        M, N = (cycle_matroid(_host_graph(name), field) if name in HOSTS else catalog_entry(name, field).matroid
                for name in arg.split(":"))
        tables = (M.rank_table(), M.labels, N.rank_table(), N.labels)

        def run():
            start = time.perf_counter()
            bij = table_isomorphism(*tables)
            return time.perf_counter() - start, None if bij is None else sorted(map(str, bij.items()))

        return run
    field = field_from_order(3)
    catalog_entry("U24", field)  # builds the w = 1 catalog before the clock starts
    graph = make_umbrella(UMBRELLA)

    def run():
        M = cycle_matroid(graph, field)
        start = time.perf_counter()
        cert = catalog_minor_witness(M, 1)
        return time.perf_counter() - start, None if cert is None else cert.to_doc()

    return run


CASES = [({"group": group, "input": arg}, (group, arg)) for group, arg in
         [("minor", f"{h}:{p}") for h in HOSTS for p in PATTERNS]
         + [("excluded", name) for name in EXCLUDED]
         + [("host12", "umbrella-" + "-".join(map(str, UMBRELLA)))]
         + [("iso", pair) for pair in ISO_PAIRS]
         + [("iso-hosts", f"{q}:{seed}:{name}") for q, names in CATALOG_W2.items()
            for seed in HOST_SEEDS for name in names]]

if __name__ == "__main__":
    sys.exit(harness.main(__file__, __doc__, runner, CASES))
