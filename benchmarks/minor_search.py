"""Timings and memory of the minor search and the excluded-minor check.

    python3 benchmarks/minor_search.py --src before=../parent/src --src after=src --out BENCH.json

Every case below is measured for every tree by the shared child harness
(`harness.py`: five fresh interpreters per tree and case, the trees
alternating A B B A ..., each giving its best of 3 runs after a warm-up
and the tracemalloc peak of one more; the file keeps every child's best
and their median and quartiles).  Cases:

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
  GF(4); host and pattern tables are built before the clock starts;
- "replay": `replay_certificate` on the seven certificates that
  `minor_contains` finds among the "minor" cases (the present answers of
  the `check-minor` queries), each found before the clock starts;
- "tw1": `pw_le_1_by_minors` on the eight codes of mwbench's `check-tw1`
  queries (GF(2) and GF(3), two each, at workload seeds 1 and 2), made by
  the workload's own code (`mwbench/workloads.py`, imported and never
  written to) and read as the command reads them; a fresh copy of the
  code for each run, so its rank table is built every time.

The answer (certificate or report) must agree between trees.
"""

from __future__ import annotations

import atexit
import shutil
import sys
import tempfile
import time
from pathlib import Path

import harness
import numpy as np

HOSTS = ("W5", "K33", "fan5", "K25", "C9")
PATTERNS = ("U24", "MK4", "MK23", "MK23*")
EXCLUDED = ("F7", "F7*", "MK5", "MK5*", "MK33", "MK33*", "U36")
UMBRELLA = (2, 2, 2, 1)
ISO_PAIRS = ("K25:MK5*", "MK5*:K25")
# the (host, pattern) pairs of the "minor" cases whose answer is a certificate
PRESENT = ("W5:MK4", "W5:MK23", "W5:MK23*", "K33:MK4", "K33:MK23", "K33:MK23*", "K25:MK23")
TW1_CODES = tuple(f"{seed}:{q}:{i}" for seed in (1, 2) for q in (2, 3) for i in (1, 2))
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


def _tw1_code(arg: str):
    """The code of the `check-tw1` query "seed:q:i" of mwbench's
    minor-search workload, read from the file the workload writes."""
    import matwidth
    from matwidth.codes import code_from_text

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "mwbench"))
    import workloads

    seed, q, i = arg.split(":")
    work = tempfile.mkdtemp()
    atexit.register(shutil.rmtree, work, True)
    wl = workloads.WORKLOADS["minor-search"](int(seed), Path(work))
    wl.prepare(matwidth)
    op = next(op for op in wl.ops if op.name == f"tw1-q{q}-{i}")
    return code_from_text(Path(op.argv[-1]).read_text())


def runner(group: str, arg: str):
    """One case of the named group (module docstring)."""
    from matwidth.algebra import field_from_order
    from matwidth.codes import LinearCode
    from matwidth.graph import cycle_matroid, make_umbrella
    from matwidth.matroid import VectorMatroid, table_isomorphism
    from matwidth.minors import (
        catalog_entry,
        catalog_minor_witness,
        minor_contains,
        pw_le_1_by_minors,
        replay_certificate,
        verify_excluded_minor,
    )

    if group == "tw1":
        code = _tw1_code(arg)

        def run():
            C = LinearCode(code.matrix, code.labels)
            start = time.perf_counter()
            ok, witness = pw_le_1_by_minors(C)
            return time.perf_counter() - start, [ok, None if witness is None else witness.to_doc()]

        return run
    if group in ("minor", "iso-hosts", "replay"):
        if group == "iso-hosts":
            q, seed, pattern_name = arg.split(":")
            field = field_from_order(int(q))
            host = _seeded_host(field, int(seed))
        else:
            field = field_from_order(3)
            host_name, pattern_name = arg.split(":")
            host = cycle_matroid(_host_graph(host_name), field)
        pattern = catalog_entry(pattern_name, field).matroid
        host.rank_table()
        pattern.rank_table()
        if group == "replay":
            cert = minor_contains(host, pattern)

            def run():
                start = time.perf_counter()
                ok = replay_certificate(host, pattern, cert)
                return time.perf_counter() - start, ok

            return run

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
            for seed in HOST_SEEDS for name in names]
         + [("replay", pair) for pair in PRESENT]
         + [("tw1", code) for code in TW1_CODES]]

if __name__ == "__main__":
    sys.exit(harness.main(__file__, __doc__, runner, CASES))
