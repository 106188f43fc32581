"""Timings and memory of the minor search and the excluded-minor check.

    python3 benchmarks/minor_search.py --src before=../parent/src --src after=src --out BENCH.json

Each --src LABEL=DIR names a source tree of the package.  Every case below
is measured for every tree in its own interpreter, with DIR first on
sys.path; the trees take turns case by case, so that every side sees
about the same machine state.  Cases:

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
  each run.

Per case and tree the JSON written to --out holds the best and all of
REPEATS wall times, the child's peak RSS (`ru_maxrss`, which includes the
interpreter and numpy), the tracemalloc peak of one further run (taken
apart from the timed runs, which it would slow), and the answer, which
must agree between trees; and the machine.
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
HOSTS = ("W5", "K33", "fan5", "K25", "C9")
PATTERNS = ("U24", "MK4", "MK23", "MK23*")
EXCLUDED = ("F7", "F7*", "MK5", "MK5*", "MK33", "MK33*", "U36")
UMBRELLA = (2, 2, 2, 1)


def _host_graph(name: str):
    from matwidth.graph import complete_bipartite, cycle_graph, mk_graph

    return {
        "W5": lambda: mk_graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)]),
        "K33": lambda: complete_bipartite(3, 3),
        "fan5": lambda: mk_graph(6, [(i, i + 1) for i in range(4)] + [(5, i) for i in range(5)]),
        "K25": lambda: complete_bipartite(2, 5),
        "C9": lambda: cycle_graph(9),
    }[name]()


def _runner(group: str, arg: str):
    """A no-argument function that runs the case once and returns (seconds,
    answer), with any set-up done before it is returned."""
    from matwidth.algebra import field_from_order
    from matwidth.graph import cycle_matroid, make_umbrella
    from matwidth.matroid import VectorMatroid
    from matwidth.minors import catalog_entry, catalog_minor_witness, minor_contains, verify_excluded_minor

    if group == "minor":
        field = field_from_order(3)
        host_name, pattern_name = arg.split(":")
        host = cycle_matroid(_host_graph(host_name), field)
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
    field = field_from_order(3)
    catalog_entry("U24", field)  # builds the w = 1 catalog before the clock starts
    graph = make_umbrella(UMBRELLA)

    def run():
        M = cycle_matroid(graph, field)
        start = time.perf_counter()
        cert = catalog_minor_witness(M, 1)
        return time.perf_counter() - start, None if cert is None else cert.to_doc()

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
            "tracemalloc_kb": traced / 1024, "answer": answer}


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
    cases = ([("minor", f"{h}:{p}") for h in HOSTS for p in PATTERNS]
             + [("excluded", name) for name in EXCLUDED]
             + [("host12", "umbrella-" + "-".join(map(str, UMBRELLA)))])
    results = []
    for group, arg in cases:
        row = {"group": group, "input": arg}
        for label, src in trees.items():
            row[label] = measure(src, group, arg)
        answers = {json.dumps(row[label]["answer"], sort_keys=True) for label in trees}
        row["answers_agree"] = len(answers) == 1
        print(json.dumps({k: v if k in ("group", "input", "answers_agree") else
                          {m: v[m] for m in ("best_s", "peak_rss_mb", "tracemalloc_kb")}
                          for k, v in row.items()}), flush=True)
        results.append(row)
    doc = {
        "script": "benchmarks/minor_search.py",
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
