"""The child-interpreter harness shared by the benchmark scripts.

A script names its cases and a runner, and hands both to `main`:

    python3 benchmarks/SCRIPT.py --src before=../parent/src --src after=src --out BENCH.json

Each --src LABEL=DIR names a source tree of the package.  Every case is
measured for every tree by CHILDREN fresh interpreters each
(`SCRIPT.py --one ARG...`, with DIR first on sys.path), and the trees
alternate child by child, A B B A A B ..., so that both sides see about
the same machine state and a slow spell of the machine shows as spread
rather than as a difference.

A runner takes the case's --one arguments and returns a no-argument
function that runs the case once and returns (seconds, answer), with any
set-up done before it is returned.  A child prints the best and all of
REPEATS wall times, taken after one untimed warm-up run so that none pays
a fresh interpreter's first-run costs, its peak RSS (`ru_maxrss`, which
includes the interpreter and numpy), the tracemalloc peak in MB of one
further run (taken apart from the timed runs, which it would slow) and
the answer.  Per case and tree the JSON written to --out holds every
child's best (`child_best_s`, in launch order), the least of them
(`best_s`), their median and quartiles (`median_s`, `q1_s`, `q3_s`), the
largest peak RSS and tracemalloc peak over the children and the answer,
which must agree between all children of the trees that recorded one
(`answers_agree`); and the machine.  A difference between two trees is
resolved when it exceeds the spread between their quartiles.  A child is
skipped, and recorded with the reason, when its first run, the warm-up,
takes longer than TIME_CAP seconds (an interval timer interrupts it; an
interpreter still running after 4 * TIME_CAP is stopped); a tree's first
skipped child ends that tree's children for the case.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import statistics
import sys
import time
import tracemalloc

REPEATS = 3
CHILDREN = 5  # interpreters per tree and case
# long enough for the slowest case any compared tree still runs (an
# isomorphism call of 37 s on a 2-vCPU VM, about 165 s under tracemalloc)
TIME_CAP = 120.0


class Overtime(Exception):
    """The first run passed TIME_CAP."""


def _overtime(signum, frame):
    raise Overtime


def measure_here(runner, args) -> dict:
    """The case's result, measured in this interpreter."""
    run = runner(*args)
    signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, TIME_CAP)
    try:
        run()  # the warm-up, untimed
    except Overtime:
        return {"skipped": f"first run > {TIME_CAP:.0f} s"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
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


def measure(script: str, src: str, args) -> dict:
    """The case's result, measured by `script --one args` in a fresh
    interpreter with the source tree src first on sys.path."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, script, "--one", *map(str, args)]
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=4 * TIME_CAP, check=True)
    except subprocess.TimeoutExpired:
        return {"skipped": f"stopped after {4 * TIME_CAP:.0f} s"}
    return json.loads(done.stdout.splitlines()[-1])


def answers_agree(results) -> bool:
    """Whether the children that recorded an answer for a case agree on it;
    a skipped child recorded none."""
    return len({json.dumps(r["answer"], sort_keys=True) for r in results if "answer" in r}) <= 1


def summarize(children) -> dict:
    """One tree's entry for a case from its children's results (module
    docstring); the first skip when no child ran."""
    ran = [c for c in children if "skipped" not in c]
    if not ran:
        return children[0]
    best = [c["best_s"] for c in ran]
    q1, median, q3 = statistics.quantiles(best, n=4, method="inclusive") if len(best) > 1 else best * 3
    out = {"best_s": min(best), "median_s": median, "q1_s": q1, "q3_s": q3, "child_best_s": best,
           "peak_rss_mb": max(c["peak_rss_mb"] for c in ran),
           "tracemalloc_mb": max(c["tracemalloc_mb"] for c in ran), "answer": ran[0]["answer"]}
    if len(ran) < len(children):
        out["skipped"] = children[-1]["skipped"]
    return out


def main(script: str, doc: str, runner, cases, argv=None) -> int:
    """Run the benchmark script: cases lists (row, args) pairs, row the
    fields naming the case in the JSON, args its --one arguments."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--src", action="append", default=[], metavar="LABEL=DIR")
    ap.add_argument("--out")
    ap.add_argument("--one", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(measure_here(runner, args.one)))
        return 0
    if not args.src or not args.out:
        ap.error("--src and --out are required")
    trees = dict(s.split("=", 1) for s in args.src)
    results = []
    for fields, one in cases:
        children = {label: [] for label in trees}
        for i in range(CHILDREN):
            for label in list(trees)[::1 if i % 2 == 0 else -1]:
                got = children[label]
                if not (got and "skipped" in got[-1]):
                    got.append(measure(script, trees[label], one))
        row = dict(fields)
        row.update((label, summarize(got)) for label, got in children.items())
        row["answers_agree"] = answers_agree([c for got in children.values() for c in got])
        print(json.dumps({k: {m: v[m] for m in ("best_s", "median_s", "peak_rss_mb", "tracemalloc_mb", "skipped")
                              if m in v} if k in trees else v for k, v in row.items()}), flush=True)
        results.append(row)
    out = {
        "script": "benchmarks/" + os.path.basename(script),
        "trees": list(trees),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "children": CHILDREN,
        "repeats": REPEATS,
        "time_cap_s": TIME_CAP,
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0
