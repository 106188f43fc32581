"""The child-interpreter harness shared by the benchmark scripts.

A script names its cases and a runner, and hands both to `main`:

    python3 benchmarks/SCRIPT.py --src before=../parent/src --src after=src --out BENCH.json

Each --src LABEL=DIR names a source tree of the package.  Every case is
measured for every tree in its own interpreter (`SCRIPT.py --one ARG...`),
with DIR first on sys.path; the trees take turns case by case, so that
every side sees about the same machine state.

A runner takes the case's --one arguments and returns a no-argument
function that runs the case once and returns (seconds, answer), with any
set-up done before it is returned.  Per case and tree the JSON written to
--out holds the best and all of REPEATS wall times, taken after one
untimed warm-up run so that none pays a fresh interpreter's first-run
costs, the child's peak RSS (`ru_maxrss`, which includes the interpreter
and numpy), the tracemalloc peak in MB of one further run (taken apart
from the timed runs, which it would slow) and the answer, which must
agree between the trees that recorded one (`answers_agree`); and the
machine.  A case is skipped, and recorded with the reason, when its
first run, the warm-up, takes longer than TIME_CAP seconds (an interval
timer interrupts it; an interpreter still running after 4 * TIME_CAP is
stopped).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
import tracemalloc

REPEATS = 3
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
    """Whether the trees that recorded an answer for a case agree on it; a
    tree that skipped the case recorded none."""
    return len({json.dumps(r["answer"], sort_keys=True) for r in results if "answer" in r}) <= 1


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
        row = dict(fields)
        for label, src in trees.items():
            row[label] = measure(script, src, one)
        row["answers_agree"] = answers_agree([row[label] for label in trees])
        print(json.dumps({k: {m: v[m] for m in ("best_s", "peak_rss_mb", "tracemalloc_mb", "skipped")
                              if m in v} if k in trees else v for k, v in row.items()}), flush=True)
        results.append(row)
    out = {
        "script": "benchmarks/" + os.path.basename(script),
        "trees": list(trees),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "repeats": REPEATS,
        "time_cap_s": TIME_CAP,
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0
