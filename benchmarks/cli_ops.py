"""Byte-identity of the command line: every operation of the mwbench
workloads, run by `matwidth.cli.main`, compared between source trees.

    python3 benchmarks/cli_ops.py --src before=../parent/src --src after=src --out BENCH.json

A case is one operation of the tw-codes, reduce-verify or minor-search
workload at seed 1 or 2 (124 cases).  Its input files are made by the
workload's own code (`mwbench/workloads.py`, imported and never written
to) in a temporary directory, and named by paths relative to it, so no
output depends on where that directory is.  Every case is measured for
every tree by the shared child harness
(`harness.py`: five fresh interpreters per tree and case, the trees
alternating A B B A ..., each giving its best of 3 runs after a warm-up
and the tracemalloc peak of one more; the file keeps every child's best
and their median and quartiles).  The
answer is the sha256 of the exit code, stdout and stderr of the
operation, so `answers_agree` holds exactly when every child of both
trees prints the same bytes and exits alike.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

import harness

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "mwbench"))
import workloads  # noqa: E402

NAMES = ("tw-codes", "reduce-verify", "minor-search")
SEEDS = (1, 2)


def runner(name: str, seed: str, index: str):
    """Operation number index of the named workload at seed (module docstring)."""
    import matwidth
    from matwidth import cli

    work = tempfile.mkdtemp()
    atexit.register(shutil.rmtree, work, True)
    os.chdir(work)
    # inputs named relative to the working directory, set up as mwbench does
    wl = workloads.WORKLOADS[name](int(seed), Path("inputs"))
    wl.prepare(matwidth)
    argv = wl.ops[int(index)].argv

    def run():
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        secs = time.perf_counter() - start
        blob = json.dumps([code, out.getvalue(), err.getvalue()]).encode()
        return secs, hashlib.sha256(blob).hexdigest()

    return run


def cases():
    """(row, --one arguments) of every case; each workload's operation list
    is built once, in a temporary directory."""
    for name in NAMES:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                wl = workloads.WORKLOADS[name](seed, Path(tmp))
                wl.build(random.Random(seed))
            for i, op in enumerate(wl.ops):
                yield {"workload": name, "seed": seed, "op": op.name}, (name, seed, i)


if __name__ == "__main__":
    sys.exit(harness.main(__file__, __doc__, runner, cases()))
