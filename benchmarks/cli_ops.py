"""Byte-identity of the command line: every operation of the mwbench
workloads, run by `matwidth.cli.main`, compared between source trees.

    python3 benchmarks/cli_ops.py --src before=../parent/src --src after=src --out BENCH.json

A case is one operation of the tw-codes, reduce-verify or minor-search
workload at seed 1 or 2 (124 cases).  Its input files are made by the
workload's own code (`mwbench/workloads.py`, imported and never written
to) in a temporary directory, and named by paths relative to it, so no
output depends on where that directory is.  The "verify" group adds
`matwidth verify SUITE` for every suite at its defaults, and
`verify SUITE --q 4` for the suites in VERIFY_Q4 (15 cases); they read no
file.  Every case is measured for
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
SUITES = ("duality", "minor-monotone", "direct-sum", "caterpillar", "reduction", "decomp", "reorder",
          "umbrella", "p1q", "excluded-w2", "tw1-codes")
# the suites whose report goes through the exact solver on a field of their
# own choosing, run again over GF(4)
VERIFY_Q4 = ("p1q", "minor-monotone", "duality", "tw1-codes")


def runner(name: str, *args: str):
    """Operation number index of the named workload at seed (args seed,
    index), or for name "verify" the suite args[0], over GF(args[1]) when
    given (module docstring)."""
    import matwidth
    from matwidth import cli

    if name == "verify":
        suite, *q = args
        argv = ["verify", suite, *(["--q", *q] if q else [])]
    else:
        seed, index = args
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
    is built once, in a temporary directory, and the verify group follows."""
    for name in NAMES:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                wl = workloads.WORKLOADS[name](seed, Path(tmp))
                wl.build(random.Random(seed))
            for i, op in enumerate(wl.ops):
                yield {"workload": name, "seed": seed, "op": op.name}, (name, seed, i)
    for suite in SUITES:
        yield {"workload": "verify", "op": suite}, ("verify", suite)
    for suite in VERIFY_Q4:
        yield {"workload": "verify", "op": f"{suite} --q 4"}, ("verify", suite, 4)


if __name__ == "__main__":
    sys.exit(harness.main(__file__, __doc__, runner, cases()))
