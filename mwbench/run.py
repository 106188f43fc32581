"""Benchmark of the `matwidth` command line, run in-process.

    python3 mwbench/run.py --workload tw-codes --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Set-up is done SETUP_REPEATS times (a fresh import of the
package, field tables, catalogs, input files); then rounds of the
workload's fixed operation list run until --seconds is spent, each
operation a call of `matwidth.cli.main(argv)` with its output captured,
parsed and checked.  Every operation and set-up is timed beside the speed
probe (probe.py) and reported at the reference speed.  With --trace 1 the
last set-up and the first round run traced (tracing.py) and the per-layer
metrics are reported instead.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 5
# identical runs must not differ by string hashing, BLAS thread pools or
# bytecode caches left by an earlier run (PYTHONPYCACHEPREFIX names a
# directory that is never written, so every import compiles from source)
ENV = {
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONPYCACHEPREFIX": str(RESULTS / "no-pycache"),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import probe as probemod  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

_clock = time.perf_counter


def import_program():
    """Fresh module objects for the whole package, imported from ./src."""
    for name in [n for n in sys.modules if n == "matwidth" or n.startswith("matwidth.")]:
        del sys.modules[name]
    importlib.import_module("matwidth")
    cli = importlib.import_module("matwidth.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"matwidth imported from {cli.__file__}, not from ./src")
    return cli


def run_op(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def run_round(wl, cli, probe, tracer, log):
    """One pass over the operation list; returns per-op (wall, scaled) or None."""
    times, results = [], []
    for i, op in enumerate(wl.ops):
        if tracer:
            tracer.op = i
        try:
            (rc, text), wall, scaled = probe.measure(lambda: run_op(cli, op.argv))
            doc = json.loads(text)
            if rc not in (0, 2):
                raise RuntimeError(f"exit code {rc}: {text.strip()[:200]}")
        except (Exception, SystemExit):
            log["failures"].append(f"{op.name}: {traceback.format_exc(limit=3)}")
            times.append(None)
            results.append(None)
            continue
        finally:
            if tracer:
                tracer.flush(probe.scale())
        times.append((wall, scaled))
        results.append((doc, rc))
    log["errors"] += wl.check(results)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = _clock()
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, **ENV})
    if not (ROOT / "src" / "matwidth" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 3
    oracle.self_test()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (its import is not the program's set-up)

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    probe = probemod.Probe()
    tracer = tracing.Tracer(probe) if args.trace else None
    log = {"failures": [], "errors": []}
    try:
        setups = []
        for rep in range(SETUP_REPEATS):
            def setup():
                cli = import_program()
                if tracer and rep == SETUP_REPEATS - 1:
                    tracer.install()
                wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
                wl.prepare(sys.modules["matwidth"])
                return cli, wl

            (cli, wl), wall, scaled = probe.measure(setup)
            if tracer:
                tracer.flush(probe.scale())
            setups.append((wall, scaled))

        traced_round = None
        if tracer:
            traced_round = run_round(wl, cli, probe, tracer, log)
            tracer.uninstall()
        rounds, durations = [], []
        while True:
            t0 = _clock()
            rounds.append(run_round(wl, cli, probe, None, log))
            durations.append(_clock() - t0)
            if _clock() - start + statistics.median(durations) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_op = []
    for i in range(len(wl.ops)):
        samples = [r[i][1] for r in rounds if r[i] is not None]
        per_op.append(statistics.median(samples) if samples else None)
    done = [t for t in per_op if t is not None]
    solve_ref = sum(done)
    latencies = [t[1] for r in rounds for t in r if t is not None]
    raw_wall = [sum(t[0] for t in r if t is not None) for r in rounds]
    attempted = len(wl.ops) * (len(rounds) + (traced_round is not None))
    failed = sum(t is None for r in rounds + ([traced_round] if tracer else []) for t in r)

    if tracer:
        traced = sum(t[1] for t in traced_round if t is not None)
        metrics = tracer.metrics(traced / solve_ref if solve_ref else 0.0)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
            "solve_ref_s": {"value": solve_ref, "unit": "ref-s"},
            "op_p50_ref_ms": {"value": 1000 * statistics.median(latencies) if latencies else 0.0, "unit": "ref-ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    result = {"correct": not log["errors"], "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "result": result, "rounds": len(rounds), "raw_wall_s": raw_wall,
        "setup_wall_s": [w for w, _ in setups], "setup_ref_s": [s for _, s in setups],
        "ops": [{"name": op.name, "argv": op.argv[:1], "ref_s": t} for op, t in zip(wl.ops, per_op)],
        "failures": log["failures"], "errors": log["errors"],
    }
    if tracer:
        report["counts"] = dict(tracer.counts)
        report["spans"] = tracer.spans
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, separators=(",", ":")))
    for line in log["errors"][:20] + log["failures"][:5]:
        print(line, file=sys.stderr)
    print(json.dumps({"raw_wall_s": raw_wall, "rounds": len(rounds), "report": str(out.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
