"""Command-line front end: width certificates, the graph reduction, minor
checks, and theorem-verification suites.

JSON results go to stdout, a one-line human summary to stderr.  Exit codes:
0 ok, 2 violation (a verification suite found a counterexample), 1 error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import algebra, codes, graph, matroid, minors, reduction, verify
from .pathwidth import pathwidth_exact, pathwidth_upper_greedy

OK, VIOLATION, ERROR = "ok", "violation", "error"
_EXIT = {OK: 0, VIOLATION: 2, ERROR: 1}


@dataclass
class CommandResult:
    status: str
    payload: dict
    summary: str


def _read(path: str) -> str:
    return Path(path).read_text()


def cmd_pathwidth(args) -> CommandResult:
    M = matroid.matroid_from_text(_read(args.matroid))
    cert = pathwidth_upper_greedy(M) if args.heuristic else None
    # a heuristic over-estimate cannot refute; a "no" falls back to exact
    exact = cert is None or (args.decide is not None and cert.width > args.decide)
    if exact:
        cert = pathwidth_exact(M)
    payload = {"certificate": cert.to_doc(), "exact": exact}
    summary = f"width {cert.width} on {M.size} elements"
    if args.decide is not None:
        answer = "yes" if cert.width <= args.decide else "no"
        payload["decide"] = {"w": args.decide, "answer": answer}
        summary += f"; pathwidth <= {args.decide}: {answer}"
    return CommandResult(OK, payload, summary)


def cmd_tw(args) -> CommandResult:
    C = codes.code_from_text(_read(args.code))
    cert = codes.trellis_width(C)
    return CommandResult(
        OK,
        {"certificate": cert.to_doc(), "length": C.length, "dimension": C.dim},
        f"trellis-width {cert.width} for a [{C.length},{C.dim}] code",
    )


def cmd_reduce(args) -> CommandResult:
    G = graph.graph_from_text(_read(args.graph))
    field = algebra.parse_field_token(args.field)
    M, A = reduction.reduce_instance(G, field)
    payload = {"matrix": algebra.matrix_to_text(M.matrix), "sidecar": reduction.apex_graph_to_doc(A)}
    summary = f"reduced {G.vertex_count}-vertex graph to {M.size} matroid elements"
    status = OK
    if args.verify:
        pw_g, D = graph.graph_pathwidth(G)
        # D's ordering through the reduction has width pw(G) + 1 at most, so
        # the DP only has to rule out pw(M) <= pw(G)
        pw_m = pathwidth_exact(M, upper=reduction.decomp_to_ordering(A, D)).width
        payload["verify"] = {"pw_graph": pw_g, "pw_matroid": pw_m, "identity": pw_m == pw_g + 1}
        summary += f"; pw {pw_m} = {pw_g} + 1" if pw_m == pw_g + 1 else "; IDENTITY VIOLATED"
        if pw_m != pw_g + 1:
            status = VIOLATION
    if args.out:
        Path(args.out + ".mat").write_text(payload["matrix"])
        Path(args.out + ".json").write_text(json.dumps(payload["sidecar"], indent=2, sort_keys=True))
        payload["files"] = [args.out + ".mat", args.out + ".json"]
    return CommandResult(status, payload, summary)


def _load_pattern(token: str, field) -> tuple:
    try:
        entry = minors.catalog_entry(token, field)
        return entry.name, entry.matroid
    except KeyError:
        pass
    return token, matroid.matroid_from_text(_read(token))


def cmd_check_minor(args) -> CommandResult:
    host = matroid.matroid_from_text(_read(args.host))
    name, pattern = _load_pattern(args.pattern, host.field)
    cert = minors.minor_contains(host, pattern)
    if cert is None:
        return CommandResult(OK, {"result": "absent"}, f"no {name} minor")
    cert.pattern_name = name
    if not minors.replay_certificate(host, pattern, cert):
        return CommandResult(ERROR, {"result": "invalid-certificate"}, "certificate replay failed")
    return CommandResult(OK, {"result": "present", "certificate": cert.to_doc()},
                         f"{name} minor found")


def cmd_verify_excluded(args) -> CommandResult:
    M = matroid.matroid_from_text(_read(args.matroid))
    report = minors.verify_excluded_minor(M, args.w)
    # a failing candidate is a faithful result, not a theorem violation
    verdict = "is" if report.passed else "is NOT"
    return CommandResult(OK, {"report": report.to_doc()},
                         f"matroid {verdict} an excluded minor for pathwidth <= {args.w}")


def cmd_check_tw1(args) -> CommandResult:
    C = codes.code_from_text(_read(args.code))
    ok, witness = minors.pw_le_1_by_minors(C)
    payload = {"tw_le_1": ok, "witness": witness.to_doc() if witness else None}
    summary = "trellis-width <= 1" if ok else f"trellis-width > 1 ({witness.pattern_name} minor)"
    return CommandResult(OK, payload, summary)


# the suite parameter behind each `verify` flag
_VERIFY_FLAGS = {"samples": "--samples", "seed": "--seed", "q": "--q", "n_max": "--n", "graph": "--graph",
                 "m_max": "--m", "max_parallel": "--max-parallel"}


def cmd_verify(args) -> CommandResult:
    if args.theorem not in verify.THEOREMS:
        known = ", ".join(sorted(verify.THEOREMS))
        raise KeyError(f"unknown theorem {args.theorem!r} (known: {known})")
    fn, desc = verify.THEOREMS[args.theorem]
    params = inspect.signature(fn).parameters
    kwargs = {key: getattr(args, key) for key in _VERIFY_FLAGS if getattr(args, key) is not None}
    # --q is the field of a suite that takes one as q, as qs or as field_q
    if "q" in kwargs and "q" not in params:
        if "qs" in params:
            kwargs["qs"] = (kwargs.pop("q"),)
        elif "field_q" in params:
            kwargs["field_q"] = kwargs.pop("q")
    refused = [_VERIFY_FLAGS[key] for key in kwargs if key not in params]
    if refused:
        raise ValueError(f"verify {args.theorem} does not take {', '.join(refused)}")
    if kwargs.get("samples", 0) < 0:
        raise ValueError(f"--samples must be at least 0, not {kwargs['samples']}")
    report = fn(**kwargs)
    status = OK if report["ok"] else VIOLATION
    summary = f"{args.theorem}: {desc} -- {'ok' if report['ok'] else 'VIOLATED'} " \
              f"({report['checked']} checks)"
    return CommandResult(status, report, summary)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args
    fills a fresh namespace each call and mutates nothing it holds."""
    p = argparse.ArgumentParser(prog="matwidth", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pathwidth", help="exact matroid pathwidth with certificate")
    sp.add_argument("matroid", help="matroid file (matrix text plus optional labels line)")
    sp.add_argument("--decide", type=int, default=None, metavar="W")
    sp.add_argument("--heuristic", action="store_true", help="greedy upper bound instead")
    sp.set_defaults(func=cmd_pathwidth)

    sp = sub.add_parser("tw", help="trellis-width of a linear code")
    sp.add_argument("code", help="code file (matrix text plus optional labels line)")
    sp.set_defaults(func=cmd_tw)

    sp = sub.add_parser("reduce", help="graph -> apex-graph matroid representation")
    sp.add_argument("graph", help="graph file")
    sp.add_argument("--field", default="2")
    sp.add_argument("--verify", action="store_true", help="assert pw(M) = pw(G) + 1")
    sp.add_argument("--out", default=None, metavar="PREFIX", help="write PREFIX.mat and PREFIX.json")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("check-minor", help="search for a pattern minor with certificate")
    sp.add_argument("--host", required=True)
    sp.add_argument("--pattern", required=True, help="catalog name (e.g. U24, MK4) or file")
    sp.set_defaults(func=cmd_check_minor)

    sp = sub.add_parser("verify-excluded", help="excluded-minor property of a candidate")
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument("--matroid", required=True)
    sp.set_defaults(func=cmd_verify_excluded)

    sp = sub.add_parser("check-tw1", help="trellis-width <= 1 with excluded-minor witness")
    sp.add_argument("code")
    sp.set_defaults(func=cmd_check_tw1)

    sp = sub.add_parser("verify", help="run a theorem-verification suite")
    sp.add_argument("theorem", help=", ".join(sorted(verify.THEOREMS)))
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--n", type=int, default=None, dest="n_max")
    sp.add_argument("--graph", default=None)
    sp.add_argument("--m", type=int, default=None, dest="m_max")
    sp.add_argument("--max-parallel", type=int, default=None, dest="max_parallel")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except SystemExit:
        raise
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        # str() of a KeyError quotes its message
        msg = str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
        print(json.dumps({"error": msg}, sort_keys=True))
        print(f"error: {msg}", file=sys.stderr)
        return 1
    print(json.dumps(result.payload, indent=2, sort_keys=True))
    print(result.summary, file=sys.stderr)
    return _EXIT[result.status]


if __name__ == "__main__":
    raise SystemExit(main())
