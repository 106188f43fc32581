"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced function of the `matwidth` package
with a wrapper at every place it is bound: the class attribute for
methods, and for functions every module attribute that holds the
original object (modules bind these names with `from .x import name`).
A wrapper records a span (id, parent, name, operation, start, end) and
counts its calls.  Probe time inside a span is taken out of it, and a
span's self time is its time less that of its child spans.  Times are
scaled to the reference speed with the scale of the operation they ran
in.  Calls of a group made inside a span of the same group (rank_of_columns
calling rank, say) are part of that span, not new ones.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import Counter, defaultdict

_clock = time.perf_counter

# (layer group, module, attribute); "Class.method" names a method
TARGETS = (
    ("matroid.rank_table", "matwidth.matroid", "VectorMatroid.rank_table"),
    ("matroid.construct", "matwidth.matroid", "VectorMatroid.__init__"),
    ("matroid.apply_minor", "matwidth.matroid", "apply_minor"),
    ("matroid.is_isomorphic", "matwidth.matroid", "is_isomorphic"),
    ("pathwidth.exact", "matwidth.pathwidth", "pathwidth_exact"),
    ("algebra.elim", "matwidth.algebra", "rank"),
    ("algebra.elim", "matwidth.algebra", "rref"),
    ("algebra.elim", "matwidth.algebra", "rank_of_columns"),
    ("algebra.elim", "matwidth.algebra", "orthogonal_complement"),
    ("minors.contains", "matwidth.minors", "minor_contains"),
    ("minors.replay", "matwidth.minors", "replay_certificate"),
    ("minors.catalog", "matwidth.minors", "excluded_minor_catalog"),
    ("graph.pathwidth", "matwidth.graph", "graph_pathwidth"),
    ("reduction.reduce", "matwidth.reduction", "reduce_instance"),
    ("codes.trellis_width", "matwidth.codes", "trellis_width"),
    ("cli.main", "matwidth.cli", "main"),
)

# the per-layer metrics, in BENCHMARK.json order: (name, unit)
METRICS = (
    ("matroid.rank_table.calls", "count"), ("matroid.rank_table.entries", "count"),
    ("matroid.rank_table.s", "ref-s"),
    ("pathwidth.exact.calls", "count"), ("pathwidth.exact.self_s", "ref-s"),
    ("pathwidth.exact.dp_states", "count"),
    ("matroid.apply_minor.calls", "count"), ("matroid.apply_minor.self_s", "ref-s"),
    ("matroid.construct.calls", "count"), ("matroid.construct.self_s", "ref-s"),
    ("matroid.is_isomorphic.calls", "count"), ("matroid.is_isomorphic.self_s", "ref-s"),
    ("matroid.is_isomorphic.hit_ratio", "ratio"),
    ("algebra.elim.calls", "count"), ("algebra.elim.s", "ref-s"),
    ("minors.contains.calls", "count"), ("minors.contains.self_s", "ref-s"),
    ("minors.contains.found_ratio", "ratio"), ("minors.minors_per_query", "count"),
    ("minors.replay.s", "ref-s"), ("minors.catalog.s", "ref-s"),
    ("graph.pathwidth.calls", "count"), ("graph.pathwidth.s", "ref-s"),
    ("reduction.reduce.s", "ref-s"),
    ("codes.trellis_width.calls", "count"), ("cli.main.self_s", "ref-s"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    def __init__(self, probe):
        self.probe = probe
        self.spans: list = []  # (id, parent id, group, op, start, end)
        self.counts = Counter()
        self.secs = defaultdict(float)  # scaled totals, "<group>.s" and "<group>.self_s"
        self._raw = defaultdict(float)  # unscaled, for the current operation
        self._stack: list = []  # open spans: [id, start, probe time at start, child time]
        self._open: set = set()
        self._seen = weakref.WeakSet()
        self._undo: list = []
        self.op = None

    # -- hooks that add counts beyond calls ------------------------------------

    def _after(self, group, args, result):
        c = self.counts
        if group == "matroid.rank_table" and args[0] not in self._seen:
            self._seen.add(args[0])
            c["matroid.rank_table.entries"] += 1 << args[0].size
        elif group == "pathwidth.exact":
            c["pathwidth.exact.dp_states"] += 1 << args[0].size
        elif group == "matroid.is_isomorphic":
            c["matroid.is_isomorphic.hits"] += result is not None
        elif group == "minors.contains":
            c["minors.contains.found"] += result is not None
        elif group == "matroid.apply_minor" and "minors.contains" in self._open:
            c["minors.contains.minors"] += 1

    def _span(self, group, fn, args, kwargs):
        probe = self.probe
        parent = self._stack[-1][0] if self._stack else -1
        rec = [len(self.spans) + len(self._stack), _clock(), probe.spent, 0.0]
        self._stack.append(rec)
        self._open.add(group)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            self._open.discard(group)
            net = end - rec[1] - (probe.spent - rec[2])
            self._raw[group + ".s"] += net
            self._raw[group + ".self_s"] += net - rec[3]
            if self._stack:
                self._stack[-1][3] += net
            self.counts[group + ".calls"] += 1
            self.spans.append((rec[0], parent, group, self.op, rec[1], end))
        self._after(group, args, result)
        return result

    def _wrapper(self, group, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if group in tracer._open:
                return fn(*args, **kwargs)
            return tracer._span(group, fn, args, kwargs)

        return traced

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "matwidth" or name.startswith("matwidth."))]
        for group, modname, attr in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._undo.append((cls, meth, vars(cls)[meth]))
                    setattr(cls, meth, self._wrapper(group, vars(cls)[meth]))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._wrapper(group, orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, name, orig))
                        setattr(m, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo = []

    def flush(self, scale: float) -> None:
        """Scale the current operation's times and add them to the totals."""
        for key, raw in self._raw.items():
            self.secs[key] += raw * scale
        self._raw.clear()

    def metrics(self, overhead: float) -> dict:
        c, s = self.counts, self.secs

        def ratio(a, b):
            return c[a] / c[b] if c[b] else 0.0

        derived = {
            "matroid.is_isomorphic.hit_ratio": ratio("matroid.is_isomorphic.hits", "matroid.is_isomorphic.calls"),
            "minors.contains.found_ratio": ratio("minors.contains.found", "minors.contains.calls"),
            "minors.minors_per_query": ratio("minors.contains.minors", "minors.contains.calls"),
            "trace.overhead": overhead,
        }
        out = {}
        for name, unit in METRICS:
            value = derived[name] if name in derived else s[name] if unit == "ref-s" else c[name]
            out[name] = {"value": value, "unit": unit}
        return out
