"""The three workloads: seeded inputs, the fixed list of commands run on
them, and the checks of every answer against the oracle.

Each workload writes its input files into a work directory, lists its
operations as `matwidth` argument vectors, and checks the parsed output
of one round of them.  Answers are checked against the oracle's own
computations, never against stored output.  What the oracle derives from
an input is computed once and kept, since every round runs the same
inputs.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import oracle


def _matrix_text(q: int, rows, n: int) -> str:
    return "\n".join([f"{q} {len(rows)} {n}"] + [" ".join(map(str, r)) for r in rows]) + "\n"


def _incidence(q: int, nv: int, edges):
    """Vertex-edge incidence over GF(q): +1 at the smaller end, -1 at the larger."""
    minus = oracle.Field(q).neg(1)
    return [[1 if w == min(e) else minus if w == max(e) else 0 for e in edges] for w in range(nv)]


def _random_rows(rng, F, k, n, simple):
    """A full-rank k x n matrix; with `simple`, no zero or repeated columns."""
    while True:
        rows = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        cols = oracle.columns_of(rows)
        if simple and (any(not any(c) for c in cols) or len(set(cols)) < n):
            continue
        if oracle.rank(F, cols) == k:
            return rows


def _equivalent(rng, F, rows):
    """An equivalent generator: permuted coordinates, nonzero column scalars
    and a random change of basis.  The code's matroid, and so the work of
    the rank table, stays that of `rows`; see the README for why."""
    k, n = len(rows), len(rows[0])
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.randrange(1, F.q) for _ in range(n)]
    cols = [[F.mul(scale[j], x) for x in col] for j, col in enumerate(oracle.columns_of(rows))]
    cols = [cols[p] for p in perm]
    while True:
        basis = [[rng.randrange(F.q) for _ in range(k)] for _ in range(k)]
        if oracle.rank(F, basis) == k:
            break
    out = []
    for b in basis:
        row = []
        for col in cols:
            acc = 0
            for c, x in zip(b, col):
                acc = F.add(acc, F.mul(c, x))
            row.append(acc)
        out.append(row)
    return out


class Op:
    def __init__(self, name, argv, **facts):
        self.name = name
        self.argv = argv
        self.facts = facts


class Workload:
    """Inputs and checks shared by the three workloads."""

    fields: tuple = ()
    catalogs: tuple = ()  # (w, q) catalogs built during set-up

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.ops: list = []
        self._truth: dict = {}

    def write(self, name, text) -> str:
        path = self.dir / name
        path.write_text(text)
        return str(path)

    def prepare(self, mw) -> None:
        """Set-up: the program's field tables and catalogs, then the inputs."""
        for q in self.fields:
            mw.algebra.field_from_order(q)
        for w, q in self.catalogs:
            for entry in mw.minors.excluded_minor_catalog(w, mw.algebra.field_from_order(q)):
                entry.matroid.rank_table()
        self.dir.mkdir(parents=True, exist_ok=True)
        self.ops = []
        self.build(random.Random(self.seed))

    def truth(self, key, compute):
        if key not in self._truth:
            self._truth[key] = compute()
        return self._truth[key]

    def check(self, results) -> list:
        """Errors found in one round; results[i] is (payload, exit code) of
        ops[i], or None when the operation failed."""
        errors = []
        for op, res in zip(self.ops, results):
            if res is not None:
                errors += [f"{op.name}: {e}" for e in self.check_op(op, *res)]
        return errors + self.check_round(results)

    def check_round(self, results) -> list:
        return []


class TwCodes(Workload):
    """`matwidth tw` on random, MDS and Reed-Muller codes."""

    fields = (2, 3, 4, 5, 16, 17)

    def build(self, rng):
        # lengths chosen so the eight random operations cost about the same
        for q, n in ((2, 17), (3, 16), (4, 16), (5, 15)):
            F = oracle.Field(q)
            base = _random_rows(random.Random(f"tw-codes-q{q}"), F, n // 2, n, simple=True)
            rows = _equivalent(rng, F, base)
            self.code(f"random-q{q}", q, rows, n, kind="random", pair=q)
            self.code(f"random-q{q}-dual", q, oracle.dual_rows(F, rows, n), n, kind="random", pair=q)
        for q, n, k in ((16, 16, 6), (17, 16, 8)):
            F = oracle.Field(q)
            rows = [[F.pow(a, i) for a in range(n - 1)] + [int(i == k - 1)] for i in range(k)]
            self.code(f"mds-q{q}-n{n}-k{k}", q, rows, n, kind="mds", expect=min(k, n - k))
        for r in (1, 2):
            rows = [[int(all(j >> i & 1 for i in sub)) for j in range(16)]
                    for d in range(r + 1) for sub in itertools.combinations(range(4), d)]
            self.code(f"rm-{r}-4", 2, rows, 16, kind="rm", expect=4)

    def code(self, name, q, rows, n, **facts):
        path = self.write(name + ".code", _matrix_text(q, rows, n))
        self.ops.append(Op(name, ["tw", path], q=q, rows=rows, n=n, **facts))

    def check_op(self, op, doc, rc):
        f = op.facts
        n = f["n"]
        rank_of = oracle.rank_function(oracle.Field(f["q"]), f["rows"])
        cert = doc["certificate"]
        order = cert["ordering"]
        errors = []
        if rc != 0:
            errors.append(f"exit code {rc}")
        if sorted(order) != list(range(1, n + 1)):
            return errors + ["ordering is not a permutation of the coordinates"]
        lams = oracle.prefix_lambdas(rank_of, [lbl - 1 for lbl in order], n)
        if lams != cert["prefix_lambdas"] or cert["width"] != max(lams):
            errors.append(f"prefix lambdas {cert['prefix_lambdas']} width {cert['width']}, oracle {lams}")
        if doc["length"] != n or doc["dimension"] != rank_of((1 << n) - 1):
            errors.append("wrong length or dimension")
        if f["kind"] == "rm":
            standard = self.truth(op.name, lambda: max(oracle.prefix_lambdas(rank_of, range(n), n)))
            if not cert["width"] == standard == f["expect"]:
                errors.append(f"width {cert['width']}, standard bit order {standard}")
        elif f["kind"] == "mds" and cert["width"] != f["expect"]:
            errors.append(f"width {cert['width']} of an MDS code, expected {f['expect']}")
        return errors

    def check_round(self, results):
        widths = {}
        for op, res in zip(self.ops, results):
            if res is not None and op.facts["kind"] == "random":
                widths.setdefault(op.facts["pair"], []).append(res[0]["certificate"]["width"])
        return [f"GF({q}) code and its dual have widths {w}" for q, w in widths.items() if len(set(w)) > 1]


def _connected(nv, edges):
    return oracle.graphic_rank(nv, edges, (1 << len(edges)) - 1) == nv - 1


class ReduceVerify(Workload):
    """`matwidth reduce G --verify` on small graphs."""

    fields = (2,)
    GRAPHS = {
        "K1": (1, []), "K2": (2, [(0, 1)]), "P3": (3, [(0, 1), (1, 2)]),
        "K3": (3, oracle.lex_pairs(3)), "P4": (4, [(0, 1), (1, 2), (2, 3)]),
        "star-1-3": (4, [(0, 1), (0, 2), (0, 3)]), "paw": (4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
        "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        "diamond": (4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]), "K4": (4, oracle.lex_pairs(4)),
        "P5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]), "star-1-4": (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        "chair": (5, [(0, 1), (1, 2), (2, 3), (1, 4)]),
        "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
        "P6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        "star-1-5": (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
        "K23": (5, oracle.bipartite_pairs(2, 3)),
    }

    def build(self, rng):
        graphs = dict(self.GRAPHS)
        for m in (5, 6):
            while True:
                edges = sorted(rng.sample(oracle.lex_pairs(5), m))
                if _connected(5, edges):
                    break
            graphs[f"seeded-5v-{m}e"] = (5, edges)
        for name, (nv, edges) in graphs.items():
            text = "\n".join([str(nv)] + [f"{u} {v}" for u, v in edges]) + "\n"
            path = self.write(name + ".graph", text)
            self.ops.append(Op(name, ["reduce", path, "--verify"], nv=nv, edges=edges))

    def check_op(self, op, doc, rc):
        pw = self.truth(op.name, lambda: oracle.vertex_separation(op.facts["nv"], op.facts["edges"]))
        v = doc["verify"]
        if rc != 0 or v["pw_graph"] != pw or v["pw_matroid"] != pw + 1 or not v["identity"]:
            return [f"exit {rc}, reported {v}, oracle pw(G) = {pw}"]
        return []


def _wheel(k):
    return k + 1, [(i, (i + 1) % k) for i in range(k)] + [(k, i) for i in range(k)]


def _fan(k):
    return k + 1, [(i, i + 1) for i in range(k - 1)] + [(k, i) for i in range(k)]


def _cycle(k):
    return k, [(i, (i + 1) % k) for i in range(k)]


def _gf4_excluded():
    """The seven w <= 2 catalog entries over GF(4), built from their definitions."""
    F = oracle.Field(4)
    fano = [[1, 0, 0, 0, 1, 1, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 1, 1, 0, 1]]
    hyperoval = [[1, 1, 1, 1, 0, 0], [0, 1, 2, 3, 0, 1], [0, 1, 3, 2, 1, 0]]
    out = {"F7": fano, "MK5": _incidence(4, 5, oracle.lex_pairs(5)),
           "MK33": _incidence(4, 6, oracle.bipartite_pairs(3, 3)), "U36": hyperoval}
    for name in ("F7", "MK5", "MK33"):
        out[name + "*"] = oracle.dual_rows(F, out[name], len(out[name][0]))
    assert all(oracle.rank(F, list(t)) == 3 for t in itertools.combinations(oracle.columns_of(hyperoval), 3))
    return out


class MinorSearch(Workload):
    """`check-minor`, `check-tw1` and `verify-excluded --w 2`."""

    fields = (2, 3, 4)
    catalogs = ((1, 2), (1, 3))
    HOSTS = {"W5": _wheel(5), "K33": (6, oracle.bipartite_pairs(3, 3)), "fan5": _fan(5),
             "K25": (7, oracle.bipartite_pairs(2, 5)), "C9": _cycle(9)}

    def build(self, rng):
        for name, (nv, edges) in self.HOSTS.items():
            rows = _incidence(3, nv, edges)
            path = self.write(name + ".mat", _matrix_text(3, rows, len(edges)))
            for pat in oracle.PATTERNS:
                self.ops.append(Op(f"{name}-{pat}", ["check-minor", "--host", path, "--pattern", pat],
                                   kind="minor", host=name, pattern=pat, q=3, rows=rows, nv=nv, edges=edges))
        for q in (2, 3):
            for i in (1, 2):
                rows = _random_rows(rng, oracle.Field(q), 4, 8, simple=False)
                path = self.write(f"tw1-q{q}-{i}.code", _matrix_text(q, rows, 8))
                self.ops.append(Op(f"tw1-q{q}-{i}", ["check-tw1", path], kind="tw1", q=q, rows=rows))
        for name, rows in _gf4_excluded().items():
            path = self.write(f"excluded-{name}.mat", _matrix_text(4, rows, len(rows[0])))
            self.ops.append(Op(f"excluded-{name}", ["verify-excluded", "--w", "2", "--matroid", path],
                               kind="excluded", q=4, rows=rows))

    def _table(self, op):
        f = op.facts
        n = len(f["rows"][0])
        key = ("table", f.get("host") or op.name)
        return n, self.truth(key, lambda: oracle.rank_table(oracle.rank_function(oracle.Field(f["q"]), f["rows"]), n))

    def _replay(self, op, cert):
        n, table = self._table(op)
        bij = {int(k): v for k, v in cert["bijection"].items()}
        return oracle.replay_minor(table.__getitem__, n, cert["pattern"], cert["contract"], cert["delete"], bij)

    def check_op(self, op, doc, rc):
        f = op.facts
        if rc != 0:
            return [f"exit code {rc}"]
        if f["kind"] == "minor":
            present = doc["result"] == "present"
            errors = []
            if present:
                cert = dict(doc["certificate"], pattern=f["pattern"])
                bad = self._replay(op, cert)
                if bad:
                    errors.append(f"certificate replay: {bad}")
            if f["pattern"] == "U24" and present:
                errors.append("U24 found in a graphic matroid")
            if f["pattern"] == "MK4" and present != oracle.has_k4_minor(f["nv"], f["edges"]):
                errors.append(f"MK4 {doc['result']}, but K4 minor in the graph: {not present}")
            return errors
        if f["kind"] == "tw1":
            n, table = self._table(op)
            low = self.truth(("pw", op.name), lambda: oracle.pathwidth(table, n)) <= 1
            errors = []
            if doc["tw_le_1"] != low or (doc["witness"] is None) != low:
                errors.append(f"tw <= 1 reported {doc['tw_le_1']}, oracle {low}")
            elif doc["witness"] is not None:
                bad = self._replay(op, doc["witness"])
                if bad:
                    errors.append(f"witness replay: {bad}")
            return errors
        rep = doc["report"]
        expect = self.truth(("excluded", op.name), lambda: self._single_element_widths(op))
        got = {(e["element"], e["operation"]): e["pathwidth"] for e in rep["elements"]}
        if not rep["passed"] or rep["pathwidth"] != 3 or expect[None] != 3:
            return [f"passed {rep['passed']}, pathwidth {rep['pathwidth']}, oracle {expect[None]}"]
        if got != {k: v for k, v in expect.items() if k is not None} or max(got.values()) > 2:
            return [f"single-element minor widths {got}, oracle {expect}"]
        return []

    def _single_element_widths(self, op):
        n, T = self._table(op)
        out = {None: oracle.pathwidth(T, n)}
        for e in range(n):
            bit = 1 << e
            # masks over E - e, re-indexed to n - 1 positions
            lift = [(m & (bit - 1)) | ((m >> e) << (e + 1)) for m in range(1 << (n - 1))]
            out[(str(e + 1), "delete")] = oracle.pathwidth([T[m] for m in lift], n - 1)
            out[(str(e + 1), "contract")] = oracle.pathwidth([T[m | bit] - T[bit] for m in lift], n - 1)
        return out

    def check_round(self, results):
        errors = []
        found = {}
        for op, res in zip(self.ops, results):
            if op.facts["kind"] == "minor" and res is not None:
                found.setdefault(op.facts["host"], []).append(res[0]["result"] == "present")
        for host, flags in found.items():
            op = next(o for o in self.ops if o.facts.get("host") == host)
            n, table = self._table(op)
            low = self.truth(("pw", host), lambda: oracle.pathwidth(table, n)) <= 1
            if len(flags) == len(oracle.PATTERNS) and (not any(flags)) != low:
                errors.append(f"{host}: patterns present {flags}, oracle pathwidth <= 1 is {low}")
        return errors


WORKLOADS = {"tw-codes": TwCodes, "reduce-verify": ReduceVerify, "minor-search": MinorSearch}
