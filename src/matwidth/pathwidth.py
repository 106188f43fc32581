"""Ordering widths, exact matroid pathwidth with certificate orderings,
a greedy upper bound, and caterpillar branch-decompositions.

The exact solver is a DP over prefix sets:
B(S) = max(lambda(S), min over e in S of B(S - e)), B(empty) = 0, and the
optimal ordering is recovered by walking predecessors from the full
ground set.  The same DP (`prefix_dp`) with vertex-boundary costs gives
graph pathwidth.

States are class counts, not subsets.  The ground set is split into
parallel classes (columns equal once scaled to lead with 1, and all loops
together).  Swapping two elements of a class is an automorphism of M, so
lambda(S), and by induction B(S), depend only on how many elements of each
class S holds: r(S) is the simplification's rank of the classes S meets,
r(E - S) that of the classes S does not hold whole.  A state is the count
vector c stored as x = sum c_j * stride_j in mixed radix |class_j| + 1
(class 0 fastest), swept in layers of equal digit sum, and

    B(x) = max(cost[x], min over j of B[x - stride_j]).

For c_j = 0 the subtraction borrows from a higher digit, landing on a
state of a higher layer or of the same layer that is relaxed later, or
below 0 in a padding of 255s in front of B; B is still 255 there, so that
entry never wins and no digit test is needed.  With every class a
singleton the strides are 2^j, x is the subset's bitmask and this is the
subset DP.

The DP runs in threshold passes.  A pass at w relaxes only the states with
cost[x] <= w and leaves the others at 255; by induction over the layers it
gets B(x) exactly where B(x) <= w and some value above w elsewhere, since
a state with B(x) <= w has cost[x] <= w and a predecessor with B <= w.  The
first pass is at the largest over layers of the least cost in the layer,
a lower bound on B(full) because every ordering crosses every layer.  A
pass stops at the first layer where no state has B <= w, and the next one
runs at w + 1, so the pass that reaches the full state has w = B(full).
The back-walk then compares the same values as a sweep of every state:
the smallest B(x - e) at each step is at most B(x) <= w and exact, and the
entries above w neither win nor tie with it.  On the apex matroids of the
reduction and on random codes only a few percent of the states are
relaxed; a layer row whose least cost exceeds w is never listed, and a
block of rows whose largest cost is at most w is relaxed without a cost
test (`_StateSpace`).

The back-walk removes, from the winning class, its remaining member with
the smallest tie key.  Within a class every member gives the same
B(S - e), so this is the subset DP's tie rule: the e with smallest
(B(S - e), tie_key(e), e).  On the apex matroids of the graph reduction
every element has a parallel twin, so an n-element instance has 3^(n/2)
states instead of 2^n.  The members of a batch that one pass reaches are
walked back together when there are at least WALK_TOGETHER of them
(`_walk_back_batch`): each step is one gather of B(x - e) for every
class's next member e in every member, one argmin over the tie rule
packed into one integer, and one update.  Fewer members, and the lone
member of every single solve, are walked one by one in Python
(`_walk_back`), which costs less until about five members: on the
minors of `verify minor-monotone`, in-process on a 2-vCPU VM, a batch of
2 walked together took 2.7x as long as its two Python walks, one of 4
1.4x, one of 10 0.5x.

`_solve` is the one exact solver of a matroid M, for a list of members:
M itself, or single-element minors M \\ e and M / e, whose lambda is read
from one array r of M's class ranks r(S), with no minor matrix or table.
r(E - S) is r at the complement state ~S (count |class_j| - c_j in every
class), r reversed along every axis, so every member has

    lambda(S) = r'(S) + r'(~S) - r'(0) - r'(~0),  ~S in its own counts,

r' = r for M, and r with e's count sliced to c_e <= |class_e| - 1 for M \\ e
(E - e - S = E - (S + e)), or to c_e >= 1 for M / e (r(S + e) - r(e) is its
rank).  A minor's classes are M's with e removed:
parallel elements of M stay interchangeable in M \\ e and M / e, and a
contraction that makes more elements parallel only leaves finer classes
and more states than needed; the back-walk's tie rule is the subset DP's
whatever the classes.  Members over the same class sizes go to one
`prefix_dp` call, a cost row each, relaxed together in one flat array
along one listing of the layers, so a pass pays its numpy calls once for
all; M alone is a batch of one.  A batch holds at most as many states as
M's own DP, or BATCH_STATES when that is more, and is sliced to fit: a
simple M, such as every catalog entry, gives one batch of its 2n minors
over 2^(n-1) states.  The members share the passes: the first runs at the
lower bound taken over all members' costs, and a pass at w leaves every
member's B(x) exact where it is at most w, so a member whose full state a
pass reaches has B(full) exact and is walked back to the order a DP of its
own would give.  Every order is certified (`_certified`): its prefix
lambdas by elimination on M's columns, with e's column pushed first into
both bases for a contraction, are compared entry by entry with the
gathered lambda and with the width.

A caller that knows an upper bound u on B(full) passes it, and the DP only
decides whether B(full) <= u - 1: no pass when the layer bound already
reaches u, for then B(full) = u, and otherwise one pass at u - 1.  A pass
at w fails to reach the full state exactly when B(full) > w, so a member
it does not reach has B(full) = u and gets no order.  A member it reaches
is walked back as after the pass at B(full), since B is exact wherever it
is at most u - 1, which covers every value that wins or ties on the walk.
`pathwidth_exact` passes an ordering, whose certificate `_solve` computes
by elimination and returns when the DP cannot beat it, so no caller can
vouch for a width: `reduce --verify` passes the ordering that
`reduction.decomp_to_ordering` reads off the graph's optimal path
decomposition, of width at most pw(G) + 1, and `pathwidth_and_minors`
(behind `verify-excluded`) the order of M's least-width deletion M \\ e
with e appended, of width at most pw(M \\ e) + 1.  `pathwidth_at_most(M,
w)` (behind `check-tw1`) passes the width w + 1: its answer is only whether
B(full) <= w, and a yes is certified as every order is.

The solver has one refusal rule, `matroid.check_budget`, checked before
anything is allocated: TABLE_BYTES per entry of the simplification's rank
table plus STATE_BYTES per class-count state must fit in EXACT_BYTES,
what a simple 24-element matroid needs.  The number of elements does not
count by itself: K5's apex matroid (30 elements, 15 parallel pairs, a
2^15 table and 3^15 states) fits, a simple 25-element matroid does not.
Graph pathwidth (`graph.graph_pathwidth`) is refused by the same rule,
with no table and 2^n states.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import algebra
from .matroid import VectorMatroid, check_budget, delete, label_key

LOW_STATES = 1 << 16  # low part of the state space, grouped by digit sum once
CHUNK = 1 << 12  # states relaxed at once, or 1/128 of the states on large spaces
ONE_GATHER = 1 << 13  # up to this many predecessors, one gather at computed indices
# states of one batch of _solve's members, over all of them, when M has fewer
BATCH_STATES = 1 << 15
WALK_TOGETHER = 5  # members reached by one pass from which they are walked back together


class NotAPermutation(ValueError):
    """The given ordering is not a permutation of the ground set."""


class TooFewElements(ValueError):
    """Caterpillar trees need at least two leaves."""


class LeafLabelMismatch(ValueError):
    """A branch-decomposition's leaf labels must be exactly the ground set."""


@dataclass(frozen=True)
class WidthCertificate:
    """An ordering together with all its prefix connectivity values."""

    width: int
    ordering: tuple
    prefix_lambdas: tuple

    def to_doc(self) -> dict:
        return {
            "width": self.width,
            "ordering": list(self.ordering),
            "prefix_lambdas": list(self.prefix_lambdas),
        }


def _check_permutation(M: VectorMatroid, ordering) -> tuple:
    ordering = tuple(ordering)
    if len(ordering) != M.size or set(ordering) != set(M.labels):
        raise NotAPermutation("ordering must list every ground element exactly once")
    return ordering


def width_of_ordering(M: VectorMatroid, ordering) -> WidthCertificate:
    """Certificate for w_M(e_1..e_n) = max over prefixes of lambda, by
    elimination on the matrix columns and never a rank table: r(prefix)
    from one echelon_push pass in order, r(E - prefix) from one in reverse
    order."""
    ordering = _check_permutation(M, ordering)
    lambdas = _prefix_lambdas(M.field, [M.columns[M.position(lbl)] for lbl in ordering])
    return WidthCertificate(max(lambdas, default=0), ordering, lambdas)


def _prefix_lambdas(field, cols, contracted=None) -> tuple:
    """lambda of every prefix of the columns cols, in order, by elimination:
    r(prefix) from one echelon_push pass in order, r(rest) from one in
    reverse order, r(all) from the end of the first.  With contracted, the
    column of an element e outside cols, both passes start from e's basis
    and count from there, r(X + e) - r(e) = r_{M/e}(X): the lambdas of
    M / e."""

    def ranks(seq):
        basis = []
        if contracted is not None:
            algebra.echelon_push(field, basis, contracted)
        start, out = len(basis), []
        for col in seq:
            algebra.echelon_push(field, basis, col)
            out.append(len(basis) - start)
        return out

    head = ranks(cols)  # head[t] = r(cols[: t + 1])
    tail = ranks(reversed(cols))[::-1][1:] + [0]  # tail[t] = r(cols[t + 1 :])
    full = head[-1] if head else 0
    return tuple(h + t - full for h, t in zip(head, tail))


def parallel_classes(M: VectorMatroid) -> list:
    """Column positions grouped into parallel classes, in order of first
    column: columns agree once scaled to lead with 1, and the zero columns
    (loops) form one class."""
    classes = {}
    for j, col in enumerate(M.columns):
        classes.setdefault(algebra._unit_row(M.field, col), []).append(j)
    return list(classes.values())


def _strides(classes) -> tuple:
    """Mixed-radix strides of the class-count states and their number."""
    strides, size = [], 1
    for c in classes:
        strides.append(size)
        size *= len(c) + 1
    return strides, size


def _class_ranks(M: VectorMatroid, classes) -> np.ndarray:
    """r(S) of every class-count state S (uint8, module docstring), shaped
    with one axis per class, class j on axis J - 1 - j: the rank table of
    the simplification, which keeps one element of each class, a loop too,
    gathered along each class axis by [c > 0].  For a simple M it is a view
    of M's table; r(E - S) is this array reversed along every axis."""
    reps = {c[0] for c in classes}
    simple = M if len(reps) == M.size else delete(M, [lbl for i, lbl in enumerate(M.labels) if i not in reps])
    ranks = simple.rank_table().reshape((2,) * len(reps))  # class 0 fastest
    for j, c in enumerate(classes):
        if len(c) > 1:
            ranks = np.take(ranks, np.minimum(np.arange(len(c) + 1), 1), axis=len(classes) - 1 - j)
    return ranks


def _gather(ranks, out, axis=None, op=None) -> None:
    """lambda of M, or of M \\ e or M / e (op "delete" or "contract") with
    e's class on axis, over the member's class-count states, written into
    out from M's class ranks (`_class_ranks`) by the module docstring's one
    formula: r' + r' reversed along every axis, less its value at S = 0."""
    if axis is not None:
        ranks = ranks[(slice(None),) * axis + (slice(-1) if op == "delete" else slice(1, None),)]
    lam = out.reshape(ranks.shape)  # a reversed operand is copied faster than summed
    lam[...] = ranks[(slice(None, None, -1),) * ranks.ndim]
    lam += ranks
    out -= out[0]


def prefix_dp(cost: np.ndarray, classes, tie_key, upper=None):
    """The layered DP B(x) = max(cost[x], min over j of B[x - stride_j]),
    B(0) = 0, over class-count states x (module docstring), and an optimal
    order of the elements walked back to front from the full state.
    classes lists each class's element indices; an int n stands for the n
    singletons {0}, .., {n - 1}, where x is a subset's bitmask.  At each
    step of the walk the e with smallest (B(x - e), tie_key(e), e) goes
    last.  Returns (B(full state), order).

    cost is uint8 with every entry below 255 (lambda <= 64 on a matroid, at
    most 25 on a graph's vertex boundary).  The DP runs in threshold passes
    (module docstring) from the largest layer minimum of cost upwards; a
    pass at w leaves B(x) where it is at most w and a value above w
    elsewhere.

    cost may carry a leading batch axis, (members, states): each row is its
    own DP over the same class sizes, classes then holds one class list per
    member, and the result is a list of one (B(full state), order) per
    member.  A single cost table is a batch of one.  The members share the
    passes (module docstring); the members whose full state a pass reaches
    are walked back at once, together from WALK_TOGETHER of them on.

    upper = u, when given, makes the DP decide only whether each member's
    B(full state) is at most u - 1: it runs no pass when the layer bound
    reaches u, and otherwise one pass at u - 1.  A member that pass reaches
    gets its exact B(full state) and order; one it does not reach, or every
    member when no pass runs, gets (u, None), which means "above u - 1".
    That is B(full state) = u only when u is a known upper bound, as
    `pathwidth_exact` passes an ordering's width; `pathwidth_at_most`
    passes w + 1 to decide whether B(full state) <= w (module
    docstring)."""
    lone = cost.ndim == 1
    if lone:
        classes = [classes]
    classes = [[[e] for e in range(c)] if isinstance(c, int) else c for c in classes]
    strides, size = _strides(classes[0])
    space = _StateSpace(cost, classes[0])
    w = space.lower_bound()
    passes = itertools.count(w) if upper is None else [upper - 1] if w < upper else []
    out = [(upper, None)] * len(classes)
    pending = list(range(len(classes)))
    for w in passes:
        if not pending:
            break
        if space.threshold_pass(w):
            full = space.B[:, -1].tolist()
            reached = [k for k in pending if full[k] <= w]
            if len(reached) >= WALK_TOGETHER:
                orders = _walk_back_batch(space.B, reached, classes, strides, tie_key)
            else:
                orders = [_walk_back(space.B[k], classes[k], strides, tie_key) for k in reached]
            for k, order in zip(reached, orders):
                out[k] = full[k], order
            pending = [k for k in pending if full[k] > w]
    return out[0] if lone else out


def _walk_back(B, classes, strides, tie_key) -> list:
    """An optimal order read from one member's B, back to front from the
    full state: each step removes, of each class's next member e (the
    smallest (tie_key(e), e) left in it), the one with smallest
    (B(x - e), tie_key(e), e)."""
    members = [sorted((tie_key(e), e) for e in c) for c in classes]
    taken = [0] * len(classes)
    seq = []
    x = B.size - 1
    while x:
        _, _, e, j = min((int(B[x - strides[j]]), *c[t], j)
                         for j, (c, t) in enumerate(zip(members, taken)) if t < len(c))
        seq.append(e)
        taken[j] += 1
        x -= strides[j]
    return seq[::-1]


def _walk_back_batch(B, rows, classes, strides, tie_key) -> list:
    """`_walk_back` of the members rows of B (members, states), over the
    same class sizes, all at once: each step is one gather of B(x - e) for
    every class's next member e in every member, one argmin and one update.
    The tie rule (B(x - e), tie_key(e), e) is one integer B(x - e) * R +
    rank(e), rank the place of e among the R elements of all members in
    (tie_key, e) order; a class with no member left has rank 256 * R and
    never wins, whatever the entry its borrowed index reads."""
    sizes = [len(c) for c in classes[rows[0]]]
    steps = sum(sizes)
    if not steps:
        return [[] for _ in rows]
    elements = sorted({e for k in rows for c in classes[k] for e in c}, key=lambda e: (tie_key(e), e))
    rank = {e: r for r, e in enumerate(elements)}
    R, J, depth = len(elements), len(sizes), max(sizes) + 1
    # ranks[m, j, t]: the rank of class j's (t + 1)-th smallest member in
    # the m-th member walked, and 256 * R past its last; each member's
    # ranks are sorted class by class as one row, on j * R + rank
    cls = np.repeat(np.arange(J), sizes)
    ordered = np.array([rank[e] for k in rows for c in classes[k] for e in c]).reshape(len(rows), -1) + cls * R
    ordered.sort(axis=1)
    ranks = np.full((len(rows), J, depth), 256 * R, dtype=np.intp)
    ranks[:, cls, np.arange(steps) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = ordered - cls * R
    ranks = ranks.reshape(-1)
    nxt = np.arange(0, ranks.size, depth)  # (m, j): class j's next member in member m
    cur = ranks[nxt].reshape(len(rows), J)
    strides = np.array(strides, dtype=np.intp)
    flat = B.reshape(-1)
    at = np.array(rows, dtype=np.intp) * B.shape[1] + B.shape[1] - 1  # the full states
    firsts = np.arange(0, nxt.size, J)
    seq = np.empty((steps, len(rows)), dtype=np.intp)
    for step in range(steps - 1, -1, -1):
        key = np.multiply(flat[at[:, None] - strides], R, dtype=np.intp)
        key += cur
        j = key.argmin(axis=1)
        at -= strides[j]
        j += firsts
        seq[step] = cur.reshape(-1)[j]
        nxt[j] += 1
        cur.reshape(-1)[j] = ranks[nxt[j]]
    return np.take(elements, seq.T).tolist()


@functools.cache
def _digit_groups(radices: tuple, dtype) -> tuple:
    """The mixed-radix numbers below prod(radices), first radix fastest,
    grouped by digit sum, each group in descending order, as read-only
    arrays.  x and its complement prod - 1 - x have digit sums adding up to
    the largest, so only the lower half of the groups is found by scanning.
    Kept per (radices, dtype): a run solves many instances with the same
    class sizes."""
    sums = np.zeros(1, dtype=np.uint8)
    for r in radices:
        sums = (np.arange(r, dtype=np.uint8)[:, None] + sums).reshape(-1)
    top, last = int(sums[-1]), sums.size - 1
    groups = [(sums == s).nonzero()[0][::-1].astype(dtype) for s in range(top // 2 + 1)]
    groups += [(last - g)[::-1] for g in reversed(groups[:(top + 1) // 2])]
    for g in groups:
        g.flags.writeable = False
    return tuple(groups)


class _StateSpace:
    """The class-count states of a batch of DPs over the same class sizes,
    one row of cost per member (a 1-D cost is a batch of one), split as
    x = h * low + l: l counts the first classes (at most LOW_STATES numbers)
    and h the others.  Layer d is listed block by block: the rows h of high
    digit sum f, times the low numbers of digit sum d - f, for f descending;
    a block lists its rows member by member, and rows and low numbers are
    in descending order (see threshold_pass for why).  The low numbers are
    grouped by digit sum once, so no layer is found by scanning every state.
    A block is (k * states + h * low for its rows h in each member k, its
    low numbers, the least cost of each of those rows, the least and the
    largest cost over the block).

    The members' B lie end to end in one flat array, as cost's rows do, so
    a state has the same index in both and every gather is a 1-D one.  The
    array is padded in front with 255s and read through one view per
    stride, shifted so that entry i of the view is B[i - stride]: every
    predecessor is a plain gather at i."""

    def __init__(self, cost, classes):
        radices = tuple(len(c) + 1 for c in classes)
        strides, size = _strides(classes)
        k, low = 0, 1
        while k < len(radices) and low * radices[k] <= LOW_STATES:
            low *= radices[k]
            k += 1
        self.cost = cost.reshape(-1)
        members = self.cost.size // size
        pad = max(strides, default=0)
        self._padded = np.empty(pad + self.cost.size, dtype=np.uint8)
        self._flat = self._padded[pad:]
        self.B = self._flat.reshape(members, size)
        self.preds = [self._padded[pad - s:pad - s + self.cost.size] for s in strides]
        self.shift = np.array(strides, dtype=np.intp)[:, None] - pad
        self.chunk = max(CHUNK, size >> 7)  # states relaxed at once
        lo = _digit_groups(radices[:k], np.uint16)
        hi = _digit_groups(radices[k:], np.intp)
        # least and largest cost of each row within each low group, row
        # k * (size / low) + h being row h of member k
        rows = self.cost.reshape(-1, low)
        least = np.empty((rows.shape[0], len(lo)), dtype=np.uint8)
        most = np.empty_like(least)
        for g, G in enumerate(lo):
            block = rows.take(G, axis=1)
            np.minimum.reduce(block, axis=1, out=least[:, g])
            np.maximum.reduce(block, axis=1, out=most[:, g])
        # the rows of each high digit sum f in every member, as k * states
        # + h * low, with their least costs and the least and largest cost
        # over them, per low group
        firsts = np.arange(0, rows.shape[0], size // low)[:, None]
        high = []
        for h in hi:
            at = (firsts + h).reshape(-1)
            rmin = least[at]
            high.append((at * low, rmin, rmin.min(axis=0).tolist(), most[at].max(axis=0).tolist()))
        self.layers = []
        for d in range(1, len(lo) + len(hi) - 1):
            self.layers.append([(base, lo[d - f], rmin[:, d - f], bmin[d - f], bmax[d - f])
                                for f, (base, rmin, bmin, bmax) in enumerate(high)
                                if 0 <= d - f < len(lo)][::-1])

    def lower_bound(self) -> int:
        """The largest over layers d >= 1 of the least cost in layer d over
        all members: every order passes through every layer, so it is at
        most each member's B(full)."""
        return max((min(bmin for *_, bmin, _ in blocks) for blocks in self.layers), default=0)

    def threshold_pass(self, w) -> bool:
        """One pass at threshold w in every member (module docstring):
        afterwards B(x) is exact where it is at most w and above w
        elsewhere.  False at the first layer where no state of any member
        has B <= w.

        A layer, in all members, is relaxed in chunks, each read before it
        is written.  A gather at a count c_j = 0 borrows from the
        next nonzero count and lands in a later layer, still 255, unless
        class j is a singleton and c_(j+1) > 0.  Then x - stride_j is in the
        same layer: a smaller number of the same row and low group, a
        smaller row of the same block, or, when j is the last low class, row
        h - 1 of the block listed next.  Each comes later in the listing
        than x, so it is still 255 too.  A borrow past the highest count
        lands before the member's first state: in the padding, or in a state
        of the member before with every count from c_j up full, so of a
        later layer.

        Small chunks take all predecessors in one gather at computed
        indices, three numpy calls; larger ones take one gather per stride
        through its view of B, which builds no index array."""
        self._padded.fill(255)
        self.B[:, 0] = 0
        got = np.empty((len(self.preds), self.chunk), dtype=np.uint8)
        for blocks in self.layers:
            reached = False
            for idx, dense in self._chunks(blocks, w):
                c = self.cost[idx]
                if not dense:
                    keep = c <= w
                    idx, c = idx[keep], c[keep]
                    if not idx.size:
                        continue
                if idx.size * len(self.preds) <= ONE_GATHER:
                    best = np.minimum.reduce(self._padded[idx - self.shift])
                else:
                    buf = got[:, :idx.size]
                    for j, pred in enumerate(self.preds):
                        pred.take(idx, out=buf[j])
                    best = np.minimum.reduce(buf)
                np.maximum(best, c, out=best)
                self._flat[idx] = best
                reached = reached or int(np.minimum.reduce(best)) <= w
            if not reached:
                return False
        return True

    def _chunks(self, blocks, w):
        """The states of a layer's rows that reach cost <= w, in listing
        order, in pieces of at most self.chunk states, each with whether
        every cost in its block is <= w."""
        for base, G, rmin, bmin, bmax in blocks:
            if bmin > w:
                continue
            if bmax > w and base.size > 1:
                base = base[rmin <= w]
            if G.size > self.chunk:
                for b in base:
                    for i in range(0, G.size, self.chunk):
                        yield G[i:i + self.chunk] + b, bmax <= w
            else:
                step = self.chunk // G.size
                for i in range(0, base.size, step):
                    yield (base[i:i + step, None] + G).reshape(-1), bmax <= w


def pathwidth_exact(M: VectorMatroid, upper=None) -> WidthCertificate:
    """Optimal width and a witnessing ordering.  Refused by `check_budget`,
    before anything is allocated, for the simplification's rank table and
    the class-count states (module docstring).

    upper, when given, is an ordering of M's labels.  Its certificate is
    computed by elimination (`width_of_ordering`), and the DP only decides
    whether pw(M) is below that width (`prefix_dp`): the ordering's
    certificate is returned when it is not, the DP's own otherwise."""
    (cert,) = _solve(M, [None], None if upper is None else tuple(upper))
    return cert


def pathwidth_at_most(M: VectorMatroid, w: int) -> bool:
    """Whether pw(M) <= w, from one threshold pass at w, or none when the
    layer bound already exceeds w (`prefix_dp` with upper = w + 1).  A yes
    is believed only once the DP's order is certified by elimination on
    M's columns (`_certified`).  Refused as `pathwidth_exact` is."""
    (cert,) = _solve(M, [None], w + 1)
    return cert is not None


def pathwidth_and_minors(M: VectorMatroid) -> tuple:
    """(`pathwidth_exact(M)`, the (label, "delete" or "contract",
    certificate) of M \\ e and M / e for every element e, in column order,
    the deletion first).  The minors are solved first, in batches (module
    docstring).  M's DP then takes as its upper bound the certified order of
    the least-width deletion M \\ e (the first in column order) with e
    appended.  For P within E - e, lambda_M(P) <= lambda_{M \\ e}(P) + 1,
    since r(E - P) <= r(E - e - P) + 1 and r(E - e) <= r(E), and the full
    prefix has lambda 0, so that order has width at most pw(M \\ e) + 1; when
    the layer bound reaches its width the DP runs no pass."""
    members = [(e, op) for e in range(M.size) for op in ("delete", "contract")]
    minors = [(M.labels[e], op, cert) for (e, op), cert in zip(members, _solve(M, members))]
    deletions = [(cert.width, cert.ordering + (lbl,)) for lbl, op, cert in minors if op == "delete"]
    _, upper = min(deletions, key=lambda d: d[0], default=(0, ()))
    return pathwidth_exact(M, upper=upper), minors


def _solve(M: VectorMatroid, members, upper=None) -> list:
    """The certificate of each member's DP (module docstring): M itself for
    None, M \\ e or M / e for (e, "delete") or (e, "contract"), e a column
    position.  upper is None, a width u, or an ordering of M's labels of
    width u (`prefix_dp`): a member the DP cannot beat gets the ordering's
    certificate, or None when upper is a width.  Refused by `check_budget`
    for M's own table and states before any work, and by nothing else."""
    classes = parallel_classes(M)
    _, states = _strides(classes)
    check_budget(1 << len(classes), states)
    bound = None
    if upper is not None and not isinstance(upper, int):
        bound = width_of_ordering(M, upper)
        upper = bound.width
    ranks = _class_ranks(M, classes)
    # the members of each shape of class sizes, with the axis of e's class j
    # (J - 1 - j) and the member's classes, M's with e taken from class j
    groups = {}
    for member in members:
        rest, axis, op = classes, None, None
        if member:
            e, op = member
            j = next(j for j, c in enumerate(classes) if e in c)
            kept = [i for i in classes[j] if i != e]
            rest, axis = classes[:j] + ([kept] if kept else []) + classes[j + 1:], len(classes) - 1 - j
        groups.setdefault(tuple(map(len, rest)), []).append((member, axis, op, rest))
    certs, left = {}, len(members)
    for group in groups.values():
        size = _strides(group[0][3])[1]
        per = max(states, BATCH_STATES) // size
        for start in range(0, len(group), per):
            part = group[start:start + per]
            check_budget(1 << len(classes), len(part) * size)
            lam = np.empty((len(part), size), dtype=np.uint8)
            for row, (_, axis, op, _) in zip(lam, part):
                _gather(ranks, row, axis, op)
            left -= len(part)
            if not left:
                # a non-simple M's class ranks are a copy of a byte a state:
                # freed before the last DP, M's own when it is alone
                del ranks
            solved = prefix_dp(lam, [rest for *_, rest in part], lambda i: label_key(M.labels[i]), upper=upper)
            for (member, _, op, rest), row, (width, order) in zip(part, lam, solved):
                contracted = M.columns[member[0]] if op == "contract" else None
                certs[member] = bound if order is None else _certified(M, row, rest, width, order, contracted)
    return [certs[member] for member in members]


def _certified(M: VectorMatroid, lam, classes, width, order, contracted=None) -> WidthCertificate:
    """The certificate of a DP answer (width, order) on M, or on M / e with
    contracted the column of e: the order's prefix lambdas by elimination
    on M's columns, checked entry by entry against the DP's lambda lam over
    classes and in their largest against width, so the table that
    produced the width cannot vouch for itself."""
    if sorted(order) != sorted(i for c in classes for i in c):
        raise AssertionError(f"DP order {order} is not a permutation of its classes")
    lambdas = _prefix_lambdas(M.field, [M.columns[i] for i in order], contracted)
    strides, _ = _strides(classes)
    stride_of = {i: s for s, c in zip(strides, classes) for i in c}
    x = 0
    for i, lam_i in zip(order, lambdas):
        x += stride_of[i]
        if lam[x] != lam_i:
            raise AssertionError(f"rank table gives lambda {lam[x]} for a prefix, elimination {lam_i}")
    cert = WidthCertificate(max(lambdas, default=0), tuple(M.labels[i] for i in order), lambdas)
    if width != cert.width:
        raise AssertionError(f"DP width {width} but the ordering has width {cert.width}")
    return cert


def pathwidth_upper_greedy(M: VectorMatroid) -> WidthCertificate:
    """Greedy upper bound: repeatedly take the element minimizing the new
    prefix lambda, ties by label order."""
    remaining = list(range(M.size))
    mask = 0
    ordering = []
    lambdas = []
    while remaining:
        best = None
        for i in remaining:
            lam = M.connectivity(mask | (1 << i))
            cand = (lam, label_key(M.labels[i]), i)
            if best is None or cand < best:
                best = cand
        lam, _, i = best
        remaining.remove(i)
        mask |= 1 << i
        ordering.append(M.labels[i])
        lambdas.append(lam)
    return WidthCertificate(max(lambdas, default=0), tuple(ordering), tuple(lambdas))


# ---------------------------------------------------------------------------
# cubic trees


@dataclass(frozen=True)
class CubicTree:
    """A tree with all degrees 1 or 3 and leaves labelled by ground elements."""

    nodes: tuple
    edges: tuple
    leaf_labels: tuple  # (node, label) pairs

    def leaf_map(self) -> dict:
        return dict(self.leaf_labels)


def caterpillar(ordering) -> CubicTree:
    """The spine tree whose leaves, in spine order, are the ordering."""
    ordering = tuple(ordering)
    n = len(ordering)
    if n < 2:
        raise TooFewElements("caterpillar needs at least 2 elements")
    leaves = tuple(range(n))
    leaf_labels = tuple((i, ordering[i]) for i in range(n))
    if n == 2:
        return CubicTree(leaves, ((0, 1),), leaf_labels)
    t = n - 2
    spine = tuple(range(n, n + t))
    edges = [(spine[j], spine[j + 1]) for j in range(t - 1)]
    edges.append((0, spine[0]))
    for i in range(1, n - 1):
        edges.append((i, spine[i - 1]))
    edges.append((n - 1, spine[t - 1]))
    return CubicTree(leaves + spine, tuple(edges), leaf_labels)


def branch_width_of_tree(M: VectorMatroid, T: CubicTree) -> int:
    """Max over tree edges of lambda(displayed leaf set)."""
    leaf_map = T.leaf_map()
    if set(leaf_map.values()) != set(M.labels) or len(leaf_map) != M.size:
        raise LeafLabelMismatch("leaf labels must be exactly the ground set")
    adj = {v: [] for v in T.nodes}
    for a, b in T.edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in T.nodes:
        d = len(adj[v])
        if d not in (1, 3):
            raise ValueError(f"node {v} has degree {d}; cubic trees need 1 or 3")
    width = 0
    for a, b in T.edges:
        # leaves on a's side of the edge (a, b)
        stack = [a]
        seen = {a, b}
        mask = 0
        while stack:
            v = stack.pop()
            if v in leaf_map:
                mask |= 1 << M.position(leaf_map[v])
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        width = max(width, M.connectivity(mask))
    return width
