"""Reduced characteristic trees and their combinators.

A reduced characteristic tree is the game tree of a structure (one
child per point or set move, up to a depth q) with each node label
replaced by the ordered structure induced by the chosen elements (with
set traces) and equal sibling subtrees merged.  Reduced trees are
hash-consed in an RCForest, so two subtrees are equal iff their
interned ids are equal, and the number of distinct nodes is bounded by
a function of q and the vocabulary only.  The unmerged full tree grows
like (2^n + n)^q and is only built by the tests, as an oracle.

The tree cross product combines the reduced trees of two structures
into the reduced tree of their labeled composition without touching the
underlying graphs; folding it over a parse tree yields the reduced tree
of the generated graph in one pass.

Reduced trees are built for a move budget: the (point, set) move counts
that get children.  A depth q is the paper's tree (every m + p <= q);
model checking builds the smaller tree of the moves its formula's game
can take (logic.move_budget).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DepthBudgetError, RwmsoError, ScaleGuardError, WidthMismatchError
from .parsetree import CompositionOp, ParseTree, fold
# compose is no longer called here.  With ordered_induced it is
# rename_combine's slow route, and perfbench's tracer wraps both at this
# module, so both stay importable from it.
from .structures import (OrderedStructure, Structure, _as_masks, _unchecked,
                         compose, ordered_induced)  # noqa: F401

# covers the documented envelope |A| <= 4, q <= 3 for direct construction
MAX_DIRECT_WORK = 10_000


# --- interned reduced characteristic trees ------------------------------

# A move budget is a down-closed set of (point moves m, set moves p),
# stored as caps[p] = the most point moves allowed after p set moves, so
# caps is non-increasing.  The depth-q tree of the paper is the staircase
# (q, q-1, ..., 0): every m + p <= q.  A node at (m, p) has point children
# iff (m + 1, p) is in the budget and set children iff (m, p + 1) is.
Budget = tuple[int, ...]


def as_budget(budget: int | Sequence[int]) -> Budget:
    """Normalise a depth q to its staircase; validate a caps sequence."""
    if isinstance(budget, int):
        if budget < 0:
            raise RwmsoError("depth must be nonnegative")
        return tuple(range(budget, -1, -1))
    caps = tuple(budget)
    if (not caps or not all(isinstance(c, int) for c in caps) or caps[-1] < 0
            or any(a < b for a, b in zip(caps, caps[1:]))):
        raise RwmsoError(
            f"move budget must be a nonempty non-increasing sequence of "
            f"nonnegative ints, got {budget!r}")
    return caps


def in_budget(caps: Budget, m: int, p: int) -> bool:
    return p < len(caps) and m <= caps[p]


def _moves_left(caps: Budget, m: int, p: int) -> int:
    """Longest move sequence the budget allows from (m, p)."""
    return max((cap - m + j - p for j, cap in enumerate(caps)
                if j >= p and cap >= m), default=0)


@dataclass(frozen=True)
class RCNode:
    """Interned node: ordered structure plus sorted child id sets.

    Children are partitioned by move kind; a point extension has one
    more position than its parent, a set extension one more trace.
    """

    ord: OrderedStructure
    point_children: tuple[int, ...]
    set_children: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.ord.positions)

    @property
    def p(self) -> int:
        return len(self.ord.set_traces)

    def has_children(self, point: bool) -> bool:
        """Whether moves of this kind were built here.  A set move (the
        empty set) always exists; a point move needs a nonempty universe."""
        return bool(self.point_children if point else self.set_children)


class RCForest:
    """Intern table for reduced characteristic trees.

    Ids are stable and identify subtrees up to deep structural equality.
    Nodes go in through intern() and are immutable.  cross_memo holds
    tree_cross_product's results: it maps (caps, g.rows, f1.rows,
    f2.rows), one key per move budget and operator, to a dict from
    (id1, id2, d) to the product's id.  The operator is keyed by its
    matrix rows, so equal operators parsed from text share entries, and
    the inner keys are ints and the indicator vector only.  It lives
    here because ids mean nothing outside their forest.  Not
    thread-safe: confine construction to one thread.
    """

    def __init__(self):
        self._ids: dict[tuple, int] = {}
        self._nodes: list[RCNode] = []
        self.cross_memo: dict[tuple, dict[tuple, int]] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def intern(self, ord_struct: OrderedStructure, point_children: Iterable[int],
               set_children: Iterable[int]) -> int:
        point = tuple(sorted(set(point_children)))
        set_kids = tuple(sorted(set(set_children)))
        key = (ord_struct, point, set_kids)
        nid = self._ids.get(key)
        if nid is None:
            nid = len(self._nodes)
            self._ids[key] = nid
            self._nodes.append(RCNode(ord_struct, point, set_kids))
        return nid

    def node(self, nid: int) -> RCNode:
        return self._nodes[nid]

    def reachable(self, root: int) -> list[int]:
        seen = {root}
        stack = [root]
        order = []
        while stack:
            nid = stack.pop()
            order.append(nid)
            n = self._nodes[nid]
            for ch in n.point_children + n.set_children:
                if ch not in seen:
                    seen.add(ch)
                    stack.append(ch)
        return sorted(order)


@dataclass(frozen=True)
class RCTree:
    """A root id, the forest that owns it, and the move budget it was
    built for (a depth q is normalised to its staircase)."""

    forest: RCForest
    root: int
    budget: Budget

    def __post_init__(self):
        object.__setattr__(self, "budget", as_budget(self.budget))

    def size(self) -> int:
        return len(self.forest.reachable(self.root))


def _direct_work(n: int, depth: int) -> int:
    """Bound on the nodes a walk over every point and set move visits."""
    return ((1 << n) + n) ** depth if depth > 0 else 1


def reduced_char_tree_direct(forest: RCForest, a: Structure, budget: int | Budget,
                             c: Sequence[int] = (), sets: Sequence[Iterable[int] | int] = (),
                             force: bool = False) -> int:
    """Reduced characteristic tree straight from the definition.

    Enumerates all moves of the underlying structure, so this is the
    brute-force oracle; the tree cross product is the scalable path.
    The root sits at (len(c), len(sets)); below it, moves exist exactly
    where the budget allows them.
    """
    caps = as_budget(budget)
    c = tuple(c)
    masks = _as_masks(a.n, sets)
    remaining = _moves_left(caps, len(c), len(masks))
    if not force and (a.n > 4 or _direct_work(a.n, remaining) > MAX_DIRECT_WORK):
        raise ScaleGuardError(
            f"direct construction would explore ~{_direct_work(a.n, remaining)} moves; "
            "pass force=True")

    def rec(c: tuple[int, ...], masks: tuple[int, ...]) -> int:
        label = ordered_induced(a, c, masks)
        m, p = len(c), len(masks)
        point = set_kids = ()
        if in_budget(caps, m + 1, p):
            point = {rec(c + (d,), masks) for d in range(a.n)}
        if in_budget(caps, m, p + 1):
            set_kids = {rec(c, masks + (x,)) for x in range(1 << a.n)}
        return forest.intern(label, point, set_kids)

    return rec(c, tuple(masks))


def leaf_char_tree(forest: RCForest, budget: int | Budget, t: int) -> int:
    """Reduced tree of the single new-vertex structure (label {1})."""
    if t < 1:
        raise RwmsoError("leaf vertices carry label 1; need t >= 1")
    return reduced_char_tree_direct(forest, Structure(1, t, (0,), (1,)), budget,
                                    force=True)


# --- combining reduced trees --------------------------------------------

IndicatorVector = tuple[tuple[int, int], ...]


def indicator_vector(a1: Iterable[int], a2: Iterable[int],
                     c: Sequence[int]) -> IndicatorVector:
    """Record, per entry of c, its side and its index within that side."""
    s1, s2 = set(a1), set(a2)
    if s1 & s2:
        raise RwmsoError(f"sides overlap: {sorted(s1 & s2)}")
    counts = [0, 0]
    out = []
    for e in c:
        if e in s1:
            counts[0] += 1
            out.append((1, counts[0]))
        elif e in s2:
            counts[1] += 1
            out.append((2, counts[1]))
        else:
            raise RwmsoError(f"element {e} is on neither side")
    return tuple(out)


def _check_indicator(d: IndicatorVector, m1: int, m2: int):
    counts = [0, 0]
    for side, k in d:
        if side not in (1, 2):
            raise RwmsoError(f"bad indicator side {side}")
        counts[side - 1] += 1
        if k != counts[side - 1]:
            raise RwmsoError("indicator indices must be 1,2,... per side")
    if counts != [m1, m2]:
        raise RwmsoError(
            f"indicator covers {counts} positions, operands have {[m1, m2]}")


def rename_combine(o1: OrderedStructure, o2: OrderedStructure,
                   d: IndicatorVector, op: CompositionOp) -> OrderedStructure:
    """Ordered structure of the composition, renamed via the indicator.

    Equals Ord(A1 (x) A2, c, C) whenever o_i = Ord(A_i, c[A_i], C n A_i)
    and d is the indicator vector of c.  It is built straight from the
    operands: classes in order of first occurrence in d, adjacency within
    a side from that side's rows and across sides from label parity under
    g, labels through f1 and f2, traces merged per class.  No joined
    structure is built and nothing is re-validated;
    ordered_induced(compose(A1, A2, *op), c, C) is the slow route the
    tests compare it against.
    """
    if o1.p != o2.p:
        raise RwmsoError(f"trace counts differ: {o1.p} vs {o2.p}")
    _check_indicator(d, o1.m, o2.m)
    g, f1, f2 = op
    s1, s2 = o1.structure, o2.structure
    t = s1.t
    if not t == s2.t == g.t == f1.t == f2.t:
        raise WidthMismatchError(
            f"label widths differ: {(s1.t, s2.t, g.t, f1.t, f2.t)}")
    # element e < k1 is class e of side 1, e >= k1 class e - k1 of side 2,
    # as in the joined structure of the slow route
    k1 = s1.n
    pos1, pos2 = o1.positions, o2.positions
    first: dict[int, int] = {}
    elems: list[int] = []
    positions = []
    for side, k in d:
        e = pos1[k - 1] if side == 1 else k1 + pos2[k - 1]
        cls = first.get(e)
        if cls is None:
            cls = first[e] = len(elems)
            elems.append(e)
        positions.append(cls)
    # per class: side, index on its side, adjacency row on its side, and
    # the label that decides cross edges (side 2 labels pass through g)
    info = [(True, e, s1.adj[e], s1.labels[e]) if e < k1 else
            (False, e - k1, s2.adj[e - k1], g.apply(s2.labels[e - k1]))
            for e in elems]
    adj = []
    for side, _, row_a, lab_a in info:
        row = 0
        for b, (side_b, v, _, lab_b) in enumerate(info):
            if ((row_a >> v) & 1 if side == side_b
                    else (lab_a & lab_b).bit_count() & 1):
                row |= 1 << b
        adj.append(row)
    labels = tuple(f1.apply(s1.labels[e]) if e < k1 else f2.apply(s2.labels[e - k1])
                   for e in elems)
    traces = []
    for tr1, tr2 in zip(o1.set_traces, o2.set_traces):
        merged = tr1 | (tr2 << k1)
        tr = 0
        for a, e in enumerate(elems):
            if (merged >> e) & 1:
                tr |= 1 << a
        traces.append(tr)
    return OrderedStructure(_unchecked(len(elems), t, tuple(adj), labels),
                            tuple(positions), tuple(traces))


def tree_cross_product(forest: RCForest, id1: int, id2: int, budget: int | Budget,
                       op: CompositionOp, d: IndicatorVector = ()) -> int:
    """Reduced tree of the composition from the factors' reduced trees.

    Point moves pair a point child of one side with the other side's
    whole tree (extending d); set moves pair set children of both sides.
    A factor's own (m_i, p) never exceeds the product's (m, p) and the
    budget is down-closed, so factors built for the same budget have
    every move the product needs.  Results are memoized in the forest,
    across calls.
    """
    # the fold calls this once per parse node (LinEMSO once per state
    # pair) with caps already normalised at its entry
    caps = budget if type(budget) is tuple else as_budget(budget)
    g, f1, f2 = op
    opkey = (caps, g.rows, f1.rows, f2.rows)
    memo = forest.cross_memo.get(opkey)
    if memo is None:
        memo = forest.cross_memo[opkey] = {}
    d = tuple(d)
    get = memo.get
    # most of LinEMSO's pair calls are hits: answer them before building rec
    hit = get((id1, id2, d))
    if hit is not None:
        return hit
    nodes = forest._nodes
    ncaps = len(caps)

    def rec(i1: int, i2: int, d: IndicatorVector) -> int:
        # a miss: every caller looked (i1, i2, d) up first, so hits cost
        # no call
        n1, n2 = nodes[i1], nodes[i2]
        o1, o2 = n1.ord, n2.ord
        root = rename_combine(o1, o2, d, op)
        m, p = len(d), o1.p
        point = set_kids = ()
        # in_budget(caps, m + 1, p) and in_budget(caps, m, p + 1), inlined
        if p < ncaps and m < caps[p]:
            _check_factors(n1, n2, True, m, p, caps)
            d1 = d + ((1, o1.m + 1),)
            d2 = d + ((2, o2.m + 1),)
            point = {h if (h := get((u, i2, d1))) is not None else rec(u, i2, d1)
                     for u in n1.point_children}
            point.update(h if (h := get((i1, u, d2))) is not None else rec(i1, u, d2)
                         for u in n2.point_children)
        if p + 1 < ncaps and m <= caps[p + 1]:
            _check_factors(n1, n2, False, m, p, caps)
            set_kids = {h if (h := get((u1, u2, d))) is not None else rec(u1, u2, d)
                        for u1 in n1.set_children for u2 in n2.set_children}
        out = memo[i1, i2, d] = forest.intern(root, point, set_kids)
        return out

    try:
        return rec(id1, id2, d)
    finally:
        # rec reaches itself through its closure cell; clearing the cell
        # frees it now instead of leaving a cycle to the garbage collector
        del rec


def _check_factors(n1: RCNode, n2: RCNode, point: bool, m: int, p: int,
                   caps: Budget):
    # factors are parse-tree compositions of single vertices, so a missing
    # point move means the factor was built for a smaller budget
    if not (n1.has_children(point) and n2.has_children(point)):
        kind = "point" if point else "set"
        raise DepthBudgetError(
            f"factor tree too shallow: no {kind} moves at m={m}, p={p} "
            f"for budget {list(caps)}")


def char_tree_from_parse_tree(tree: ParseTree, budget: int | Budget,
                              forest: RCForest | None = None) -> RCTree:
    """Fold the tree cross product over a parse tree, leaves to root.

    Returns the reduced characteristic tree of the generated graph, built
    for the move budget (a depth q means every m + p <= q), in time
    linear in the parse tree for a fixed budget and t.
    """
    caps = as_budget(budget)
    if forest is None:
        forest = RCForest()
    root = fold(tree, leaf_char_tree(forest, caps, tree.t),
                lambda left, right, op: tree_cross_product(forest, left, right, caps, op))
    return RCTree(forest, root, caps)


def rc_dump(forest: RCForest, root: int) -> str:
    """One line per reachable node: id kind m p |children| childIds | ord."""
    kind = {root: "root"}
    for nid in forest.reachable(root):
        n = forest.node(nid)
        for ch in n.point_children:
            kind.setdefault(ch, "point")
        for ch in n.set_children:
            kind.setdefault(ch, "set")
    lines = []
    for nid in forest.reachable(root):
        n = forest.node(nid)
        kids = n.point_children + n.set_children
        ids = " ".join(str(c) for c in kids)
        lines.append(f"{nid} {kind[nid]} {n.m} {n.p} {len(kids)} {ids}".rstrip()
                     + f" | {n.ord.encode()}")
    return "\n".join(lines) + "\n"


# --- size bound ----------------------------------------------------------

# refuse to materialize integers beyond this many bits
_BIT_LIMIT = 2_000_000


def exp_tower(i: int, x: int) -> int:
    """exp(0)(x) = x, exp(1)(x) = 2^x, exp(i)(x) = 2^(2*exp(i-1)(x))."""
    if i == 0:
        return x
    e = x if i == 1 else 2 * exp_tower(i - 1, x)
    if e > _BIT_LIMIT:
        raise ScaleGuardError(
            f"tower value needs ~2^{e.bit_length()} bits, over the guard")
    return 1 << e


def tower_at_least(i: int, x: int, n: int) -> bool:
    """Whether exp(i)(x) >= n, without materializing the tower."""
    if n <= 0:
        return True
    if i == 0:
        return x >= n
    need = (n - 1).bit_length()  # 2^e >= n iff e >= need
    if i == 1:
        return x >= need
    return tower_at_least(i - 1, x, (need + 1) // 2)


@dataclass(frozen=True)
class SizeBound:
    """Bounds from the counting argument; None when past the int guard."""

    num_trees: int | None
    tree_size: int | None
    tower_arg: int = field(default=0)


def _f_value(q: int, tau_size: int, r: int) -> int:
    if q == 0:
        return 0
    log_term = q * (q - 1).bit_length() if q > 1 else 0  # q * ceil(log2 q)
    return tau_size * q ** r + log_term + q * q


def size_bound(q: int, tau_size: int, r: int = 2) -> SizeBound:
    """Count and size bounds for reduced characteristic trees of depth q.

    num_trees bounds the number of distinct trees over all choice
    vectors; tree_size bounds the node count of any single tree.  The
    q log q term is rounded up to an integer.
    """
    if q < 0 or tau_size < 0 or r < 1:
        raise RwmsoError("bad size-bound arguments")
    f = _f_value(q, tau_size, r)
    try:
        num = exp_tower(q + 1, f)
    except ScaleGuardError:
        num = None
    try:
        size = exp_tower(q, f) ** 4
    except ScaleGuardError:
        size = None
    return SizeBound(num, size, f)
