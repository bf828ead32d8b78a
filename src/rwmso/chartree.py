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

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DepthBudgetError, RwmsoError, ScaleGuardError
from .parsetree import CompositionOp, ParseTree, fold, leaf_vertex
from .structures import OrderedStructure, Structure, _as_masks, compose, ordered_induced

# covers the documented envelope |A| <= 4, q <= 3 for direct construction
MAX_DIRECT_WORK = 10_000
# the most nodes one forest interns: ~1.3-2.1 KB each, ~0.7-1.1 GB at the cap
MAX_NODES = 500_000


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
    more position than its parent, a set extension one more trace.  ord
    is the forest's one shared copy of the label, and label its id in
    the forest's label table.
    """

    ord: OrderedStructure
    point_children: tuple[int, ...]
    set_children: tuple[int, ...]
    label: int

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
    Labels go in through label_id(), which numbers each distinct ordered
    structure once; nodes go in through intern(), keyed by a label id and
    the child ids, and are immutable.  The labels come from a finite set
    fixed by the move budget and t, so both tables stop growing once a
    fold has stabilised.

    That set's size is a tower in the budget, so the node count, not the
    depth, is what a run costs: intern() refuses a new node past MAX_NODES
    with ScaleGuardError, and every construction goes through it.

    cross_memo holds tree_cross_product's results, one dict per move
    budget and operator, which cross_memo_for gives, from (id1, id2, d)
    to the product's id: a fold answers its hits from it.  label_memo
    maps (g.rows, f1.rows, f2.rows) to a dict from (label1, label2, d) to
    the id of the product label, so rename_combine runs once per distinct
    label product: a label product depends on neither the budget nor the
    children.  Operators are keyed by their matrix rows, so equal
    operators parsed from text share entries, and the inner keys are
    ints and the indicator vector only.  The memos live here because ids
    mean nothing outside their forest.  Not thread-safe: confine
    construction to one thread.
    """

    def __init__(self):
        self._label_ids: dict[OrderedStructure, int] = {}
        self._labels: list[OrderedStructure] = []
        self._ids: dict[tuple[int, tuple[int, ...], tuple[int, ...]], int] = {}
        self._nodes: list[RCNode] = []
        self.cross_memo: dict[tuple, dict[tuple, int]] = {}
        self.label_memo: dict[tuple, dict[tuple, int]] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def cross_memo_for(self, caps: Budget, op: CompositionOp) -> dict[tuple, int]:
        g, f1, f2 = op
        return self.cross_memo.setdefault((caps, g.rows, f1.rows, f2.rows), {})

    def label_id(self, ord_struct: OrderedStructure) -> int:
        """The id of an ordered structure in the label table, equal
        structures sharing one id."""
        lid = self._label_ids.get(ord_struct)
        if lid is None:
            lid = self._label_ids[ord_struct] = len(self._labels)
            self._labels.append(ord_struct)
        return lid

    def label(self, lid: int) -> OrderedStructure:
        return self._labels[lid]

    def num_labels(self) -> int:
        return len(self._labels)

    def intern(self, label: int, point_children: Iterable[int],
               set_children: Iterable[int]) -> int:
        """The id of the node with this label id and these children.

        Each collection of children must hold distinct ids (a set, or
        ()): it is sorted, not deduplicated, into the key.
        """
        point = tuple(sorted(point_children))
        set_kids = tuple(sorted(set_children))
        key = (label, point, set_kids)
        nid = self._ids.get(key)
        if nid is None:
            nid = len(self._nodes)
            if nid >= MAX_NODES:
                raise ScaleGuardError(
                    f"the forest reached {nid} interned nodes, the ceiling "
                    f"chartree.MAX_NODES={MAX_NODES}; use a smaller formula or depth")
            self._ids[key] = nid
            self._nodes.append(RCNode(self._labels[label], point, set_kids, label))
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
        return forest.intern(forest.label_id(label), point, set_kids)

    try:
        return rec(c, tuple(masks))
    finally:
        del rec  # rec reaches itself, and so the forest, through its cell


def leaf_char_tree(forest: RCForest, budget: int | Budget, t: int) -> int:
    """Reduced tree of the single new-vertex structure (label {1})."""
    return reduced_char_tree_direct(forest, leaf_vertex(t), budget, force=True)


# --- combining reduced trees --------------------------------------------

IndicatorVector = tuple[int, ...]  # the side, 1 or 2, of each position


def _check_indicator(d: IndicatorVector, m1: int, m2: int):
    if not set(d) <= {1, 2}:
        raise RwmsoError(f"bad indicator sides {sorted(set(d) - {1, 2})}")
    counts = [d.count(1), d.count(2)]
    if counts != [m1, m2]:
        raise RwmsoError(
            f"indicator covers {counts} positions, operands have {[m1, m2]}")


def rename_combine(o1: OrderedStructure, o2: OrderedStructure,
                   d: IndicatorVector, op: CompositionOp) -> OrderedStructure:
    """Ordered structure of the composition, renamed via the indicator.

    Equals Ord(A1 (x) A2, c, C) whenever o_i = Ord(A_i, c[A_i], C n A_i)
    and d is the indicator vector of c, the side of each entry.  Each
    label holds only the elements its side's part of c reaches, in
    order, so composing the two labels and inducing on c, read off d,
    gives the same result as composing the whole factors.  The fold
    runs it once per distinct label product.
    """
    if o1.p != o2.p:
        raise RwmsoError(f"trace counts differ: {o1.p} vs {o2.p}")
    _check_indicator(d, o1.m, o2.m)
    # element e < k1 is class e of side 1, e >= k1 class e - k1 of side 2
    k1 = o1.structure.n
    it1, it2 = iter(o1.positions), iter(o2.positions)
    c = [next(it1) if side == 1 else k1 + next(it2) for side in d]
    traces = [tr1 | tr2 << k1 for tr1, tr2 in zip(o1.set_traces, o2.set_traces)]
    return ordered_induced(compose(o1.structure, o2.structure, *op), c, traces)


def tree_cross_product(forest: RCForest, id1: int, id2: int, budget: int | Budget,
                       op: CompositionOp) -> int:
    """Reduced tree of the composition from the factors' reduced trees.

    Point moves pair a point child of one side with the other side's
    whole tree (appending that side to the indicator vector d, empty at
    the roots);
    set moves pair set children of both sides.  A factor's own (m_i, p)
    never exceeds the product's (m, p) and the budget is down-closed, so
    factors built for the same budget have every move the product needs.
    Results are memoized in the forest, across calls, and so are product
    labels: a miss looks its label up by (label1, label2, d) and runs
    rename_combine only if that is new.
    """
    # both folds answer their hits from cross_memo_for themselves and
    # call this on a miss only, with caps already normalised
    caps = budget if type(budget) is tuple else as_budget(budget)
    memo = forest.cross_memo_for(caps, op)
    get = memo.get
    hit = get((id1, id2, ()))
    if hit is not None:
        return hit
    g, f1, f2 = op
    labels = forest.label_memo.setdefault((g.rows, f1.rows, f2.rows), {})
    nodes = forest._nodes
    ncaps = len(caps)

    def rec(i1: int, i2: int, d: IndicatorVector) -> int:
        # a miss: every caller looked (i1, i2, d) up first, so hits cost
        # no call
        n1, n2 = nodes[i1], nodes[i2]
        o1, o2 = n1.ord, n2.ord
        lkey = (n1.label, n2.label, d)
        root = labels.get(lkey)
        if root is None:
            root = labels[lkey] = forest.label_id(rename_combine(o1, o2, d, op))
        m, p = len(d), o1.p
        point = set_kids = ()
        # in_budget(caps, m + 1, p) and in_budget(caps, m, p + 1), inlined
        if p < ncaps and m < caps[p]:
            _check_factors(n1, n2, True, m, p, caps)
            d1, d2 = d + (1,), d + (2,)
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
        return rec(id1, id2, ())
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

    def combine_for(op: CompositionOp):
        get = forest.cross_memo_for(caps, op).get
        return lambda left, right: (hit if (hit := get((left, right, ()))) is not None
                                    else tree_cross_product(forest, left, right, caps, op))

    root = fold(tree, leaf_char_tree(forest, caps, tree.t), combine_for)
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
