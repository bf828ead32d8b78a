"""Reduced characteristic trees and their combinators.

A reduced characteristic tree is the game tree of a structure (one
child per point or set move, up to a depth q) with each node label
replaced by the ordered structure induced by the chosen elements (with
set traces) and equal sibling subtrees merged.  Reduced trees are
hash-consed in an RCForest, so two subtrees are equal iff their
interned ids are equal, and the number of distinct nodes is bounded by
a function of q and the vocabulary only.  The unmerged full tree grows
like (2^n + n)^q; it and the brute-force reduced tree of a whole
structure are built only by the tests, as oracles.  The library builds
one tree from the definition, in reduced_char_tree_direct: that of the
one vertex a parse-tree leaf creates.

The tree cross product combines the reduced trees of two structures
into the reduced tree of their labeled composition without touching the
underlying graphs; folding it over a parse tree yields the reduced tree
of the generated graph in one pass.

Reduced trees are built for a move budget: the (point, set) move counts
that get children.  A depth q is the paper's tree (every m + p <= q);
model checking builds the smaller tree of the moves its formula's game
can take (logic.move_budget).

A fold can also take a collapse test from its forest, one that marks
product nodes at the set-only levels (0, p) that its formula has
already lost; model checking and LinEMSO both fold with it.  The fold
puts the forest's one childless lost node in their place and in place
of every product with a lost factor, and never multiplies their
subtrees.  games.Verdicts says when that is sound.  Without a test the
fold builds the reduced tree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import DepthBudgetError, RwmsoError, ScaleGuardError
from .parsetree import CompositionOp, ParseTree, fold, leaf_vertex
from .gf2 import vec_times_matrix as vtm
from .structures import (OrderedStructure, Structure, _check_width, _unchecked,
                         compose, ordered_induced)  # compose: kept for perfbench's tracer

# the most nodes one forest interns: ~1.3-2.1 KB each, ~0.7-1.1 GB at the cap
MAX_NODES = 500_000


# --- interned reduced characteristic trees ------------------------------

# A move budget is a set of levels (point moves m, set moves p), stored
# as caps[p] = the most point moves allowed after p set moves, so it is
# down-closed in m at each p but need not be in p: logic.move_budget
# gives caps[p] = the largest m of a level (m, p) the formula's game
# visits.  The depth-q tree of the paper is the staircase (q, q-1, ...,
# 0): every m + p <= q.  A node at (m, p) has point children iff
# (m + 1, p) is in the budget and set children iff (m, p + 1) is.
Budget = tuple[int, ...]

# A collapse test says whether a product node at a set-only level (0, p)
# is lost; a fold gets one from its forest (games.check_collapse).
Collapse = Callable[[int], bool]

# the label of every forest's lost node, known by identity: lost everywhere
LOST = OrderedStructure(Structure(0, 0, (), ()), (), ())


def as_budget(budget: int | Sequence[int]) -> Budget:
    """Normalise a depth q to its staircase, refusing one whose leaf tree
    alone passes MAX_NODES; validate a caps sequence."""
    if isinstance(budget, int):
        if budget < 0:
            raise RwmsoError("depth must be nonnegative")
        # the one-vertex leaf's tree alone has 3 * 2^q - q - 2 nodes
        if budget > MAX_NODES.bit_length() or (3 << budget) - budget - 2 > MAX_NODES:
            raise ScaleGuardError(f"a depth-{budget} tree would have reached {MAX_NODES} interned "
                                  f"nodes at its leaf, the ceiling chartree.MAX_NODES={MAX_NODES}")
        return tuple(range(budget, -1, -1))
    caps = tuple(budget)
    if not caps or not all(isinstance(c, int) and c >= 0 for c in caps):
        raise RwmsoError(
            f"move budget must be a nonempty sequence of nonnegative ints, "
            f"got {budget!r}")
    return caps


def in_budget(caps: Budget, m: int, p: int) -> bool:
    return p < len(caps) and m <= caps[p]


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
    budget, operator and collapse test (cross_memo_for gives it), from
    (id1, id2, d) to the product's id: a fold answers its hits from it.
    label_memo maps (g.rows, f1.rows, f2.rows) to a dict from (label1,
    label2, d) to the id of the product label, so rename_combine runs
    once per distinct label product: a label product depends on neither
    the budget nor the children.  Operators are keyed by their matrix
    rows, so equal operators parsed from text share entries, and the
    inner keys are ints and the indicator vector only.  game_memo maps
    (phi, x_vars, X_vars) to the game's compiled record (games._game):
    the position table, what games._compile records, the memo from
    (node id, position) to the winner, TOP or BOTTOM, and a sentence's
    collapse test, so refolds of one sentence share their cross memos.
    games.game_on_tree plays from it and games.Verdicts reads its table,
    so all the games on one forest compile phi once and share what they
    evaluate.  The memos live here because ids mean nothing outside
    their forest.

    lost_node() interns the forest's one lost node, a sink that stands
    for a lost subtree at every level: childless, under the label LOST,
    whose id label_id() never returns, so it never merges with a real
    node.  lost is its id, or None before it is made, and collapsed
    counts the (0, p) products a collapsing fold replaced by it.  Not
    thread-safe: confine construction to one thread.
    """

    def __init__(self):
        self._label_ids: dict[OrderedStructure, int] = {}
        self._labels: list[OrderedStructure] = []
        self._ids: dict[tuple[int, tuple[int, ...], tuple[int, ...]], int] = {}
        self._nodes: list[RCNode] = []
        self.cross_memo: dict[tuple, dict[tuple, int]] = {}
        self.label_memo: dict[tuple, dict[tuple, int]] = {}
        self.game_memo: dict[tuple, object] = {}
        self.lost: int | None = None
        self.collapsed = 0

    def __len__(self) -> int:
        return len(self._nodes)

    def cross_memo_for(self, caps: Budget, op: CompositionOp,
                       collapse: Collapse | None = None) -> dict[tuple, int]:
        g, f1, f2 = op
        return self.cross_memo.setdefault((caps, collapse, g.rows, f1.rows, f2.rows), {})

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
        point = tuple(sorted(point_children)) if point_children else ()
        set_kids = tuple(sorted(set_children)) if set_children else ()
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

    def lost_node(self) -> int:
        """The id of the lost node, interned under LOST on first use."""
        if self.lost is None:
            lid = len(self._labels)
            self._labels.append(LOST)
            self.lost = self.intern(lid, (), ())
        return self.lost

    @property
    def nodes(self) -> list[RCNode]:
        """The nodes indexed by id; the list only grows, so a hot loop
        may hold it across interning."""
        return self._nodes

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
    """A root id, its forest, the move budget it was built for (a depth q
    is normalised to its staircase) and its fold's collapse test, if any."""

    forest: RCForest
    root: int
    budget: Budget
    collapse: Collapse | None = None

    def __post_init__(self):
        object.__setattr__(self, "budget", as_budget(self.budget))

    def size(self) -> int:
        return len(self.forest.reachable(self.root))


def reduced_char_tree_direct(forest: RCForest, t: int, budget: int | Budget,
                             bits: Sequence[int] = ()) -> int:
    """Reduced characteristic tree of a parse-tree leaf, from its definition.

    The leaf is one vertex labeled {1} at width t, and bits[i] says
    whether it is in the i-th preloaded set, so the root sits at
    (0, len(bits)).  Below it, where the budget allows, each node has
    one point move and two set moves (out, in).  Both folds build their
    leaves with it; every larger tree comes from the tree cross product.
    """
    caps = as_budget(budget)
    a = leaf_vertex(t)
    @functools.cache  # moves in either order reach one (c, masks)
    def rec(c: tuple[int, ...], masks: tuple[int, ...]) -> int:
        label = ordered_induced(a, c, masks)
        m, p = len(c), len(masks)
        point = set_kids = ()
        if in_budget(caps, m + 1, p):
            point = {rec(c + (0,), masks)}
        if in_budget(caps, m, p + 1):
            set_kids = {rec(c, masks + (0,)), rec(c, masks + (1,))}
        return forest.intern(forest.label_id(label), point, set_kids)

    try:
        return rec((), tuple(bits))
    finally:
        del rec  # rec reaches itself, and so the forest, through its cell


# --- combining reduced trees --------------------------------------------

IndicatorVector = tuple[int, ...]  # the side, 1 or 2, of each position


def _spread(mask: int, bits: Sequence[int]) -> int:
    out = 0  # the OR of bits[j] over the set bits j of mask
    for bit in bits:
        if mask & 1:
            out |= bit
        mask >>= 1
    return out


def rename_combine(o1: OrderedStructure, o2: OrderedStructure,
                   d: IndicatorVector, op: CompositionOp) -> OrderedStructure:
    """Ordered structure of the composition, renamed via the indicator.

    Equals Ord(A1 (x) A2, c, C) whenever o_i = Ord(A_i, c[A_i], C n A_i)
    and d is the indicator vector of c, the side of each entry.  Each
    label holds just the classes its side's part of c reaches, numbered
    by first occurrence, so one pass over d merges the two numberings.
    A side's edges are its label's, a cross edge joins labels l1, l2 with
    l1 . g(l2) odd, labels go through f1 and f2, and traces are merged.
    The fold runs it once per distinct label product.
    """
    s1, s2, tr1, tr2 = o1.structure, o2.structure, o1.set_traces, o2.set_traces
    it1, it2 = iter(o1.positions), iter(o2.positions)
    m1, m2 = len(o1.positions), len(o2.positions)
    if len(tr1) != len(tr2):
        raise RwmsoError(f"trace counts differ: {len(tr1)} vs {len(tr2)}")
    if d.count(1) != m1 or d.count(2) != m2 or len(d) != m1 + m2:
        raise RwmsoError(f"indicator {d} must name side 1 {m1} and side 2 {m2} times")
    (g, f1, f2), t = op, s1.t
    if not t == s2.t == len(g.rows) == len(f1.rows) == len(f2.rows):
        _check_width(t, s2.t, g.t, f1.t, f2.t)
    bit1, bit2, positions, labels = [], [], [], []  # biti[a]: the bit of side i's class a
    for side in d:
        if side == 1:
            a = next(it1)
            if a == len(bit1):
                bit1.append(1 << len(labels))
                labels.append(vtm(s1.labels[a], f1.rows))
            positions.append(bit1[a].bit_length() - 1)
        else:
            b = next(it2)
            if b == len(bit2):
                bit2.append(1 << len(labels))
                labels.append(vtm(s2.labels[b], f2.rows))
            positions.append(bit2[b].bit_length() - 1)
    adj, cross2 = [0] * len(labels), [0] * len(bit2)  # cross2[b]: class b's cross edges
    glab2 = [vtm(lab, g.rows) for lab in s2.labels]
    for bit, lab, mask in zip(bit1, s1.labels, s1.adj):
        row = _spread(mask, bit1)
        for b, bit_b in enumerate(bit2):
            if (lab & glab2[b]).bit_count() & 1:
                row |= bit_b
                cross2[b] |= bit
        adj[bit.bit_length() - 1] = row
    for bit, row, mask in zip(bit2, cross2, s2.adj):
        adj[bit.bit_length() - 1] = row | _spread(mask, bit2)
    traces = tuple([_spread(x, bit1) | _spread(y, bit2) for x, y in zip(tr1, tr2)])
    return OrderedStructure(_unchecked(Structure, len(labels), t, tuple(adj), tuple(labels)),
                            tuple(positions), traces)


def tree_cross_product(forest: RCForest, id1: int, id2: int, budget: int | Budget,
                       op: CompositionOp, collapse: Collapse | None = None) -> int:
    """Reduced tree of the composition from the factors' reduced trees.

    Point moves pair a point child of one side with the other side's
    whole tree (appending that side to the indicator vector d, empty at
    the roots); set moves pair set children of both sides.  A factor's
    own (m_i, p) has m_i <= m, and the budget is down-closed in m at each
    p (it need not be in p), so factors built for the same budget have
    every move the product needs: a point move at (m, p) needs
    m_i + 1 <= caps[p], a set move m_i <= caps[p + 1].

    Callers look (id1, id2, ()) up in forest.cross_memo_for(budget, op,
    collapse) first, as both folds do, and call this on a miss; it stores
    each product there, so a repeated call returns the same id through
    its children's entries and intern, and counts no collapse again.
    Product labels are memoized too: a miss looks its label up by
    (label1, label2, d) and runs rename_combine only if that is new.

    With a collapse test, a new product node at a level (0, p) that the
    test calls lost is replaced by the forest's lost node, and so is
    every product with a lost factor, before anything of it is built.
    """
    caps = budget if type(budget) is tuple else as_budget(budget)
    memo = forest.cross_memo_for(caps, op, collapse)
    get = memo.get
    g, f1, f2 = op
    labels = forest.label_memo.setdefault((g.rows, f1.rows, f2.rows), {})
    nodes = forest._nodes
    ncaps = len(caps)
    # a lost node made below is a product of this call, never a factor
    lost = forest.lost

    def rec(i1: int, i2: int, d: IndicatorVector) -> int:
        # a miss: every caller looked (i1, i2, d) up first, so hits cost
        # no call
        if collapse is not None and (i1 == lost or i2 == lost):
            if not d:  # once per product: a repeated call counts nothing
                forest.collapsed += (i1, i2, d) not in memo
            memo[i1, i2, d] = lost
            return lost
        n1, n2 = nodes[i1], nodes[i2]
        o1, o2 = n1.ord, n2.ord
        m, p = len(d), len(o1.set_traces)
        lkey = (n1.label, n2.label, d)
        root = labels.get(lkey)
        if root is None:
            root = labels[lkey] = forest.label_id(rename_combine(o1, o2, d, op))
        point = set_kids = ()
        # in_budget(caps, m + 1, p) and in_budget(caps, m, p + 1), inlined
        if p < ncaps and m < caps[p]:
            if not (n1.point_children and n2.point_children):
                raise _too_shallow("point", m, p, caps)
            # plain loops: a comprehension or generator costs a frame per node
            d1, d2, point = d + (1,), d + (2,), set()
            for u in n1.point_children:
                point.add(h if (h := get((u, i2, d1))) is not None else rec(u, i2, d1))
            for u in n2.point_children:
                point.add(h if (h := get((i1, u, d2))) is not None else rec(i1, u, d2))
        if p + 1 < ncaps and m <= caps[p + 1]:
            if not (n1.set_children and n2.set_children):
                raise _too_shallow("set", m, p, caps)
            set_kids = set()
            for u1 in n1.set_children:
                for u2 in n2.set_children:
                    set_kids.add(h if (h := get((u1, u2, d))) is not None else rec(u1, u2, d))
        out = forest.intern(root, point, set_kids)
        if collapse is not None and not d and collapse(out):
            forest.collapsed += (i1, i2, d) not in memo
            out = forest.lost_node()
        memo[i1, i2, d] = out
        return out

    try:
        return rec(id1, id2, ())
    finally:
        # rec reaches itself through its closure cell; clearing the cell
        # frees it now instead of leaving a cycle to the garbage collector
        del rec


def _too_shallow(kind: str, m: int, p: int, caps: Budget) -> DepthBudgetError:
    # factors are parse-tree compositions of single vertices, so a missing
    # move means the factor was built for a smaller budget
    return DepthBudgetError(
        f"factor tree too shallow: no {kind} moves at m={m}, p={p} for budget {list(caps)}")


def char_tree_from_parse_tree(tree: ParseTree, budget: int | Budget,
                              forest: RCForest | None = None,
                              collapse: Callable[..., Collapse | None] | None = None,
                              ) -> RCTree:
    """Fold the tree cross product over a parse tree, leaves to root.

    Returns the reduced characteristic tree of the generated graph, built
    for the move budget (a depth q means every m + p <= q), in time
    linear in the parse tree for a fixed budget and t.  collapse, if
    given, is called with the forest after the leaf and returns the
    fold's collapse test (None for no test), which the tree keeps; model
    checking passes games.check_collapse(phi), and the tree then has the
    lost node in place of what phi has lost.
    """
    caps = as_budget(budget)
    if forest is None:
        forest = RCForest()
    leaf = reduced_char_tree_direct(forest, tree.t, caps)
    test = collapse(forest) if collapse is not None else None

    def combine_for(op: CompositionOp):
        get = forest.cross_memo_for(caps, op, test).get
        return lambda left, right: (hit if (hit := get((left, right, ()))) is not None
                                    else tree_cross_product(forest, left, right, caps, op,
                                                            test))

    root = fold(tree, leaf, combine_for)
    return RCTree(forest, root, caps, test)


def rc_dump(forest: RCForest, root: int) -> str:
    """One line per reachable node: id kind m p |children| childIds | ord,
    with "lost" in place of the ord of the lost node, which stands at
    every level and is listed at level 0 0."""
    kind = {root: "root"}
    for nid in forest.reachable(root):
        n = forest.nodes[nid]
        for ch in n.point_children:
            kind.setdefault(ch, "point")
        for ch in n.set_children:
            kind.setdefault(ch, "set")
    lines = []
    for nid in forest.reachable(root):
        n = forest.nodes[nid]
        kids = n.point_children + n.set_children
        ids = " ".join(str(c) for c in kids)
        label = "lost" if nid == forest.lost else n.ord.encode()
        lines.append(f"{nid} {kind[nid]} {n.m} {n.p} {len(kids)} {ids}".rstrip()
                     + f" | {label}")
    return "\n".join(lines) + "\n"
