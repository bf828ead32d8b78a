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
from collections import namedtuple
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import DepthBudgetError, RwmsoError, ScaleGuardError
from .parsetree import CompositionOp, Decided, ParseTree, fold, leaf_vertex
from .gf2 import vec_times_matrix as vtm
from .structures import (OrderedStructure, Relabeling, Structure, _check_width, _unchecked,
                         compose, ordered_induced)  # compose: kept for perfbench's tracer

# the most nodes one forest interns: ~1.3-2.1 KB each on family trees (1-3
# operators), ~29 KB each on random width-2 trees (ROADMAP item 15)
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
    for c in caps:  # a plain loop: every RCTree validates its budget
        if not isinstance(c, int) or c < 0:
            caps = ()
    if not caps:
        raise RwmsoError(
            f"move budget must be a nonempty sequence of nonnegative ints, got {budget!r}")
    return caps


def in_budget(caps: Budget, m: int, p: int) -> bool:
    return p < len(caps) and m <= caps[p]


class RCNode(NamedTuple):
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
    structure once in the list labels; nodes go in through intern(), keyed
    by a label id and the child ids, into the list nodes, and are immutable.
    Both lists only grow, so a hot loop may hold them across interning.
    The labels come from a finite set fixed by the move budget and t, so
    both tables stop growing once a fold has stabilised.

    That set's size is a tower in the budget, so the node count, not the
    depth, is what a run costs: intern() refuses a new node past MAX_NODES
    with ScaleGuardError, and every construction goes through it.

    cross_memo holds tree_cross_product's results, one dict per (move
    budget, collapse test, operator) key (cross_memo_for gives it), from
    (id1, id2, d) to the product's id: a fold answers its hits from it.
    label_memo maps an operator to a dict from (label1, label2, d) to the
    id of the product label, so rename_combine runs once per distinct
    label product: a label product depends on neither the budget nor the
    children.  An operator is a tuple of Relabeling tuples, hashed and
    compared in C, so equal operators parsed from text share entries,
    and the inner keys are ints and the indicator vector only.  game_memo maps
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
    counts the (0, p) products a collapsing fold replaced by it before
    the fold stopped.  Not thread-safe: confine construction to one thread.
    """

    def __init__(self):
        self._label_ids: dict[OrderedStructure, int] = {}
        self.labels: list[OrderedStructure] = []
        self._ids: dict[tuple[int, tuple[int, ...], tuple[int, ...]], int] = {}
        self.nodes: list[RCNode] = []
        self.cross_memo: dict[tuple, dict[tuple, int]] = {}
        self.label_memo: dict[CompositionOp, dict[tuple, int]] = {}
        self.game_memo: dict[tuple, object] = {}
        self.lost: int | None = None
        self.collapsed = 0

    def __len__(self) -> int:
        return len(self.nodes)

    def cross_memo_for(self, caps: Budget, op: CompositionOp,
                       collapse: Collapse | None = None) -> dict[tuple, int]:
        key = (caps, collapse, op)
        memo = self.cross_memo.get(key)
        if memo is None:  # a dict made on a miss only, not one per call
            memo = self.cross_memo[key] = {}
        return memo

    def label_id(self, ord_struct: OrderedStructure) -> int:
        """The id of an ordered structure in the label table, equal
        structures sharing one id.  Labels are tuples, hashed and compared
        in C; a tuple equals any tuple of the same fields, so the table
        holds ordered structures only."""
        lid = self._label_ids.get(ord_struct)
        if lid is None:
            lid = self._label_ids[ord_struct] = len(self.labels)
            self.labels.append(ord_struct)
        return lid

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
            nid = len(self.nodes)
            if nid >= MAX_NODES:
                raise ScaleGuardError(
                    f"the forest reached {nid} interned nodes, the ceiling "
                    f"chartree.MAX_NODES={MAX_NODES}; use a smaller formula or depth")
            self._ids[key] = nid
            self.nodes.append(tuple.__new__(RCNode, (self.labels[label], point, set_kids, label)))
        return nid

    def lost_node(self) -> int:
        """The id of the lost node, interned under LOST on first use."""
        if self.lost is None:
            lid = len(self.labels)
            self.labels.append(LOST)
            self.lost = self.intern(lid, (), ())
        return self.lost

    def reachable(self, root: int) -> list[int]:
        seen = {root}
        stack = [root]
        order = []
        while stack:
            nid = stack.pop()
            order.append(nid)
            n = self.nodes[nid]
            for ch in n.point_children + n.set_children:
                if ch not in seen:
                    seen.add(ch)
                    stack.append(ch)
        return sorted(order)


class RCTree(namedtuple("RCTree", "forest root budget collapse")):
    """A root id, its forest, the move budget it was built for (a depth q
    is normalised to its staircase) and its fold's collapse test, if any:
    a tuple (forest: RCForest, root: int, budget: Budget, collapse:
    Collapse | None)."""

    __slots__ = ()

    def __new__(cls, forest: RCForest, root: int, budget: int | Budget,
                collapse: Collapse | None = None):
        return tuple.__new__(cls, (forest, root, as_budget(budget), collapse))

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


class _Images(dict):
    """The images of label rows under one relabeling, each computed on its
    first read, so a table holds only the rows that occur, never all 2^t."""

    def __init__(self, relabeling: Relabeling):
        self.rows = relabeling.rows

    def __missing__(self, label: int) -> int:
        image = self[label] = vtm(label, self.rows)
        return image


_image_table = functools.lru_cache(maxsize=1024)(_Images)  # one table per relabeling


@functools.lru_cache(maxsize=1024)
def _images(op: CompositionOp) -> tuple[_Images, _Images, _Images]:
    """The image tables of op's g, f1 and f2; equal relabelings share one."""
    return tuple(map(_image_table, op))


def rename_combine(o1: OrderedStructure, o2: OrderedStructure,
                   d: IndicatorVector, op: CompositionOp) -> OrderedStructure:
    """Ordered structure of the composition, renamed via the indicator.

    Equals Ord(A1 (x) A2, c, C) whenever o_i = Ord(A_i, c[A_i], C n A_i)
    and d is the indicator vector of c, the side of each entry.  Each
    label holds just the classes its side's part of c reaches, numbered
    by first occurrence, so one pass over d merges the two numberings
    and joins each new class to those numbered before it: within a side
    by its label's edges, across by l1 . g(l2) odd.  Labels go through
    f1 and f2, and traces are merged; the images of label rows under g,
    f1 and f2 are read from op's tables (_images).  The fold runs it
    once per distinct label product.
    """
    s1, s2, tr1, tr2 = o1.structure, o2.structure, o1.set_traces, o2.set_traces
    m1, m2 = len(o1.positions), len(o2.positions)
    if len(tr1) != len(tr2):
        raise RwmsoError(f"trace counts differ: {len(tr1)} vs {len(tr2)}")
    if d.count(1) != m1 or d.count(2) != m2 or len(d) != m1 + m2:
        raise RwmsoError(f"indicator {d} must name side 1 {m1} and side 2 {m2} times")
    (g, f1, f2), t = op, s1.t
    if not t == s2.t == len(g.rows) == len(f1.rows) == len(f2.rows):
        _check_width(t, s2.t, g.t, f1.t, f2.t)
    gimg, f1img, f2img = _images(op)
    # sides[k]: side k's positions, structure, traces, label images, the
    # table its cross keys go through (g for side 2, none for side 1), and
    # its own and the other side's classes so far as (class, cross key)
    new1, new2, positions, labels, adj = [], [], [], [], []
    traces = [0] * len(tr1)
    sides = (None, (iter(o1.positions), s1, tr1, f1img, None, new1, new2),
             (iter(o2.positions), s2, tr2, f2img, gimg, new2, new1))
    for side in d:
        it, s, tr, fimg, cross, new, other = sides[side]
        a = next(it)
        if a == len(new):
            i = len(labels)
            bit, row, lab, mask = 1 << i, 0, s.labels[a], s.adj[a]
            key = lab if cross is None else cross[lab]
            for j, _ in new:
                if mask & 1:
                    row |= 1 << j
                    adj[j] |= bit
                mask >>= 1
            for j, key2 in other:
                if (key & key2).bit_count() & 1:
                    row |= 1 << j
                    adj[j] |= bit
            for k, x in enumerate(tr):
                if x >> a & 1:
                    traces[k] |= bit
            new.append((i, key))
            labels.append(fimg[lab])
            adj.append(row)
        positions.append(new[a][0])
    return OrderedStructure(_unchecked(Structure, len(labels), t, tuple(adj), tuple(labels)),
                            tuple(positions), tuple(traces))


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
    labels = forest.label_memo.get(op)
    if labels is None:
        labels = forest.label_memo[op] = {}
    nodes = forest.nodes
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
    lost node in place of what phi has lost.  A miss that makes the lost
    node ends the fold (parsetree.Decided): every product with a lost
    factor is lost, so it is the root.
    """
    caps = as_budget(budget)
    if forest is None:
        forest = RCForest()
    leaf = reduced_char_tree_direct(forest, tree.t, caps)
    test = collapse(forest) if collapse is not None else None
    lost = forest.lost  # made by a test, never returned without one

    def combine_for(op: CompositionOp):
        get = forest.cross_memo_for(caps, op, test).get

        def step(left: int, right: int) -> int:
            if (hit := get((left, right, ()))) is not None:
                return hit
            if (out := tree_cross_product(forest, left, right, caps, op, test)) == lost:
                raise Decided(out)  # and so is every product above it
            return out
        return step

    root = fold(tree, leaf, combine_for)
    return RCTree(forest, root, caps, test)


def rc_dump(forest: RCForest, root: int) -> str:
    """One line per reachable node: id kind m p |children| childIds | ord,
    with "lost" in place of the ord of the lost node, which stands at
    every level and is listed at level 0 0."""
    kind = {root: "root"}
    reachable = forest.reachable(root)
    for nid in reachable:
        n = forest.nodes[nid]
        for ch in n.point_children:
            kind.setdefault(ch, "point")
        for ch in n.set_children:
            kind.setdefault(ch, "set")
    lines = []
    for nid in reachable:
        n = forest.nodes[nid]
        kids = n.point_children + n.set_children
        ids = " ".join(str(c) for c in kids)
        label = "lost" if nid == forest.lost else n.ord.encode()
        lines.append(f"{nid} {kind[nid]} {n.m} {n.p} {len(kids)} {ids}".rstrip()
                     + f" | {label}")
    return "\n".join(lines) + "\n"
