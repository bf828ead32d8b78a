"""Characteristic trees of bounded depth and their combinators.

A full characteristic tree records every sequence of at most q point and
set moves on a structure; it is the explicit game tree and grows like
(2^n + n)^q.  A reduced characteristic tree replaces each node label by
the ordered structure induced by the chosen elements (with set traces)
and merges equal sibling subtrees.  Reduced trees are hash-consed in an
RCForest, so two subtrees are equal iff their interned ids are equal,
and the number of distinct nodes is bounded by a function of q and the
vocabulary only.

The tree cross product combines the reduced trees of two structures
into the reduced tree of their labeled composition without touching the
underlying graphs; folding it over a parse tree yields the reduced tree
of the generated graph in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DepthBudgetError, RwmsoError, ScaleGuardError
from .parsetree import CompositionOp, ParseTree, fold
from .structures import (OrderedStructure, Structure, _as_masks, compose,
                         induced, ordered_induced)

# covers the documented envelope |A| <= 4, q <= 3 for direct construction
MAX_DIRECT_WORK = 10_000


# --- full characteristic trees (oracle scale) ---------------------------

@dataclass(frozen=True)
class FullCharNode:
    """Node (A[c], c, C n c) with one child per move, kept unmerged.

    point_children[d] is the child for element d; set_children[mask] the
    child for the subset with that bitmask.
    """

    struct: Structure
    elems: tuple[int, ...]
    c: tuple[int, ...]
    traces: tuple[frozenset[int], ...]
    point_children: tuple["FullCharNode", ...]
    set_children: tuple["FullCharNode", ...]

    @property
    def m(self) -> int:
        return len(self.c)

    @property
    def p(self) -> int:
        return len(self.traces)


def _full_work(n: int, depth: int) -> int:
    return ((1 << n) + n) ** depth if depth > 0 else 1


def full_char_tree(a: Structure, q: int, c: Sequence[int] = (),
                   sets: Sequence[Iterable[int]] = (), force: bool = False) -> FullCharNode:
    """Build the full characteristic tree per definition.

    Guarded to universe size 3 and small depth unless forced.
    """
    c = tuple(c)
    set_list = [frozenset(s) for s in sets]
    remaining = q - len(c) - len(set_list)
    if not force and (a.n > 3 or _full_work(a.n, remaining) > MAX_DIRECT_WORK):
        raise ScaleGuardError(
            f"full tree would have ~{_full_work(a.n, remaining)} nodes; pass force=True")

    def rec(c: tuple[int, ...], chosen: tuple[frozenset[int], ...]) -> FullCharNode:
        sub = induced(a, c)
        elems = []
        for e in c:
            if e not in elems:
                elems.append(e)
        traces = tuple(frozenset(s) & set(c) for s in chosen)
        if len(c) + len(chosen) + 1 <= q:
            point = tuple(rec(c + (d,), chosen) for d in range(a.n))
            set_kids = tuple(
                rec(c, chosen + (frozenset(
                    u for u in range(a.n) if (mask >> u) & 1),))
                for mask in range(1 << a.n))
        else:
            point = set_kids = ()
        return FullCharNode(sub, tuple(elems), c, traces, point, set_kids)

    return rec(c, tuple(set_list))


def full_tree_size(node: FullCharNode) -> int:
    return 1 + sum(full_tree_size(ch)
                   for ch in node.point_children + node.set_children)


# --- interned reduced characteristic trees ------------------------------

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

    def has_children(self) -> bool:
        # a set move (D = empty) always exists while budget remains
        return bool(self.set_children)


class RCForest:
    """Intern table for reduced characteristic trees.

    Ids are stable and identify subtrees up to deep structural equality.
    Nodes go in through intern() and are immutable.  cross_memo maps
    ((q, op), id1, id2, d) to the id tree_cross_product returned for it;
    it lives here because ids mean nothing outside their forest.
    Not thread-safe: confine construction to one thread.
    """

    def __init__(self):
        self._ids: dict[tuple, int] = {}
        self._nodes: list[RCNode] = []
        self.cross_memo: dict[tuple, int] = {}

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
    """A root id together with the forest that owns it."""

    forest: RCForest
    root: int

    def size(self) -> int:
        return len(self.forest.reachable(self.root))


def reduced_char_tree_direct(forest: RCForest, a: Structure, q: int,
                             c: Sequence[int] = (), sets: Sequence[Iterable[int] | int] = (),
                             force: bool = False) -> int:
    """Reduced characteristic tree straight from the definition.

    Enumerates all moves of the underlying structure, so this is the
    brute-force oracle; the tree cross product is the scalable path.
    """
    c = tuple(c)
    masks = _as_masks(a.n, sets)
    remaining = q - len(c) - len(masks)
    if not force and (a.n > 4 or _full_work(a.n, remaining) > MAX_DIRECT_WORK):
        raise ScaleGuardError(
            f"direct construction would explore ~{_full_work(a.n, remaining)} moves; "
            "pass force=True")

    def rec(c: tuple[int, ...], masks: tuple[int, ...]) -> int:
        label = ordered_induced(a, c, masks)
        if len(c) + len(masks) + 1 <= q:
            point = {rec(c + (d,), masks) for d in range(a.n)}
            set_kids = {rec(c, masks + (m,)) for m in range(1 << a.n)}
        else:
            point = set_kids = set()
        return forest.intern(label, point, set_kids)

    return rec(c, tuple(masks))


def leaf_char_tree(forest: RCForest, q: int, t: int) -> int:
    """Reduced tree of the single new-vertex structure (label {1})."""
    if t < 1:
        raise RwmsoError("leaf vertices carry label 1; need t >= 1")
    return reduced_char_tree_direct(forest, Structure(1, t, (0,), (1,)), q, force=True)


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
    and d is the indicator vector of c.
    """
    if o1.p != o2.p:
        raise RwmsoError(f"trace counts differ: {o1.p} vs {o2.p}")
    _check_indicator(d, o1.m, o2.m)
    g, f1, f2 = op
    joined = compose(o1.structure, o2.structure, g, f1, f2)
    k1 = o1.structure.n
    merged = [o1.positions[k - 1] if side == 1 else k1 + o2.positions[k - 1]
              for side, k in d]
    traces = [o1.set_traces[j] | (o2.set_traces[j] << k1) for j in range(o1.p)]
    return ordered_induced(joined, merged, traces)


def tree_cross_product(forest: RCForest, id1: int, id2: int, q: int,
                       op: CompositionOp, d: IndicatorVector = ()) -> int:
    """Reduced tree of the composition from the factors' reduced trees.

    Point moves pair a point child of one side with the other side's
    whole tree (extending d); set moves pair set children of both sides.
    Both factors must have been built with depth at least q - m - p.
    Results are memoized in the forest, across calls.
    """
    memo = forest.cross_memo
    opkey = (q, op)

    def rec(i1: int, i2: int, d: IndicatorVector) -> int:
        key = (opkey, i1, i2, d)
        hit = memo.get(key)
        if hit is not None:
            return hit
        n1, n2 = forest.node(i1), forest.node(i2)
        o1, o2 = n1.ord, n2.ord
        root = rename_combine(o1, o2, d, op)
        m, p = len(d), o1.p
        if m + p + 1 <= q:
            if not n1.has_children() or not n2.has_children():
                raise DepthBudgetError(
                    f"factor tree too shallow at m={m}, p={p} for depth {q}")
            point = set()
            for u in n1.point_children:
                point.add(rec(u, i2, d + ((1, o1.m + 1),)))
            for u in n2.point_children:
                point.add(rec(i1, u, d + ((2, o2.m + 1),)))
            set_kids = {rec(u1, u2, d)
                        for u1 in n1.set_children for u2 in n2.set_children}
            out = forest.intern(root, point, set_kids)
        else:
            out = forest.intern(root, (), ())
        memo[key] = out
        return out

    return rec(id1, id2, tuple(d))


def char_tree_from_parse_tree(tree: ParseTree, q: int,
                              forest: RCForest | None = None) -> RCTree:
    """Fold the tree cross product over a parse tree, leaves to root.

    Returns the reduced characteristic tree of the generated graph in
    time linear in the parse tree for fixed q and t.
    """
    if q < 0:
        raise RwmsoError("depth must be nonnegative")
    if forest is None:
        forest = RCForest()
    root = fold(tree, leaf_char_tree(forest, q, tree.t),
                lambda left, right, op: tree_cross_product(forest, left, right, q, op))
    return RCTree(forest, root)


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
