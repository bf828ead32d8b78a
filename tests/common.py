"""Shared brute-force oracles and generators for the test suite.

Everything here is deliberately independent of the code paths it
checks: ranks by list-of-list elimination, reduction by merging the
full move tree, the game played on that unmerged tree, optima by
subset enumeration, the LinEMSO dynamic program without state
pruning, and the parse-tree text read one token at a time.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from rwmso import (Assignment, LinEMSOResult, ParseTree, RCForest, RCTree,
                   Relabeling, Structure, build_structure, evaluate,
                   game_on_tree, ordered_induced, reduced_char_tree_direct,
                   tree_cross_product)
from rwmso.errors import RwmsoError
from rwmso.parsetree import LEAF, CompositionOp, _parse_matrix, fold
from rwmso.logic import (Adj, And, Equal, ExistsObj, ExistsSet, ForallObj,
                         ForallSet, In, Label, Not, Or)


def all_structures(n, t=1):
    """Every t-labeled graph on n vertices (all edge sets x all labelings)."""
    pairs = list(itertools.combinations(range(n), 2))
    for edge_mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (edge_mask >> i) & 1]
        for labels in itertools.product(range(1 << t), repeat=n):
            yield build_structure(n, edges, t, list(labels))


def random_structure(rng: random.Random, n, t=1, edge_prob=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < edge_prob]
    labels = [rng.randrange(1 << t) for _ in range(n)]
    return build_structure(n, edges, t, labels)


def random_relabeling(rng: random.Random, t):
    return Relabeling(tuple(rng.randrange(1 << t) for _ in range(t)))


def tree_of(t, shape):
    """ParseTree of a nested shape: None is a leaf, (op, left, right) an
    inner node.  Operators are numbered in order of first use."""
    index, code = {}, []

    def emit(node):
        if node is None:
            code.append(-1)
            return
        op, left, right = node
        emit(left)
        emit(right)
        code.append(index.setdefault(tuple(op), len(index)))

    emit(shape)
    return ParseTree(t, tuple(index), tuple(code))


def random_parse_tree(rng: random.Random, leaves, t):
    def build(k):
        if k == 1:
            return None
        split = rng.randint(1, k - 1)
        op = tuple(random_relabeling(rng, t) for _ in range(3))
        return op, build(k - split), build(split)
    return tree_of(t, build(leaves))


def small_parse_trees():
    """Every t=1 parse tree with at most 3 leaves."""
    rels = [Relabeling((0,)), Relabeling((1,))]
    ops = list(itertools.product(rels, repeat=3))
    trees = [tree_of(1, (op, None, None)) for op in ops]
    for op1 in ops:
        for op2 in ops:
            inner = (op2, None, None)
            trees.append(tree_of(1, (op1, inner, None)))
            trees.append(tree_of(1, (op1, None, inner)))
    return trees


def indicator_vector(a1, a2, c):
    """Record, per entry of c, the side (1 or 2) it lies on."""
    s1, s2 = set(a1), set(a2)
    if s1 & s2:
        raise RwmsoError(f"sides overlap: {sorted(s1 & s2)}")
    out = []
    for e in c:
        if e in s1:
            out.append(1)
        elif e in s2:
            out.append(2)
        else:
            raise RwmsoError(f"element {e} is on neither side")
    return tuple(out)


def cross_misses(forest):
    """Cross-product memo misses so far: a miss adds one cross_memo entry."""
    return sum(map(len, forest.cross_memo.values()))


def are_isomorphic(g, h) -> bool:
    """Exhaustive permutation check, labels included."""
    if g.n != h.n or g.t != h.t:
        return False
    for perm in itertools.permutations(range(g.n)):
        if any(g.labels[u] != h.labels[perm[u]] for u in range(g.n)):
            continue
        if all(g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
               for u in range(g.n) for v in range(u + 1, g.n)):
            return True
    return g.n == 0


def permuted(g, perm):
    """The same graph presented with vertex u renamed to perm[u]."""
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    labels = [0] * g.n
    for u in range(g.n):
        labels[perm[u]] = g.labels[u]
    return build_structure(g.n, edges, g.t, labels)


def induced(a, c):
    """Substructure on the distinct entries of c (first-occurrence order)."""
    elems = list(dict.fromkeys(c))
    adj = [sum(1 << j for j, e2 in enumerate(elems) if a.has_edge(e, e2))
           for e in elems]
    return Structure(len(elems), a.t, tuple(adj), tuple(a.labels[e] for e in elems))


@dataclass(frozen=True)
class FullCharNode:
    """Full-tree node (A[c], c, C n c) with one child per move, kept unmerged.

    point_children[d] is the child for element d; set_children[mask] the
    child for the subset with that bitmask.
    """

    struct: Structure
    elems: tuple[int, ...]
    c: tuple[int, ...]
    traces: tuple[frozenset[int], ...]
    point_children: tuple["FullCharNode", ...]
    set_children: tuple["FullCharNode", ...]


def full_char_tree(a, q, c=(), sets=()):
    """The full characteristic tree of depth q, per definition; it grows
    like (2^n + n)^q, so keep n and q tiny."""
    def rec(c, chosen):
        point = set_kids = ()
        if len(c) + len(chosen) < q:
            point = tuple(rec(c + (d,), chosen) for d in range(a.n))
            set_kids = tuple(
                rec(c, chosen + (frozenset(u for u in range(a.n) if (mask >> u) & 1),))
                for mask in range(1 << a.n))
        traces = tuple(s & set(c) for s in chosen)
        return FullCharNode(induced(a, c), tuple(dict.fromkeys(c)), c, traces,
                            point, set_kids)

    return rec(tuple(c), tuple(frozenset(s) for s in sets))


def full_tree_size(node):
    return 1 + sum(full_tree_size(ch)
                   for ch in node.point_children + node.set_children)


def full_tree_game(node, phi, objs=(), sets=()):
    """The model checking game on a full characteristic tree, memo-free.

    objs and sets name the variables bound to node.c and node.traces in
    order; quantifiers extend them and descend to the move's child, and a
    name refers to the last (innermost) entry that carries it.
    """
    if isinstance(phi, Not):
        return not full_tree_game(node, phi.sub, objs, sets)
    if isinstance(phi, (And, Or)):
        left = full_tree_game(node, phi.left, objs, sets)
        right = full_tree_game(node, phi.right, objs, sets)
        return left and right if isinstance(phi, And) else left or right
    if isinstance(phi, (ExistsObj, ForallObj, ExistsSet, ForallSet)):
        assert node.set_children, "full tree too shallow for the formula"
        if isinstance(phi, (ExistsObj, ForallObj)):
            wins = [full_tree_game(ch, phi.sub, objs + (phi.var,), sets)
                    for ch in node.point_children]
        else:
            wins = [full_tree_game(ch, phi.sub, objs, sets + (phi.set_var,))
                    for ch in node.set_children]
        return any(wins) if isinstance(phi, (ExistsObj, ExistsSet)) else all(wins)

    def innermost(names, v):
        # the last listed or bound variable named v binds it
        return len(names) - 1 - names[::-1].index(v)

    def el(v):
        return node.c[innermost(objs, v)]

    def vertex(v):
        return node.elems.index(el(v))

    if isinstance(phi, Equal):
        return el(phi.left) == el(phi.right)
    if isinstance(phi, Adj):
        return node.struct.has_edge(vertex(phi.left), vertex(phi.right))
    if isinstance(phi, Label):
        return bool((node.struct.labels[vertex(phi.var)] >> (phi.index - 1)) & 1)
    if isinstance(phi, In):
        return el(phi.var) in node.traces[innermost(sets, phi.set_var)]
    raise AssertionError(f"no full-tree atom for {phi!r}")


def merge_full_tree(a, node):
    """Reduce a full characteristic tree by definition, independently.

    Replaces every node label by its ordered induced structure and
    collapses equal sibling subtrees, returning a canonical
    (label, frozenset-of-subtrees) nesting.
    """
    kids = frozenset(merge_full_tree(a, ch)
                     for ch in node.point_children + node.set_children)
    return ordered_induced(a, node.c, node.traces), kids


def unfold_rc(forest, nid, memo=None):
    """Canonical deep unfolding of an interned reduced tree."""
    if memo is None:
        memo = {}
    if nid in memo:
        return memo[nid]
    n = forest.node(nid)
    kids = frozenset(unfold_rc(forest, ch, memo)
                     for ch in n.point_children + n.set_children)
    memo[nid] = (n.ord, kids)
    return memo[nid]


def naive_rank(rows):
    """GF(2) rank by elimination on lists of 0/1 entries."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def mat_mul(a_rows, b_rows):
    """GF(2) matrix product A x B, both given as row ints (bit j of row i
    is entry (i, j)): row i of the product XORs the rows of B that row i
    of A selects."""
    out = []
    for row in a_rows:
        acc = 0
        for k, b in enumerate(b_rows):
            if (row >> k) & 1:
                acc ^= b
        out.append(acc)
    return tuple(out)


def brute_force_linemso(g, phi, set_vars, weights, direction):
    """Optimal (value, witness) over all tuples of vertex subsets, or None."""
    best = None
    subsets = [frozenset(s) for k in range(g.n + 1)
               for s in itertools.combinations(range(g.n), k)]
    for choice in itertools.product(subsets, repeat=len(set_vars)):
        alpha = Assignment(sets=dict(zip(set_vars, choice)))
        if not evaluate(g, phi, alpha):
            continue
        value = sum(w * len(u) for w, u in zip(weights, choice))
        if best is None or (value > best[0] if direction == "max" else value < best[0]):
            best = (value, choice)
    return best


def unpruned_linemso(tree, problem):
    """The LinEMSO dynamic program keeping every state: one state per
    interned tree id at every parse node, the game at the root only.
    Ties keep the first-found witness, as the solver does."""
    weights, budget, set_vars = problem.weights, problem.budget, problem.set_vars
    forest = RCForest()
    sign = 1 if problem.direction == "max" else -1
    leaf_struct = Structure(1, tree.t, (0,), (1,))
    leaf_states = {}
    for choice in range(1 << len(weights)):
        masks = tuple((choice >> i) & 1 for i in range(len(weights)))
        rid = reduced_char_tree_direct(forest, leaf_struct, budget, (), masks,
                                       force=True)
        value = sum(w for w, m in zip(weights, masks) if m)
        old = leaf_states.get(rid)
        if old is None or sign * value > sign * old[0]:
            leaf_states[rid] = (value, tuple(frozenset({0} if m else ()) for m in masks))

    def combine(left, right, op):
        (states1, n1), (states2, n2) = left, right
        combined = {}
        for id1, (v1, w1) in states1.items():
            for id2, (v2, w2) in states2.items():
                rid = tree_cross_product(forest, id1, id2, budget, op)
                old = combined.get(rid)
                if old is None or sign * (v1 + v2) > sign * old[0]:
                    combined[rid] = (v1 + v2, tuple(
                        a | frozenset(x + n1 for x in b) for a, b in zip(w1, w2)))
        return combined, n1 + n2

    classes, _ = fold(tree, (leaf_states, 1),
                      lambda op: lambda left, right: combine(left, right, op))
    best = None
    for rid, (value, witness) in classes.items():
        if (game_on_tree(RCTree(forest, rid, budget), problem.phi, (), set_vars)
                and (best is None or sign * value > sign * best[0])):
            best = (value, witness)
    return None if best is None else LinEMSOResult(*best)


# --- the token reader ----------------------------------------------------

def _expect(tokens: list, i: int, want: str):
    if tokens[i] != want:
        raise RwmsoError(f"expected {want!r}, got {tokens[i]!r}")


def reference_parse_tree_from_text(text: str) -> ParseTree:
    """The token-at-a-time reader, kept as the oracle of the chunk reader."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].strip().startswith("t="):
        raise RwmsoError("missing 't=<width>' header line")
    try:
        t = int(lines[0].strip()[2:])
    except ValueError:
        raise RwmsoError("bad width in header") from None
    if t < 1:
        raise RwmsoError("width must be at least 1")
    # the None at the end keeps every lookahead below in range
    tokens = " ".join(lines[1:]).replace("(", " ( ").replace(")", " ) ").split() + [None]
    # One scan appends each node to the code where it ends; a matrix
    # triple is parsed once, keyed by its text, where it first ends a node.
    index: dict[tuple[str, ...], int] = {}
    ops: list[CompositionOp] = []
    code: list[int] = []
    open_mats: list[tuple[str, ...]] = []   # matrix texts of the open nodes
    has_left: list[bool] = []               # whether each has its left child
    i = 0
    while True:
        _expect(tokens, i, "(")
        if tokens[i + 1] == "o":
            j = i + 2
            while tokens[j] not in ("(", None):
                j += 1
            if j - i - 2 != 3:
                raise RwmsoError(f"expected three matrices, got {j - i - 2}")
            open_mats.append(tuple(tokens[i + 2:j]))
            has_left.append(False)
            i = j
            continue
        if tokens[i + 1] != "v":
            raise RwmsoError(f"expected 'v' or 'o', got {tokens[i + 1]!r}")
        _expect(tokens, i + 2, ")")
        i += 3
        code.append(LEAF)
        while has_left and has_left[-1]:   # a right child ends its parent
            _expect(tokens, i, ")")
            i += 1
            has_left.pop()
            mats = open_mats.pop()
            if mats not in index:
                index[mats] = len(ops)
                ops.append(tuple(_parse_matrix(m, t) for m in mats))
            code.append(index[mats])
        if not has_left:
            break
        has_left[-1] = True
    if tokens[i] is not None:
        raise RwmsoError(f"trailing input after tree: {tokens[i]!r}")
    return ParseTree(t, tuple(ops), tuple(code))
