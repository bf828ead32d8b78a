"""Shared brute-force oracles and generators for the test suite.

Everything here is deliberately independent of the code paths it
checks: ranks by list-of-list elimination, reduction by merging the
full move tree, the game played on that unmerged tree, optima by
subset enumeration, the LinEMSO dynamic program without state
pruning, the number of satisfying set tuples counted through the fold
(count_solutions) and by enumeration (brute_force_count), and the
parse-tree text read one token at a time.

The last section holds helpers that came from the library: is_atomic,
has_children (whether a node has point or set moves), the negation
normal form (to_nnf, is_nnf), the quantifier rank by structural
recursion (reference_quantifier_rank), the label product by composing
the two labels and inducing on the vector (reference_rename_combine),
the reduced tree of any structure straight from its definition
(reference_char_tree, the oracle of the cross product and of the
library's leaf builder), relabel, partial isomorphism, label subspaces
(generated_subspace, subspaces_orthogonal, dot), decomposition_width,
rankwidth as the minimum over every subcubic tree
(reference_exact_rankwidth, the oracle of the library's set DP), the
counting bound of criterion 7 (exp_tower, tower_at_least, SizeBound,
size_bound) and catalog().  They live here because only tests call
them; the package keeps what its commands use.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from rwmso import (CATALOG, Assignment, BranchDecomposition, Formula,
                   LinEMSOResult, ParseTree, RCForest, RCTree, Relabeling,
                   Structure, build_structure, compose, cut_rank, evaluate,
                   game_on_tree, ordered_induced, parse_formula,
                   tree_cross_product)
from rwmso import gf2
from rwmso.chartree import Budget, as_budget, in_budget, reduced_char_tree_direct
from rwmso.errors import RwmsoError, ScaleGuardError
from rwmso.games import check_collapse
from rwmso.parsetree import LEAF, CompositionOp, _parse_matrix, fold, leaf_vertex
from rwmso.logic import (ATOM_TYPES, Adj, And, Equal, ExistsObj, ExistsSet, ForallObj,
                         ForallSet, In, Label, Not, Or, free_variables, move_budget)
from rwmso.structures import _as_masks, _check_width


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


def random_formula(rng: random.Random, depth, obj_scope, set_scope):
    """A random formula over t=2 whose free variables lie in the two
    scopes, ``depth`` connectives or quantifiers deep at most, plus one
    ``Ex v. adj(v,v)`` where an atom is due with no object in scope.
    Label atoms, set membership and vacuous quantifiers occur."""
    if depth == 0 or (obj_scope and rng.random() < 0.3):
        if not obj_scope:
            v = f"x{rng.randrange(100)}"
            return ExistsObj(v, Adj(v, v))
        choices = [lambda: Adj(rng.choice(obj_scope), rng.choice(obj_scope)),
                   lambda: Equal(rng.choice(obj_scope), rng.choice(obj_scope)),
                   lambda: Label(rng.randint(1, 2), rng.choice(obj_scope))]
        if set_scope:
            choices.append(lambda: In(rng.choice(set_scope), rng.choice(obj_scope)))
        return rng.choice(choices)()
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_formula(rng, depth - 1, obj_scope, set_scope))
    if kind == 1:
        return And(random_formula(rng, depth - 1, obj_scope, set_scope),
                   random_formula(rng, depth - 1, obj_scope, set_scope))
    if kind == 2:
        return Or(random_formula(rng, depth - 1, obj_scope, set_scope),
                  random_formula(rng, depth - 1, obj_scope, set_scope))
    if kind == 3:
        v = f"x{len(obj_scope)}"
        quant = rng.choice((ExistsObj, ForallObj))
        return quant(v, random_formula(rng, depth - 1, obj_scope + [v], set_scope))
    v = f"S{len(set_scope)}"
    quant = rng.choice((ExistsSet, ForallSet))
    return quant(v, random_formula(rng, depth - 1, obj_scope, set_scope + [v]))


def random_sentence(rng: random.Random):
    """One to three quantifiers, each over an object (7 in 10) or a set,
    in front of a random_formula of depth 2 over their variables; a
    prefix variable the body never names is a vacuous quantifier."""
    objs, sets, prefix = [], [], []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.7:
            objs.append(f"x{len(objs)}")
            prefix.append((rng.choice((ExistsObj, ForallObj)), objs[-1]))
        else:
            sets.append(f"S{len(sets)}")
            prefix.append((rng.choice((ExistsSet, ForallSet)), sets[-1]))
    phi = random_formula(rng, 2, objs, sets)
    for quant, v in reversed(prefix):
        phi = quant(v, phi)
    return phi


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


def down_closure(caps):
    """The budget closed over p as well as m: caps[p] = the most of
    caps[p'] over p' >= p, so every level below a level of caps is in it."""
    return tuple(max(caps[p:]) for p in range(len(caps)))


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
    n = forest.nodes[nid]
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
    leaf_struct = leaf_vertex(tree.t)
    leaf_states = {}
    for choice in range(1 << len(weights)):
        masks = tuple((choice >> i) & 1 for i in range(len(weights)))
        rid = reference_char_tree(forest, leaf_struct, budget, (), masks)
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


def count_solutions(tree: ParseTree, phi: Formula) -> int:
    """The number of tuples of vertex sets, one per free set variable of
    phi, that satisfy phi in the graph of tree, counted through the fold
    as linemso.solve_linemso optimizes (Courcelle-Makowsky-Rotics): a
    state maps an interned tree id to the number of assignments reaching
    it.  Leaf choices with equal roots add, a pair multiplies its
    factors' counts and equal products add; the fold takes the same
    collapse test (games.check_collapse) and skips the lost leaves and
    products.  The root states whose game is won are summed."""
    set_vars = free_variables(phi).sets
    budget = move_budget(phi, sets=len(set_vars))
    forest = RCForest()
    test = check_collapse(phi)(forest)
    lost = forest.lost
    leaf: dict[int, int] = {}
    for bits in itertools.product((0, 1), repeat=len(set_vars)):
        rid = reduced_char_tree_direct(forest, tree.t, budget, bits)
        if test is None or not test(rid):
            leaf[rid] = leaf.get(rid, 0) + 1

    def combine_for(op):
        def combine(counts1, counts2):
            out: dict[int, int] = {}
            for id1, c1 in counts1.items():
                for id2, c2 in counts2.items():
                    rid = tree_cross_product(forest, id1, id2, budget, op, test)
                    if rid != lost:
                        out[rid] = out.get(rid, 0) + c1 * c2
            return out
        return combine

    roots = fold(tree, leaf, combine_for)
    return sum(count for rid, count in roots.items()
               if game_on_tree(RCTree(forest, rid, budget, test), phi, (), set_vars))


def brute_force_count(g: Structure, phi: Formula) -> int:
    """The same number by evaluate on every one of the 2^(l n) tuples."""
    set_vars = free_variables(phi).sets
    subsets = [frozenset(v for v in range(g.n) if mask >> v & 1) for mask in range(1 << g.n)]
    return sum(evaluate(g, phi, Assignment(sets=dict(zip(set_vars, choice))))
               for choice in itertools.product(subsets, repeat=len(set_vars)))


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


# --- helpers moved from the library: only tests call them ---------------

def is_atomic(phi: Formula) -> bool:
    return isinstance(phi, ATOM_TYPES)


def has_children(node, point: bool) -> bool:
    """Whether an RCNode has moves of this kind.  A set move (the empty
    set) always exists; a point move needs a nonempty universe."""
    return bool(node.point_children if point else node.set_children)


def reference_quantifier_rank(phi: Formula) -> int:
    """The quantifier rank by its definition: 0 at an atom, the max over
    the operands of a connective, one more than the body at a quantifier."""
    if is_atomic(phi):
        return 0
    if isinstance(phi, Not):
        return reference_quantifier_rank(phi.sub)
    if isinstance(phi, (And, Or)):
        return max(reference_quantifier_rank(phi.left), reference_quantifier_rank(phi.right))
    return reference_quantifier_rank(phi.sub) + 1


def reference_rename_combine(o1, o2, d, op):
    """chartree.rename_combine by composing the two labels with compose,
    then inducing on the vector c that d reads off the labels' positions,
    with the traces placed side by side."""
    k1 = o1.structure.n
    it1, it2 = iter(o1.positions), iter(o2.positions)
    c = [next(it1) if side == 1 else k1 + next(it2) for side in d]
    traces = [tr1 | tr2 << k1 for tr1, tr2 in zip(o1.set_traces, o2.set_traces)]
    return ordered_induced(compose(o1.structure, o2.structure, *op), c, traces)


def reference_char_tree(forest: RCForest, a: Structure, budget: int | Budget,
                        c: Sequence[int] = (),
                        sets: Sequence[Iterable[int] | int] = ()) -> int:
    """Reduced characteristic tree straight from the definition.

    Enumerates every move of the structure, about (2^n + n)^depth calls
    on n elements, and has no size guard: the oracle of the tree cross
    product and of the library's leaf builder.  The root sits at
    (len(c), len(sets)); below it, moves exist exactly where the budget
    allows them.
    """
    caps = as_budget(budget)
    c = tuple(c)
    masks = _as_masks(a.n, sets)

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


def to_nnf(phi: Formula) -> Formula:
    """Push negations to the atoms; preserves quantifier rank.

    The tree game takes any formula; on an NNF formula, evaluate's
    any/all recursion is the game played on the structure itself."""
    if is_atomic(phi):
        return phi
    if isinstance(phi, (And, Or)):
        return type(phi)(to_nnf(phi.left), to_nnf(phi.right))
    if isinstance(phi, (ExistsObj, ForallObj)):
        return type(phi)(phi.var, to_nnf(phi.sub))
    if isinstance(phi, (ExistsSet, ForallSet)):
        return type(phi)(phi.set_var, to_nnf(phi.sub))
    sub = phi.sub
    if is_atomic(sub):
        return phi
    if isinstance(sub, Not):
        return to_nnf(sub.sub)
    if isinstance(sub, And):
        return Or(to_nnf(Not(sub.left)), to_nnf(Not(sub.right)))
    if isinstance(sub, Or):
        return And(to_nnf(Not(sub.left)), to_nnf(Not(sub.right)))
    if isinstance(sub, ExistsObj):
        return ForallObj(sub.var, to_nnf(Not(sub.sub)))
    if isinstance(sub, ForallObj):
        return ExistsObj(sub.var, to_nnf(Not(sub.sub)))
    if isinstance(sub, ExistsSet):
        return ForallSet(sub.set_var, to_nnf(Not(sub.sub)))
    if isinstance(sub, ForallSet):
        return ExistsSet(sub.set_var, to_nnf(Not(sub.sub)))
    raise RwmsoError(f"unknown formula node {sub!r}")


def is_nnf(phi: Formula) -> bool:
    if isinstance(phi, Not):
        return is_atomic(phi.sub)
    if is_atomic(phi):
        return True
    if isinstance(phi, (And, Or)):
        return is_nnf(phi.left) and is_nnf(phi.right)
    return is_nnf(phi.sub)


def relabel(g: Structure, f: Relabeling) -> Structure:
    """Apply the relabeling to every label row; edges are untouched."""
    _check_width(g.t, f.t)
    return Structure(g.n, g.t, g.adj, tuple(gf2.vec_times_matrix(lab, f.rows)
                                           for lab in g.labels))


def is_partial_isomorphism(a: Structure, b: Structure,
                           a_sets: Sequence[Iterable[int] | int],
                           b_sets: Sequence[Iterable[int] | int],
                           pi: Mapping[int, int]) -> bool:
    """Check that pi preserves E, the labels, and set membership both ways."""
    if len(a_sets) != len(b_sets):
        raise RwmsoError("set tuples differ in length")
    a_masks = _as_masks(a.n, a_sets)
    b_masks = _as_masks(b.n, b_sets)
    items = list(pi.items())
    if len({v for _, v in items}) != len(items):
        return False
    for u, v in items:
        if not (0 <= u < a.n and 0 <= v < b.n):
            return False
        if a.labels[u] != b.labels[v]:
            return False
        for am, bm in zip(a_masks, b_masks):
            if ((am >> u) & 1) != ((bm >> v) & 1):
                return False
        for u2, v2 in items:
            if a.has_edge(u, u2) != b.has_edge(v, v2):
                return False
    return True


def dot(a: int, b: int) -> int:
    """Scalar product of two bit-vectors."""
    return (a & b).bit_count() & 1


def generated_subspace(g: Structure, x: Iterable[int]) -> tuple[int, ...]:
    """Canonical basis of the subspace spanned by the labels of X."""
    return gf2.row_echelon(g.labels[u] for u in x)


def subspaces_orthogonal(b1: Iterable[int], b2: Iterable[int]) -> bool:
    """True iff every vector of b1 is orthogonal to every vector of b2."""
    b2 = tuple(b2)
    return all(dot(v1, v2) == 0 for v1 in b1 for v2 in b2)


def _validate(g: Structure, d: BranchDecomposition):
    degree = [0] * d.num_nodes
    for a, b in d.edges:
        if not (0 <= a < d.num_nodes and 0 <= b < d.num_nodes):
            raise RwmsoError("decomposition edge endpoint out of range")
        degree[a] += 1
        degree[b] += 1
    leaves = set(d.leaf_map.values())
    if len(leaves) != len(d.leaf_map) or set(d.leaf_map) != set(range(g.n)):
        raise RwmsoError("leaf map is not a bijection from the vertices")
    for node in range(d.num_nodes):
        if node in leaves:
            if degree[node] > 1:
                raise RwmsoError(f"leaf node {node} has degree {degree[node]}")
        elif degree[node] != 3 and d.num_nodes > 2:
            raise RwmsoError(f"internal node {node} has degree {degree[node]}")
    if len(d.edges) != d.num_nodes - 1:
        raise RwmsoError("decomposition tree is not a tree")


def _side_masks(d: BranchDecomposition) -> list[int]:
    """Per tree edge, the bitmask of graph vertices on the child side."""
    adj: dict[int, list[int]] = {i: [] for i in range(d.num_nodes)}
    for a, b in d.edges:
        adj[a].append(b)
        adj[b].append(a)
    leaf_of = {node: v for v, node in d.leaf_map.items()}
    masks = []
    for a, b in d.edges:
        # vertices on b's side of the edge (a, b)
        mask = 0
        stack = [(b, a)]
        while stack:
            node, parent = stack.pop()
            if node in leaf_of:
                mask |= 1 << leaf_of[node]
            stack.extend((nxt, node) for nxt in adj[node] if nxt != parent)
        masks.append(mask)
    return masks


def _subcubic_trees(n: int):
    """Yield every leaf-labeled subcubic tree on leaves 0..n-1.

    Trees are grown by inserting leaf k into each edge of every tree on
    the first k leaves; each tree is reported as (num_nodes, edges) with
    leaf i being node i.
    """
    if n == 1:
        yield 1, []
        return
    trees = [(n, [(0, 1)])]
    for k in range(2, n):
        grown = []
        for num_nodes, edges in trees:
            for i, (a, b) in enumerate(edges):
                mid = num_nodes
                new_edges = edges[:i] + edges[i + 1:] + [(a, mid), (mid, b), (mid, k)]
                grown.append((num_nodes + 1, new_edges))
        trees = grown
    yield from trees


def reference_exact_rankwidth(g: Structure) -> int:
    """Rankwidth as the minimum width over every leaf-labeled subcubic
    tree ((2n-5)!! of them), the oracle of exact_rankwidth's set DP;
    0 for n <= 1, where no cut exists."""
    if g.n <= 1:
        return 0
    rank_memo: dict[int, int] = {}
    best = g.n
    for num_nodes, edges in _subcubic_trees(g.n):
        d = BranchDecomposition(num_nodes, edges, {v: v for v in range(g.n)})
        width = 0
        for mask in _side_masks(d):
            if mask not in rank_memo:
                rank_memo[mask] = cut_rank(g, [u for u in range(g.n) if (mask >> u) & 1])
            width = max(width, rank_memo[mask])
            if width >= best:
                break
        best = min(best, width)
    return best


def decomposition_width(g: Structure, d: BranchDecomposition) -> int:
    """Maximum cut-rank over the cuts induced by the tree edges."""
    _validate(g, d)
    if not d.edges:
        return 0
    width = 0
    for mask in _side_masks(d):
        y = [u for u in range(g.n) if (mask >> u) & 1]
        width = max(width, cut_rank(g, y))
    return width


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


def catalog(max_qr: int | None = None, t: int = 2) -> list[tuple[str, Formula]]:
    """Parsed catalog sentences, optionally filtered by quantifier rank."""
    out = []
    for entry in CATALOG:
        if max_qr is None or entry.qr <= max_qr:
            out.append((entry.name, parse_formula(entry.text, t)))
    return out
