"""Model-checking evaluators: direct semantics, and the verifier/falsifier
game on reduced characteristic trees.

The direct evaluator is the semantic oracle (exponential in set
quantifiers); on a formula in negation normal form its any/all
recursion is the model checking game played on the structure itself.
The tree game takes any formula and compiles it once into the int
positions of its negation normal form.  It never looks at the original
structure: each object variable resolves to its innermost binder's
node position, each set variable to its binder's trace.  Set-set
equality atoms are supported by the direct evaluator only; a tree node
keeps just the trace of each chosen set, which cannot decide equality
of the full sets, so the tree game refuses a formula containing one.
Verdicts reads the game's compiled table for three-valued verdicts that
no composition context can change; LinEMSO prunes its states by them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .chartree import RCTree, char_tree_from_parse_tree, in_budget
from .errors import DepthBudgetError, RwmsoError
from .logic import (Adj, And, Equal, ExistsObj, ExistsSet, ForallObj,
                    ForallSet, Formula, In, Label, Not, Or, SetEqual,
                    free_variables, is_sentence, move_budget)
from .parsetree import ParseTree
from .structures import Structure


@dataclass(frozen=True)
class Assignment:
    """Values for free variables: elements for object variables,
    element sets for set variables."""

    objects: Mapping[str, int] = field(default_factory=dict)
    sets: Mapping[str, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        overlap = set(self.objects) & set(self.sets)
        if overlap:
            raise RwmsoError(f"variables assigned twice: {sorted(overlap)}")


def _check_assignment(a: Structure, phi: Formula, alpha: Assignment):
    fv = free_variables(phi)
    missing = [v for v in fv.objects if v not in alpha.objects]
    missing += [v for v in fv.sets if v not in alpha.sets]
    if missing:
        raise RwmsoError(f"unbound free variables: {missing}")
    for v, e in alpha.objects.items():
        if not 0 <= e < a.n:
            raise RwmsoError(f"assignment of {v} outside universe")
    for v, s in alpha.sets.items():
        if any(not 0 <= e < a.n for e in s):
            raise RwmsoError(f"assignment of {v} outside universe")


def evaluate(a: Structure, phi: Formula, alpha: Assignment | None = None) -> bool:
    """Truth of phi in the structure under the assignment.

    Follows the satisfaction relation directly; set quantifiers iterate
    over all subsets, so keep the universe small.
    """
    alpha = alpha or Assignment()
    _check_assignment(a, phi, alpha)
    obj = dict(alpha.objects)
    sets = {v: sum(1 << e for e in s) for v, s in alpha.sets.items()}
    return _eval(a, phi, obj, sets)


def _eval(a: Structure, phi: Formula, obj: dict[str, int], sets: dict[str, int]) -> bool:
    if isinstance(phi, Equal):
        return obj[phi.left] == obj[phi.right]
    if isinstance(phi, SetEqual):
        return sets[phi.left] == sets[phi.right]
    if isinstance(phi, Adj):
        return a.has_edge(obj[phi.left], obj[phi.right])
    if isinstance(phi, Label):
        return bool((a.labels[obj[phi.var]] >> (phi.index - 1)) & 1)
    if isinstance(phi, In):
        return bool((sets[phi.set_var] >> obj[phi.var]) & 1)
    if isinstance(phi, Not):
        return not _eval(a, phi.sub, obj, sets)
    if isinstance(phi, And):
        return _eval(a, phi.left, obj, sets) and _eval(a, phi.right, obj, sets)
    if isinstance(phi, Or):
        return _eval(a, phi.left, obj, sets) or _eval(a, phi.right, obj, sets)
    if isinstance(phi, ExistsObj):
        return any(_eval(a, phi.sub, {**obj, phi.var: d}, sets) for d in range(a.n))
    if isinstance(phi, ForallObj):
        return all(_eval(a, phi.sub, {**obj, phi.var: d}, sets) for d in range(a.n))
    if isinstance(phi, ExistsSet):
        return any(_eval(a, phi.sub, obj, {**sets, phi.set_var: mask})
                   for mask in range(1 << a.n))
    if isinstance(phi, ForallSet):
        return all(_eval(a, phi.sub, obj, {**sets, phi.set_var: mask})
                   for mask in range(1 << a.n))
    raise RwmsoError(f"unknown formula node {phi!r}")


# --- the game on characteristic trees ------------------------------------

@dataclass
class GameStats:
    """Number of (node, subformula position) pairs actually evaluated."""

    evaluations: int = 0


# kinds of the game's positions; a position is (kind, a, b): and/or
# have children a and b, a quantifier has its child a and b = 1 for a
# point move or 0 for a set move, an atom has its test a and polarity b.
# Label atoms have their own kind because a later relabeling can change
# them (see Verdicts); the game plays both atom kinds alike.
_LABEL, _ATOM, _AND, _OR, _EXISTS, _FORALL = range(6)


def _binder(names: tuple[str, ...], v: str) -> int:
    """Index of v's innermost binder among the variables placed so far."""
    for i in range(len(names) - 1, -1, -1):
        if names[i] == v:
            return i
    raise RwmsoError(f"free variable {v!r} of the formula is not listed")


def _compile(psi: Formula, positive: bool, objs: tuple[str, ...],
             sets: tuple[str, ...], caps, table: list) -> int:
    """Append psi's positions to table in pre-order; return psi's index.

    A negation flips the polarity and takes no position, so the table
    holds exactly the positions of psi's negation normal form.  Each
    variable resolves here to its innermost binder's index, and each
    quantifier's move is checked against the tree's budget caps.
    """
    if isinstance(psi, Not):
        return _compile(psi.sub, not positive, objs, sets, caps, table)
    pos = len(table)
    table.append(None)
    if isinstance(psi, (And, Or)):
        kind = _AND if isinstance(psi, And) == positive else _OR
        left = _compile(psi.left, positive, objs, sets, caps, table)
        table[pos] = (kind, left, _compile(psi.right, positive, objs, sets, caps, table))
    elif isinstance(psi, (ExistsObj, ForallObj, ExistsSet, ForallSet)):
        point = isinstance(psi, (ExistsObj, ForallObj))
        if point:
            objs += (psi.var,)
        else:
            sets += (psi.set_var,)
        m, p = len(objs), len(sets)
        if not in_budget(caps, m, p):
            raise DepthBudgetError(
                f"a {'point' if point else 'set'} move to m={m}, p={p} is outside "
                f"the tree's move budget {list(caps)}: build the tree for the "
                "formula's budget")
        kind = _EXISTS if isinstance(psi, (ExistsObj, ExistsSet)) == positive else _FORALL
        table[pos] = (kind, _compile(psi.sub, positive, objs, sets, caps, table), int(point))
    else:
        kind = _LABEL if isinstance(psi, Label) else _ATOM
        table[pos] = (kind, _atom_test(psi, objs, sets), positive)
    return pos


def _atom_test(psi: Formula, objs: tuple[str, ...], sets: tuple[str, ...]):
    """The atom as a test on a node's ordered structure, its variables
    resolved to position and trace indices."""
    if isinstance(psi, (Equal, Adj)):
        i, j = _binder(objs, psi.left), _binder(objs, psi.right)
        if isinstance(psi, Equal):
            return lambda o: o.positions[i] == o.positions[j]
        return lambda o: o.structure.has_edge(o.positions[i], o.positions[j])
    if isinstance(psi, Label):
        i, bit = _binder(objs, psi.var), psi.index - 1
        return lambda o: (o.structure.labels[o.positions[i]] >> bit) & 1
    if isinstance(psi, In):
        k, i = _binder(sets, psi.set_var), _binder(objs, psi.var)
        return lambda o: (o.set_traces[k] >> o.positions[i]) & 1
    if isinstance(psi, SetEqual):
        raise RwmsoError(
            "set-set equality cannot be decided from set traces; "
            "use the direct evaluator or rewrite via a point quantifier")
    raise RwmsoError(f"unknown formula node {psi!r}")


def game_on_tree(tree: RCTree, phi: Formula,
                 x_vars: tuple[str, ...] = (), X_vars: tuple[str, ...] = (),
                 stats: GameStats | None = None) -> bool:
    """Winner of the model checking game on a reduced characteristic tree.

    phi, any formula, is compiled once into the int positions of its
    negation normal form.  Object quantifiers descend along point
    extensions, set quantifiers along set extensions, connectives stay
    on the node, and atoms are decided inside the node label, each
    variable at its innermost binder's position (or trace), after the
    listed x_vars and X_vars.  Memoized per (node, position).  Before
    playing, raises RwmsoError for an unlisted free variable or a
    set-set equality anywhere in phi, and DepthBudgetError for a
    quantifier whose move the tree was not built for.
    """
    if not isinstance(tree, RCTree):
        raise RwmsoError(f"the game needs an RCTree, got {type(tree).__name__}")
    if len(set(x_vars)) != len(x_vars) or len(set(X_vars)) != len(X_vars):
        raise RwmsoError("duplicate variable names")

    forest = tree.forest
    root = forest.node(tree.root)
    if root.m != len(x_vars) or root.p != len(X_vars):
        raise RwmsoError(
            f"tree was built for m={root.m}, p={root.p}; "
            f"got {len(x_vars)} object and {len(X_vars)} set variables")
    table: list[tuple] = []
    _compile(phi, True, tuple(x_vars), tuple(X_vars), tree.budget, table)
    memo: dict[tuple[int, int], bool] = {}

    def rec(nid: int, pos: int) -> bool:
        mk = (nid, pos)
        hit = memo.get(mk)
        if hit is not None:
            return hit
        if stats is not None:
            stats.evaluations += 1
        kind, a, b = table[pos]
        node = forest.node(nid)
        if kind <= _ATOM:
            out = a(node.ord) == b
        elif kind == _AND:
            out = rec(nid, a) and rec(nid, b)
        elif kind == _OR:
            out = rec(nid, a) or rec(nid, b)
        else:
            moves = node.point_children if b else node.set_children
            if kind == _EXISTS:
                out = any(rec(ch, a) for ch in moves)
            else:
                out = all(rec(ch, a) for ch in moves)
        memo[mk] = out
        return out

    try:
        return rec(tree.root, 0)
    finally:
        # rec reaches itself through its closure cell; clearing the cell
        # frees it and the memo now instead of leaving a cycle to the
        # garbage collector
        del rec


# --- stable verdicts ------------------------------------------------------

# three-valued verdicts, ordered so that Kleene's and/or are min/max
BOTTOM, UNKNOWN, TOP = range(3)


class Verdicts:
    """Three-valued verdicts of phi's positions on the nodes of a forest.

    The verdict of a node of a subgraph's reduced tree is TOP (BOTTOM)
    only if the position is won (lost) in every graph the subgraph is
    composed into, whatever the placed sets contain outside it.
    Compositions add edges only across their two sides, so atoms over
    placed vertices are final, except label atoms, which later
    relabelings change: those are UNKNOWN.  And/or follow Kleene logic.
    An existential move is TOP if some child is, a universal one BOTTOM
    if some child is (point and set moves alike); a witness or a
    counterexample outside the subgraph may still come, so nothing else
    is decided.

    That makes pruning by BOTTOM sound: a LinEMSO state whose verdict
    at position 0 is BOTTOM fails phi at the root of every parse tree
    it is composed into, and so does every product built from it.
    Dropping it leaves the surviving states, the optimum and, since the
    pairs are still visited in the same order, the first-found witness
    unchanged.

    phi, with free set variables X_vars and no free object variables,
    is compiled once into the game's position table for budget, a caps
    tuple; verdicts are memoized per (node id, position).  can_fail is
    the static pass: it is False when no verdict at position 0 can be
    BOTTOM, because every path to a decided atom passes an existential
    move, a label atom or a disjunct that cannot fail.  Such formulas
    (min dominating set's) skip the verdicts, which would cost them
    time and drop nothing.
    """

    def __init__(self, forest, phi: Formula, X_vars: tuple[str, ...], budget):
        self.table: list[tuple] = []
        _compile(phi, True, (), X_vars, budget, self.table)
        self.node = forest.node
        self.memo: dict[int, int] = {}
        self.can_fail = _can_fail(self.table)

    def at(self, nid: int, pos: int = 0) -> int:
        """The verdict of position pos at node nid."""
        key = nid * len(self.table) + pos
        out = self.memo.get(key)
        if out is not None:
            return out
        kind, a, b = self.table[pos]
        node = self.node(nid)
        if kind == _ATOM:
            out = TOP if a(node.ord) == b else BOTTOM
        elif kind == _LABEL:
            out = UNKNOWN
        elif kind == _AND:
            out = self.at(nid, a)
            if out != BOTTOM:
                out = min(out, self.at(nid, b))
        elif kind == _OR:
            out = self.at(nid, a)
            if out != TOP:
                out = max(out, self.at(nid, b))
        else:
            moves = node.point_children if b else node.set_children
            decided = TOP if kind == _EXISTS else BOTTOM
            out = decided if any(self.at(ch, a) == decided for ch in moves) else UNKNOWN
        self.memo[key] = out
        return out


def _can_fail(table: list[tuple]) -> bool:
    """Whether some verdict of position 0 can be BOTTOM.  Children follow
    their parent in the pre-order table, so one backward scan does."""
    fail = [False] * len(table)
    for pos in range(len(table) - 1, -1, -1):
        kind, a, b = table[pos]
        if kind == _ATOM:
            fail[pos] = True
        elif kind == _AND:
            fail[pos] = fail[a] or fail[b]
        elif kind == _OR:
            fail[pos] = fail[a] and fail[b]
        elif kind == _FORALL:
            fail[pos] = fail[a]
    return fail[0]


def model_check(tree: ParseTree, phi: Formula) -> bool:
    """Decide whether the generated graph models the sentence.

    Builds the reduced characteristic tree for phi's move budget from
    the parse tree, then plays the game on it; never materializes the
    graph.
    """
    if not is_sentence(phi):
        raise RwmsoError("model checking requires a sentence (no free variables)")
    return game_on_tree(char_tree_from_parse_tree(tree, move_budget(phi)), phi)


# --- formula catalog (shared test fixture) --------------------------------

@dataclass(frozen=True)
class CatalogSentence:
    name: str
    text: str
    qr: int


CATALOG: tuple[CatalogSentence, ...] = (
    CatalogSentence("nonempty", "Ex x. x = x", 1),
    CatalogSentence("has-label1", "Ex x. label1(x)", 1),
    CatalogSentence("all-label1", "Ax x. label1(x)", 1),
    CatalogSentence("has-label2", "Ex x. label2(x)", 1),
    CatalogSentence("has-edge", "Ex x. Ex y. adj(x,y)", 2),
    CatalogSentence("edgeless", "Ax x. Ax y. !adj(x,y)", 2),
    CatalogSentence("has-isolated-vertex", "Ex x. Ax y. !adj(x,y)", 2),
    CatalogSentence("complete", "Ax x. Ax y. (x = y | adj(x,y))", 2),
    CatalogSentence("has-two-vertices", "Ex x. Ex y. !x = y", 2),
    CatalogSentence("has-dominating-vertex", "Ex x. Ax y. (x = y | adj(x,y))", 2),
    CatalogSentence("label1-dominates",
                    "Ax x. (label1(x) | (Ex y. (adj(x,y) & label1(y))))", 2),
    CatalogSentence("every-set-sees-itself", "AX S. Ex x. (S(x) | !S(x))", 2),
    CatalogSentence("two-colorable",
                    "EX C. Ax x. Ax y. (!adj(x,y) | (C(x) & !C(y)) | (!C(x) & C(y)))", 3),
    CatalogSentence("independent-set-meets-all-edges",
                    "EX S. Ax x. Ax y. ((!adj(x,y) | !S(x) | !S(y))"
                    " & (!adj(x,y) | S(x) | S(y)))", 3),
    CatalogSentence("has-triangle",
                    "Ex x. Ex y. Ex z. (adj(x,y) & adj(y,z) & adj(x,z))", 3),
)
