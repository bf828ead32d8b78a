"""Model-checking evaluators: direct semantics, and the verifier/falsifier
game on reduced characteristic trees.

The direct evaluator is the semantic oracle (exponential in set
quantifiers); on a formula in negation normal form its any/all
recursion is the model checking game played on the structure itself.
The tree game takes any formula and compiles it once per forest into
the int positions of its negation normal form, which all games on that
forest share with one memo.  It never looks at the original structure:
each object variable resolves to its innermost binder's node position,
each set variable to its binder's trace.  Set-set equality atoms are
supported by the direct evaluator only; a tree node keeps just the
trace of each chosen set, which cannot decide equality of the full
sets, so the tree game refuses a formula containing one.
Verdicts reads the compiled table for three-valued verdicts that no
composition context can change; by them both folds collapse the
subtrees phi has lost (check_collapse).  The game is the Verdicts whose
verdicts are final, as nothing is composed into the whole graph: they
are its winners.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .chartree import LOST, Collapse, RCTree, char_tree_from_parse_tree, in_budget
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


def _compile(phi: Formula, objs: tuple[str, ...],
             sets: tuple[str, ...]) -> tuple[list, dict, list, list]:
    """phi's positions in pre-order, after the listed objs and sets: the
    table, its atoms, position -> (formula class, object indices read,
    innermost object index), each position's level (m, p), and per
    position whether some verdict of it can be BOTTOM (see Verdicts).

    A negation flips the polarity and takes no position, so the table
    holds exactly the positions of phi's negation normal form.  Each
    variable resolves here to its innermost binder's index.  One walk
    does it all: a position's level is the variables placed on entry,
    and whether it can fail is set in post-order, once its subtree is in
    the table.
    """
    table: list[tuple] = []
    atoms: dict[int, tuple] = {}
    levels: list[tuple[int, int]] = []
    fail: list[bool] = []

    def walk(psi: Formula, positive: bool, objs: tuple[str, ...],
             sets: tuple[str, ...]) -> int:
        if isinstance(psi, Not):
            return walk(psi.sub, not positive, objs, sets)
        pos = len(table)
        table.append(None)
        levels.append((len(objs), len(sets)))
        fail.append(False)
        if isinstance(psi, (And, Or)):
            kind = _AND if isinstance(psi, And) == positive else _OR
            a = walk(psi.left, positive, objs, sets)
            b = walk(psi.right, positive, objs, sets)
            table[pos] = (kind, a, b)
            fail[pos] = (fail[a] or fail[b]) if kind == _AND else (fail[a] and fail[b])
        elif isinstance(psi, (ExistsObj, ForallObj, ExistsSet, ForallSet)):
            point = isinstance(psi, (ExistsObj, ForallObj))
            if point:
                objs += (psi.var,)
            else:
                sets += (psi.set_var,)
            kind = _EXISTS if isinstance(psi, (ExistsObj, ExistsSet)) == positive else _FORALL
            a = walk(psi.sub, positive, objs, sets)
            table[pos] = (kind, a, int(point))
            if kind == _FORALL:
                fail[pos] = fail[a]
            elif point:  # see Verdicts for a point existential move
                fail[pos] = fail[a] and _outside(
                    table, atoms, a, lambda q: BOTTOM if fail[q] else UNKNOWN, None) == BOTTOM
        else:
            test, reads = _atom_test(psi, objs, sets)
            label = isinstance(psi, Label)
            table[pos] = (_LABEL if label else _ATOM, test, positive)
            atoms[pos] = (type(psi), reads, len(objs) - 1)
            fail[pos] = not label or positive  # a frozen vertex has no label
        return pos

    try:
        walk(phi, True, objs, sets)
        return table, atoms, levels, fail
    finally:
        del walk  # walk reaches itself through its closure cell


def _atom_test(psi: Formula, objs: tuple[str, ...], sets: tuple[str, ...]):
    """The atom as a test on a node's ordered structure, its variables
    resolved to position and trace indices, and the object-variable
    indices it reads."""
    if isinstance(psi, (Equal, Adj)):
        i, j = _binder(objs, psi.left), _binder(objs, psi.right)
        if isinstance(psi, Equal):
            return (lambda o: o.positions[i] == o.positions[j]), (i, j)
        return (lambda o: o.structure.has_edge(o.positions[i], o.positions[j])), (i, j)
    if isinstance(psi, Label):
        i, bit = _binder(objs, psi.var), psi.index - 1
        return (lambda o: (o.structure.labels[o.positions[i]] >> bit) & 1), (i,)
    if isinstance(psi, In):
        k, i = _binder(sets, psi.set_var), _binder(objs, psi.var)
        return (lambda o: (o.set_traces[k] >> o.positions[i]) & 1), (i,)
    if isinstance(psi, SetEqual):
        raise RwmsoError(
            "set-set equality cannot be decided from set traces; "
            "use the direct evaluator or rewrite via a point quantifier")
    raise RwmsoError(f"unknown formula node {psi!r}")


def _game(forest, phi: Formula, x_vars: tuple[str, ...], X_vars: tuple[str, ...]) -> _Game:
    """The forest's compiled game for phi, kept in forest.game_memo keyed
    by (phi, x_vars, X_vars), so every game on one forest, at any budget,
    compiles phi once and shares one memo; nodes are immutable, so an
    entry never goes stale."""
    key = (phi, x_vars, X_vars)
    game = forest.game_memo.get(key)
    if game is None:
        game = forest.game_memo[key] = _Game(forest, phi, x_vars, X_vars)
    return game


def game_on_tree(tree: RCTree, phi: Formula,
                 x_vars: tuple[str, ...] = (), X_vars: tuple[str, ...] = (),
                 stats: GameStats | None = None) -> bool:
    """Winner of the model checking game on a reduced characteristic tree.

    phi, any formula, is compiled once per forest into the int positions
    of its negation normal form.  Object quantifiers descend along point
    extensions, set quantifiers along set extensions, connectives stay
    on the node, and atoms are decided inside the node label, each
    variable at its innermost binder's position (or trace), after the
    listed x_vars and X_vars.  The winner is the root's final verdict
    (_Game), memoized per (node, position) in the forest, so games on
    several roots of one forest share their work; stats, if given,
    receives the memo's growth.  Before playing, raises RwmsoError for
    an unlisted free variable or a set-set equality anywhere in phi,
    DepthBudgetError for a quantifier whose move the tree's budget
    lacks, and RwmsoError for a tree that reaches the lost node without
    phi's own collapse test (check_collapse).
    """
    if not isinstance(tree, RCTree):
        raise RwmsoError(f"the game needs an RCTree, got {type(tree).__name__}")
    if len(set(x_vars)) != len(x_vars) or len(set(X_vars)) != len(X_vars):
        raise RwmsoError("duplicate variable names")

    forest = tree.forest
    root = forest.nodes[tree.root]
    if root.m != len(x_vars) or root.p != len(X_vars):
        raise RwmsoError(
            f"tree was built for m={root.m}, p={root.p}; "
            f"got {len(x_vars)} object and {len(X_vars)} set variables")
    game = _game(forest, phi, tuple(x_vars), tuple(X_vars))
    caps = tree.budget
    for (kind, _, point), (m, p) in zip(game.table, game.levels):  # a quantifier moves from (m, p)
        if kind >= _EXISTS and not in_budget(caps, m + point, p + 1 - point):
            raise DepthBudgetError(
                f"a {'point' if point else 'set'} move to m={m + point}, p={p + 1 - point} "
                f"is outside the tree's move budget {list(caps)}: build the tree for the "
                "formula's budget")
    lost = forest.lost
    if (lost is not None and (tree.collapse is None or tree.collapse is not game.test)
            and lost in forest.reachable(tree.root)):
        raise RwmsoError("the tree holds another sentence's lost node: fold it for this one")
    before = len(game.memo)
    won = game.at(tree.root) == TOP
    if stats is not None:
        stats.evaluations += len(game.memo) - before
    return won


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
    relabelings change.  And/or follow Kleene logic.  An existential
    move is TOP if some child is, a universal one BOTTOM if some child
    is (point and set moves alike).

    A vertex whose label row is 0 is frozen: relabelings are linear, so
    its row stays 0, and a cross edge needs an odd label product, so it
    gains no edge.  Its label atoms are therefore final, and no vertex
    outside the subgraph is ever adjacent to it.  So a point existential
    move is also BOTTOM when every child is and its body is BOTTOM for
    every outside vertex as the new variable y (_outside): there an atom
    without y keeps its verdict here, adj(y, x) is false for a frozen x
    and adj(y, y) always, y = x is false and y = y true, and any other
    atom with y or nested quantifier is UNKNOWN.  Nothing else is
    decided: a witness or a counterexample outside may still come.

    That makes check_collapse's collapse sound, in both folds.  Its test
    calls a node at a set-only level (0, p) lost when its verdict is
    BOTTOM at every entry of that level: position 0 at the game's start
    level (0, l), l the preloaded sets, and the body of each set
    quantifier that moves into (0, p).  The game reaches a (0, p) node
    only at an entry, as the root or by a set move, and walks
    connectives on it from there.  A product node at (0, p) is the node
    of a subgraph's tree with p sets placed, and the game on the whole
    graph reaches the entries of (0, p) only at products of such nodes
    with (0, p) nodes of the rest of the graph.  So a lost node loses
    every entry in every composition: replacing it by the forest's lost
    node, and every product with a lost factor at (0, p) too, leaves the
    winner at the root unchanged.  One lost node serves every level: a
    real node's label fixes its level, and so the level of each of its
    children, so sharing it merges no two real nodes that were distinct,
    and its label, chartree.LOST, is read as lost at every position by
    every view, made before or after the node: at() returns BOTTOM for
    it and stores nothing, so the game memo counts real nodes only.

    The start level holds only fold roots, no node's children, so a lost
    factor there makes only a lost root.  Levels past it count only for
    a set-first phi (no set quantifier below a point quantifier on any
    branch).  There every other product with a lost factor is a set
    child of a node at a level (m, p) with m >= 1, which the fold builds
    only when some branch of phi reaches (m, p + 1) by point moves
    (logic.move_budget), and the game of a set-first phi makes no set
    move there: from the root it walks (0, p) nodes by set moves and
    then real nodes by point moves only, so those products are off its
    move paths.  LinEMSO's states are roots at (0, l): the lost node's,
    which stands for every state phi has lost, is never stored, and the
    other states keep their values and pair order.  States whose collapsed
    trees are equal merge, and they have one winner in every composition.

    phi, with free set variables X_vars and no free object variables, is
    read as the forest's compiled game for it, so the verdicts and the root
    games compile phi once; verdicts are memoized per (node id, position)
    in a memo of their own.  fail, recorded by that compile, says per
    position whether any verdict of it can be BOTTOM; the collapse test
    reads the levels whose entries all can.
    """

    # a move's verdict when no child decides it; label atoms await relabelings
    _exists = _forall = UNKNOWN
    _relabeled = True

    def __init__(self, forest, phi: Formula, X_vars: tuple[str, ...]):
        game = _game(forest, phi, (), tuple(X_vars))
        self.table, self.atoms, self.fail = game.table, game.atoms, game.fail
        self.nodes, self.size = game.nodes, game.size
        self.memo: dict[int, int] = {}

    def at(self, nid: int, pos: int = 0) -> int:
        """The verdict of position pos at node nid."""
        key = nid * self.size + pos
        out = self.memo.get(key)
        if out is not None:
            return out
        node = self.nodes[nid]
        o = node.ord
        if o is LOST:
            return BOTTOM
        kind, a, b = self.table[pos]
        if (kind == _LABEL and self._relabeled
                and o.structure.labels[o.positions[self.atoms[pos][1][0]]]):
            out = UNKNOWN  # not frozen
        elif kind <= _ATOM:
            out = TOP if a(o) == b else BOTTOM
        elif kind == _AND:
            out = self.at(nid, a)
            if out != BOTTOM and (right := self.at(nid, b)) < out:
                out = right
        elif kind == _OR:
            out = self.at(nid, a)
            if out != TOP and (right := self.at(nid, b)) > out:
                out = right
        else:
            at = self.at  # once for the child loop, a plain one: no generator frame
            win = TOP if kind == _EXISTS else BOTTOM  # the child verdict that decides it
            out, all_bottom = (self._exists if win == TOP else self._forall), True
            for ch in (node.point_children if b else node.set_children):
                if (v := at(ch, a)) == win:
                    out = win
                    break
                all_bottom = all_bottom and v == BOTTOM
            if (out == UNKNOWN and win == TOP and all_bottom
                    and self.fail[pos]  # a point move
                    and _outside(self.table, self.atoms, a, functools.partial(at, nid), o)
                    == BOTTOM):
                out = BOTTOM
        self.memo[key] = out
        return out


class _Game(Verdicts):
    """The forest's compiled game for phi: its table, what _compile
    records, and final verdicts, as nothing is composed into the whole
    graph: label atoms are decided, an existential move with no TOP
    child is BOTTOM and a universal one with no BOTTOM child is TOP, so
    its memo holds the game's winners, and test phi's collapse test."""

    _exists, _forall, _relabeled = BOTTOM, TOP, False

    def __init__(self, forest, phi: Formula, x_vars: tuple, X_vars: tuple):
        self.table, self.atoms, self.levels, self.fail = _compile(phi, x_vars, X_vars)
        self.nodes, self.size = forest.nodes, len(self.table)
        self.memo, self.test, self.X_vars = {}, None, X_vars

    def collapse(self, forest, phi: Formula) -> Collapse | None:
        """phi's collapse test, kept in test: the first call makes it and
        interns the lost node.  None when no level can collapse, which each
        call finds again.  The test calls a node at a set-only level (0, p)
        lost when its verdict is BOTTOM at every entry of that level, each
        of which can fail (see Verdicts): position 0 at the start level,
        and past it, for a set-first phi, the body of each set quantifier
        that moves into (0, p)."""
        if self.test is not None:
            return self.test
        (m, l), levels = self.levels[0], self.levels
        entries = {} if m else {l: [0]}
        set_moves = [(levels[pos], a) for pos, (kind, a, point) in enumerate(self.table)
                     if kind >= _EXISTS and not point]
        if not any(level[0] for level, _ in set_moves):  # phi is set-first
            for (_, p), a in set_moves:
                entries.setdefault(p + 1, []).append(a)
        positions_at = {p: es for p, es in entries.items() if all(self.fail[e] for e in es)}
        if not positions_at:
            return None
        forest.lost_node()
        at, nodes = Verdicts(forest, phi, self.X_vars).at, self.nodes

        def lost(nid: int) -> bool:
            positions = positions_at.get(len(nodes[nid].ord.set_traces), ())
            for pos in positions:  # a plain loop: no generator frame
                if at(nid, pos) != BOTTOM:
                    return False
            return bool(positions)

        self.test = lost
        return lost


def _outside(table: list[tuple], atoms: dict[int, tuple], pos: int,
             verdict: Callable[[int], int], o) -> int:
    """The value of position pos, in the body of a point existential
    move, for every vertex outside the subgraph as its new variable (see
    Verdicts): verdict gives an atom without it, and o is the move's
    ordered structure, or None for _compile's fail flags."""
    kind, a, b = table[pos]
    if kind == _AND or kind == _OR:
        pair = (_outside(table, atoms, a, verdict, o), _outside(table, atoms, b, verdict, o))
        return min(pair) if kind == _AND else max(pair)
    if kind >= _EXISTS:
        return UNKNOWN
    cls, reads, new = atoms[pos]
    other = [i for i in reads if i != new]
    if len(other) == len(reads):
        return verdict(pos)
    if cls is Equal:  # y = y holds, y = x fails
        test = not other
    elif cls is Adj and (not other or o is None or not o.structure.labels[o.positions[other[0]]]):
        test = False  # no loop, no edge to a frozen x; statically any x may be frozen
    else:
        return UNKNOWN
    return TOP if test == b else BOTTOM


def check_collapse(phi: Formula) -> Callable[..., Collapse | None]:
    """The callable that both folds take for phi, with no free object
    variables: called with the fold's forest, it returns phi's collapse
    test, kept on the forest's compiled game for phi and its free set
    variables (_Game.collapse), or None.

    Model checking is char_tree_from_parse_tree(tree, move_budget(phi),
    collapse=check_collapse(phi)), then the game; linemso.solve_linemso
    folds its states with the same test.  The fold collapses the (0, p)
    products phi has lost into the forest's one lost node, which every
    view reads as lost by its label (see Verdicts for why the game's
    winner stays the same), and the forest's collapsed attribute counts
    them; with no test the tree is the one the fold builds without one.
    The tree keeps the test, and game_on_tree plays no other formula on
    its lost node.
    """
    X_vars = free_variables(phi).sets
    return lambda forest: _game(forest, phi, (), X_vars).collapse(forest, phi)


def model_check(tree: ParseTree, phi: Formula) -> bool:
    """Decide whether the generated graph models the sentence.

    Builds the reduced characteristic tree for phi's move budget from
    the parse tree, collapsed by check_collapse, then plays the game on
    it; never materializes the graph.
    """
    if not is_sentence(phi):
        raise RwmsoError("model checking requires a sentence (no free variables)")
    rc = char_tree_from_parse_tree(tree, move_budget(phi), collapse=check_collapse(phi))
    return game_on_tree(rc, phi)


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
