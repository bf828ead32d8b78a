"""Model-checking evaluators: direct semantics, and the verifier/falsifier
game on reduced characteristic trees.

The direct evaluator is the semantic oracle (exponential in set
quantifiers); on a formula in negation normal form its any/all
recursion is the model checking game played on the structure itself.
The tree game never looks at the original structure: object variables
resolve to node positions, set variables to traces.  Set-set equality
atoms are supported by the direct evaluator only; a tree node keeps
just the trace of each chosen set, which cannot decide equality of the
full sets, so the tree game rejects such atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .chartree import RCTree, char_tree_from_parse_tree, in_budget
from .errors import DepthBudgetError, RwmsoError
from .logic import (Adj, And, Equal, ExistsObj, ExistsSet, ForallObj,
                    ForallSet, Formula, In, Label, Not, Or, SetEqual,
                    free_variables, is_atomic, is_nnf, is_sentence,
                    move_budget, parse_formula, to_nnf)
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


def _index_positions(phi: Formula, x_vars: tuple[str, ...], X_vars: tuple[str, ...]):
    """Assign pre-order ids to subformula positions with their collected variables."""
    records: list[tuple[Formula, tuple[str, ...], tuple[str, ...]]] = []
    children: dict[int, tuple[int, ...]] = {}
    stack = [(phi, x_vars, X_vars, -1)]   # with the parent's id
    while stack:
        psi, objs, sets, parent = stack.pop()
        idx = len(records)
        records.append((psi, objs, sets))
        children[idx] = ()
        if parent >= 0:
            children[parent] += (idx,)
        if isinstance(psi, (And, Or)):
            stack += ((psi.right, objs, sets, idx), (psi.left, objs, sets, idx))
        elif isinstance(psi, (ExistsObj, ForallObj)):
            stack.append((psi.sub, objs + (psi.var,), sets, idx))
        elif isinstance(psi, (ExistsSet, ForallSet)):
            stack.append((psi.sub, objs, sets + (psi.set_var,), idx))
    return records, children


def _atom_in_ordered(ord_struct, psi: Formula, objs, sets) -> bool:
    s = ord_struct.structure
    pos = ord_struct.positions

    def el(v):
        return pos[objs.index(v)]

    if isinstance(psi, Not):
        return not _atom_in_ordered(ord_struct, psi.sub, objs, sets)
    if isinstance(psi, Equal):
        return el(psi.left) == el(psi.right)
    if isinstance(psi, Adj):
        return s.has_edge(el(psi.left), el(psi.right))
    if isinstance(psi, Label):
        return bool((s.labels[el(psi.var)] >> (psi.index - 1)) & 1)
    if isinstance(psi, In):
        return bool((ord_struct.set_traces[sets.index(psi.set_var)] >> el(psi.var)) & 1)
    if isinstance(psi, SetEqual):
        raise RwmsoError(
            "set-set equality cannot be decided from set traces; "
            "use the direct evaluator or rewrite via a point quantifier")
    raise RwmsoError(f"not an atomic formula: {psi!r}")


def game_on_tree(tree: RCTree, phi: Formula,
                 x_vars: tuple[str, ...] = (), X_vars: tuple[str, ...] = (),
                 stats: GameStats | None = None) -> bool:
    """Winner of the model checking game on a reduced characteristic tree.

    Object quantifiers descend along point extensions, set quantifiers
    along set extensions, connectives stay on the node, and atoms are
    decided inside the node label with the i-th collected variable bound
    to the i-th position (or trace).  Memoized per (node, position).
    Raises DepthBudgetError, before playing, if phi has a quantifier
    whose move the tree was not built for.
    """
    if not isinstance(tree, RCTree):
        raise RwmsoError(f"the game needs an RCTree, got {type(tree).__name__}")
    if not is_nnf(phi):
        raise RwmsoError("the game is defined on negation normal form")
    fv = free_variables(phi)
    if set(fv.objects) - set(x_vars) or set(fv.sets) - set(X_vars):
        raise RwmsoError("free variables of the formula must be listed")
    if len(set(x_vars)) != len(x_vars) or len(set(X_vars)) != len(X_vars):
        raise RwmsoError("duplicate variable names")

    forest = tree.forest
    caps = tree.budget
    root = forest.node(tree.root)
    if root.m != len(x_vars) or root.p != len(X_vars):
        raise RwmsoError(
            f"tree was built for m={root.m}, p={root.p}; "
            f"got {len(x_vars)} object and {len(X_vars)} set variables")

    records, children = _index_positions(phi, tuple(x_vars), tuple(X_vars))
    for psi, objs, sets in records:
        if isinstance(psi, (ExistsObj, ForallObj)):
            kind, m, p = "point", len(objs) + 1, len(sets)
        elif isinstance(psi, (ExistsSet, ForallSet)):
            kind, m, p = "set", len(objs), len(sets) + 1
        else:
            continue
        if not in_budget(caps, m, p):
            raise DepthBudgetError(
                f"a {kind} move to m={m}, p={p} is outside the tree's move "
                f"budget {list(caps)}: build the tree for the formula's budget")
    memo: dict[tuple[int, int], bool] = {}

    def rec(nid: int, pos: int) -> bool:
        mk = (nid, pos)
        hit = memo.get(mk)
        if hit is not None:
            return hit
        if stats is not None:
            stats.evaluations += 1
        psi, objs, sets = records[pos]
        node = forest.node(nid)
        if is_atomic(psi) or isinstance(psi, Not):
            out = _atom_in_ordered(node.ord, psi, objs, sets)
        elif isinstance(psi, (And, Or)):
            l, r = children[pos]
            if isinstance(psi, And):
                out = rec(nid, l) and rec(nid, r)
            else:
                out = rec(nid, l) or rec(nid, r)
        else:
            point = isinstance(psi, (ExistsObj, ForallObj))
            moves = node.point_children if point else node.set_children
            (sub,) = children[pos]
            if isinstance(psi, (ExistsObj, ExistsSet)):
                out = any(rec(ch, sub) for ch in moves)
            else:
                out = all(rec(ch, sub) for ch in moves)
        memo[mk] = out
        return out

    try:
        return rec(tree.root, 0)
    finally:
        # rec reaches itself through its closure cell; clearing the cell
        # frees it and the memo now instead of leaving a cycle to the
        # garbage collector
        del rec


def model_check(tree: ParseTree, phi: Formula) -> bool:
    """Decide whether the generated graph models the sentence.

    Builds the reduced characteristic tree for phi's move budget from
    the parse tree, then plays the game on it; never materializes the
    graph.
    """
    if not is_sentence(phi):
        raise RwmsoError("model checking requires a sentence (no free variables)")
    nnf = to_nnf(phi)
    return game_on_tree(char_tree_from_parse_tree(tree, move_budget(nnf)), nnf)


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


def catalog(max_qr: int | None = None, t: int = 2) -> list[tuple[str, Formula]]:
    """Parsed catalog sentences, optionally filtered by quantifier rank."""
    out = []
    for entry in CATALOG:
        if max_qr is None or entry.qr <= max_qr:
            out.append((entry.name, parse_formula(entry.text, t)))
    return out
