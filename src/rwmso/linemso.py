"""Linear optimization subject to an MSO1 constraint.

A problem is a formula with free set variables X1..Xl, integer weights
a1..al and a direction.  The solver is the parse-tree fold of model
checking with a richer value per subtree: a map from reduced
characteristic trees, built with the l chosen sets preloaded as traces,
to the best weight (plus one witness) reaching that tree.  The 2^l leaf
states are built once per solve and combined pairwise with the tree
cross product.  At the root, the game decides which states satisfy the
formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chartree import (RCForest, RCTree, reduced_char_tree_direct,
                       tree_cross_product)
from .errors import RwmsoError
from .games import game_on_tree
from .logic import Formula, free_variables, quantifier_rank, to_nnf
from .parsetree import ParseTree, fold
from .structures import Structure


@dataclass(frozen=True)
class LinEMSOProblem:
    phi: Formula
    weights: tuple[int, ...]
    direction: str  # "max" or "min"

    def __post_init__(self):
        if self.direction not in ("max", "min"):
            raise RwmsoError(f"direction must be 'max' or 'min', got {self.direction!r}")
        fv = free_variables(self.phi)
        if fv.objects:
            raise RwmsoError(f"free object variables are not allowed: {fv.objects}")
        if len(self.weights) != len(fv.sets):
            raise RwmsoError(
                f"{len(fv.sets)} free set variables but {len(self.weights)} weights")

    @property
    def set_vars(self) -> tuple[str, ...]:
        return free_variables(self.phi).sets


@dataclass(frozen=True)
class LinEMSOResult:
    value: int
    witness: tuple[frozenset[int], ...]


def solve_linemso(tree: ParseTree, problem: LinEMSOProblem) -> LinEMSOResult | None:
    """Optimize sum a_i |U_i| over set tuples satisfying the formula.

    Returns None when no assignment satisfies it.  The characteristic
    trees are built with depth qr(phi) + l: the preloaded sets occupy l
    set moves, leaving exactly qr(phi) moves for the game at the root.
    """
    weights = problem.weights
    l = len(weights)
    q = quantifier_rank(problem.phi) + l
    nnf = to_nnf(problem.phi)
    set_vars = problem.set_vars
    forest = RCForest()
    prefer_larger = problem.direction == "max"

    def better(a: int, b: int) -> bool:
        return a > b if prefer_larger else a < b

    # states per subtree: interned tree id -> (weight, witness); ties keep
    # the first-found witness, so results are deterministic
    leaf_struct = Structure(1, tree.t, (0,), (1,))
    leaf_states: dict[int, tuple[int, tuple[frozenset[int], ...]]] = {}
    for choice in range(1 << l):
        masks = tuple((choice >> i) & 1 for i in range(l))
        rid = reduced_char_tree_direct(forest, leaf_struct, q, (), masks)
        value = sum(w for w, m in zip(weights, masks) if m)
        witness = tuple(frozenset({0} if m else ()) for m in masks)
        old = leaf_states.get(rid)
        if old is None or better(value, old[0]):
            leaf_states[rid] = (value, witness)

    def combine(left, right, op):
        (states1, n1), (states2, n2) = left, right
        combined = {}
        for id1, (v1, w1) in states1.items():
            for id2, (v2, w2) in states2.items():
                rid = tree_cross_product(forest, id1, id2, q, op)
                value = v1 + v2
                old = combined.get(rid)
                if old is None or better(value, old[0]):
                    witness = tuple(
                        a | frozenset(x + n1 for x in b)
                        for a, b in zip(w1, w2))
                    combined[rid] = (value, witness)
        return combined, n1 + n2

    classes, _ = fold(tree, (leaf_states, 1), combine)
    best: tuple[int, tuple[frozenset[int], ...]] | None = None
    for rid, (value, witness) in classes.items():
        if not game_on_tree(RCTree(forest, rid), nnf, (), set_vars):
            continue
        if best is None or better(value, best[0]):
            best = (value, witness)
    if best is None:
        return None
    value, witness = best
    check = sum(w * len(u) for w, u in zip(weights, witness))
    if check != value:
        raise RwmsoError(f"witness weight {check} does not reproduce value {value}")
    return LinEMSOResult(value, witness)
