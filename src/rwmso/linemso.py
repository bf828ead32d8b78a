"""Linear optimization subject to an MSO1 constraint.

A problem is a formula with free set variables X1..Xl, integer weights
a1..al and a direction.  The solver is the parse-tree fold of model
checking with a richer value per subtree: two maps from reduced
characteristic trees, built with the l chosen sets preloaded as traces,
to the best weight reaching each tree and to one witness of it.  The
2^l leaf states are built once per solve and combined pairwise with the
tree cross product.  At the root, the game decides which states satisfy the
formula, all root states sharing one compiled game in the forest.  A
min problem is the max over negated weights.  A witness is one int
until the result: bit v*l + i says that vertex v is in set variable i,
so a product's witness is one or, with side 2's witnesses shifted once
per combine.

The fold collapses what the formula has lost into the forest's lost
node with model checking's test (games.check_collapse), whose state is
never stored; games.Verdicts says why this is sound.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .chartree import (RCForest, RCTree, reduced_char_tree_direct,
                       tree_cross_product)
from .errors import RwmsoError
from .games import check_collapse, game_on_tree
from .logic import Formula, free_variables, move_budget
from .parsetree import Decided, ParseTree, fold


class LinEMSOProblem(namedtuple("LinEMSOProblem", "phi weights direction")):
    """A tuple (phi: Formula, weights: tuple[int, ...], direction: "max"
    or "min"), validated when made."""

    __slots__ = ()

    def __new__(cls, phi: Formula, weights: tuple[int, ...], direction: str):
        if direction not in ("max", "min"):
            raise RwmsoError(f"direction must be 'max' or 'min', got {direction!r}")
        fv = free_variables(phi)
        if fv.objects:
            raise RwmsoError(f"free object variables are not allowed: {', '.join(fv.objects)}")
        if len(weights) != len(fv.sets):
            k, w = len(fv.sets), len(weights)
            raise RwmsoError(f"{k} free set variable{'s' * (k != 1)} "
                             f"but {w} weight{'s' * (w != 1)}")
        return tuple.__new__(cls, (phi, weights, direction))

    @property
    def set_vars(self) -> tuple[str, ...]:
        return free_variables(self.phi).sets

    @property
    def budget(self) -> tuple[int, ...]:
        """Move budget of the game with the l chosen sets preloaded."""
        return move_budget(self.phi, sets=len(self.weights))


class LinEMSOResult(NamedTuple):
    value: int
    witness: tuple[frozenset[int], ...]


class DPStats:
    """Peak states at any parse node, products collapsed, pairs combined, nodes interned."""

    __slots__ = ("peak_states", "collapsed", "pair_products", "peak_interned")

    def __init__(self):
        self.peak_states = self.collapsed = self.pair_products = self.peak_interned = 0


def unpack_witness(witness: int, l: int) -> tuple[frozenset[int], ...]:
    """The l vertex sets of a packed witness, whose bit v*l + i says that
    vertex v is in set i."""
    bits = bin(witness)[:1:-1]  # least significant first
    return tuple(frozenset(v for v, bit in enumerate(bits[i::l]) if bit == "1")
                 for i in range(l))


def solve_linemso(tree: ParseTree, problem: LinEMSOProblem,
                  stats: DPStats | None = None) -> LinEMSOResult | None:
    """Optimize sum a_i |U_i| over set tuples satisfying the formula.

    Returns None when no assignment satisfies it.  The characteristic
    trees are built for phi's move budget offset by the l preloaded
    sets, which occupy the first l set moves: every tree starts at
    (m, p) = (0, l) and has exactly the moves the game at the root takes.

    The fold takes phi's collapse test (games.check_collapse), as model
    checking's does, before the leaves; a lost leaf root or product (the
    lost node) is skipped where it is made, never stored, and a combine
    that keeps no state ends the fold (parsetree.Decided).  stats, if
    given, receives the peak state count, the products collapsed, the
    state pairs and the forest's node count, which bounds the states
    (they are ids in that forest), of the combines before any such stop.
    """
    sign = 1 if problem.direction == "max" else -1
    weights = tuple(sign * w for w in problem.weights)
    l = len(weights)
    budget = problem.budget
    set_vars = problem.set_vars
    forest = RCForest()
    if stats is None:
        stats = DPStats()

    test = check_collapse(problem.phi)(forest)
    lost = forest.lost
    # states per subtree: two maps from interned tree id, to its best weight
    # and to that weight's packed witness; ties keep the first-found witness,
    # so results are deterministic.  A leaf's witness is its choice: bit i
    # says that the vertex is in set i
    leaf_values, leaf_witnesses = {}, {}
    for choice in range(1 << l):
        bits = tuple((choice >> i) & 1 for i in range(l))
        rid = reduced_char_tree_direct(forest, tree.t, budget, bits)
        if test is not None and test(rid):
            continue
        value = sum(w for w, bit in zip(weights, bits) if bit)
        old = leaf_values.get(rid)
        if old is None or value > old:
            leaf_values[rid], leaf_witnesses[rid] = value, choice
    stats.peak_states = len(leaf_values)

    def combine_for(op):
        # op's root pairs, id1 -> {id2: product id}: a root pair is made only
        # by the call on its miss, so the index and op's memo miss alike
        index: dict[int, dict[int, int]] = {}

        def combine(left, right):
            (values1, witnesses1, n1), (values2, witnesses2, n2) = left, right
            stats.pair_products += len(values1) * len(values2)
            # side 2's states, each witness shifted once past side 1's n1 vertices
            states2 = [(id2, v2, witnesses2[id2] << n1 * l) for id2, v2 in values2.items()]
            values, witnesses = {}, {}
            for id1, v1 in values1.items():
                w1 = witnesses1[id1]
                row = index.get(id1)
                if row is None:
                    row = index[id1] = {}
                for id2, v2, w2 in states2:
                    rid = row.get(id2)
                    if rid is None:
                        rid = row[id2] = tree_cross_product(forest, id1, id2, budget, op, test)
                    if rid == lost:
                        continue
                    value = v1 + v2
                    old = values.get(rid)
                    if old is None or value > old:
                        values[rid], witnesses[rid] = value, w1 | w2
            stats.peak_states = max(stats.peak_states, len(values))
            if not values:  # every assignment is lost on this subgraph
                raise Decided((values, witnesses, n1 + n2))
            return values, witnesses, n1 + n2
        return combine

    values, witnesses, _ = fold(tree, (leaf_values, leaf_witnesses, 1), combine_for)
    stats.peak_interned, stats.collapsed = len(forest), forest.collapsed
    sat = [rid for rid in values
           if game_on_tree(RCTree(forest, rid, budget, test), problem.phi, (), set_vars)]
    if not sat:
        return None
    best = max(sat, key=values.__getitem__)  # the first on ties
    value, packed = values[best], witnesses[best]
    witness = unpack_witness(packed, l)
    check = sum(w * len(u) for w, u in zip(weights, witness))
    if check != value:
        raise RwmsoError(f"witness weight {check} does not reproduce value {value}")
    return LinEMSOResult(sign * value, witness)
