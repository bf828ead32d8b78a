"""Linear optimization subject to an MSO1 constraint.

A problem is a formula with free set variables X1..Xl, integer weights
a1..al and a direction.  The solver is the parse-tree fold of model
checking with a richer value per subtree: a map from reduced
characteristic trees, built with the l chosen sets preloaded as traces,
to the best weight (plus one witness) reaching that tree.  The 2^l leaf
states are built once per solve and combined pairwise with the tree
cross product.  At the root, the game decides which states satisfy the
formula, all root states sharing one compiled game in the forest.  A
min problem is the max over negated weights.  A witness is one int
until the result: bit v*l + i says that vertex v is in set variable i,
so a product's witness is one shift and one or.

The fold collapses what the formula has lost into the forest's lost
node with model checking's test (games.check_collapse), whose state is
never stored; games.Verdicts says why this is sound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chartree import (RCForest, RCTree, reduced_char_tree_direct,
                       tree_cross_product)
from .errors import RwmsoError
from .games import check_collapse, game_on_tree
from .logic import Formula, free_variables, move_budget
from .parsetree import ParseTree, fold


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
            raise RwmsoError(f"free object variables are not allowed: {', '.join(fv.objects)}")
        if len(self.weights) != len(fv.sets):
            k, w = len(fv.sets), len(self.weights)
            raise RwmsoError(f"{k} free set variable{'s' * (k != 1)} "
                             f"but {w} weight{'s' * (w != 1)}")

    @property
    def set_vars(self) -> tuple[str, ...]:
        return free_variables(self.phi).sets

    @property
    def budget(self) -> tuple[int, ...]:
        """Move budget of the game with the l chosen sets preloaded."""
        return move_budget(self.phi, sets=len(self.weights))


@dataclass(frozen=True)
class LinEMSOResult:
    value: int
    witness: tuple[frozenset[int], ...]


@dataclass
class DPStats:
    """Peak states at any parse node, products collapsed, pairs combined, nodes interned."""

    peak_states: int = 0
    collapsed: int = 0
    pair_products: int = 0
    peak_interned: int = 0


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
    lost node) is skipped where it is made, never stored.  stats, if
    given, receives the peak state count, the products collapsed, the
    state pairs and the forest's node count, which bounds the states
    (they are ids in that forest).
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
    # states per subtree: interned tree id -> (weight, packed witness); ties
    # keep the first-found witness, so results are deterministic.  A leaf's
    # witness is its choice: bit i says that the vertex is in set i
    leaf_states: dict[int, tuple[int, int]] = {}
    for choice in range(1 << l):
        bits = tuple((choice >> i) & 1 for i in range(l))
        rid = reduced_char_tree_direct(forest, tree.t, budget, bits)
        if test is not None and test(rid):
            continue
        value = sum(w for w, bit in zip(weights, bits) if bit)
        old = leaf_states.get(rid)
        if old is None or value > old[0]:
            leaf_states[rid] = (value, choice)
    stats.peak_states = len(leaf_states)

    def combine_for(op):
        # op's root pairs, id1 -> {id2: product id}: a root pair is made only
        # by the call on its miss, so the index and op's memo miss alike
        index: dict[int, dict[int, int]] = {}

        def combine(left, right):
            (states1, n1), (states2, n2) = left, right
            stats.pair_products += len(states1) * len(states2)
            shift = n1 * l
            pairs = {}
            for id1, (v1, w1) in states1.items():
                row = index.setdefault(id1, {})
                for id2, (v2, w2) in states2.items():
                    rid = row.get(id2)
                    if rid is None:
                        rid = row[id2] = tree_cross_product(forest, id1, id2, budget, op, test)
                    if rid == lost:
                        continue
                    value = v1 + v2
                    old = pairs.get(rid)
                    if old is None or value > old[0]:
                        pairs[rid] = (value, w1 | w2 << shift)
            stats.peak_states = max(stats.peak_states, len(pairs))
            return pairs, n1 + n2
        return combine

    classes, _ = fold(tree, (leaf_states, 1), combine_for)
    stats.peak_interned, stats.collapsed = len(forest), forest.collapsed
    sat = [state for rid, state in classes.items()
           if game_on_tree(RCTree(forest, rid, budget, test), problem.phi, (), set_vars)]
    if not sat:
        return None
    value, packed = max(sat, key=lambda state: state[0])  # the first on ties
    witness = unpack_witness(packed, l)
    check = sum(w * len(u) for w, u in zip(weights, witness))
    if check != value:
        raise RwmsoError(f"witness weight {check} does not reproduce value {value}")
    return LinEMSOResult(sign * value, witness)
