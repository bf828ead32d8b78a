"""Stable verdicts and the LinEMSO collapse they drive.

The collapsing solver is checked against brute force (the optimum) and
against the unpruned dynamic program in common.py (optimum and
witness); every decided verdict is checked against evaluate on the
whole graph, for every extension of the chosen sets outside the
subtree.
"""

import itertools
import random

import pytest

from rwmso import (Assignment, LinEMSOProblem, RCForest, evaluate, family_tree,
                   free_variables, game_on_tree, generate_graph, parse_formula,
                   solve_linemso, tree_cross_product)
from rwmso import linemso
from rwmso.chartree import char_tree_from_parse_tree, reduced_char_tree_direct
from rwmso.errors import RwmsoError
from rwmso.games import BOTTOM, CATALOG, TOP, UNKNOWN, Verdicts, check_collapse
from rwmso.logic import move_budget
from rwmso.parsetree import fold, leaf_vertex

from common import (brute_force_linemso, random_parse_tree, reference_char_tree,
                    small_parse_trees, unpruned_linemso)

INDEP = "Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))"
DOMIN = "Ax x. (X(x) | (Ex y. (adj(x,y) & X(y))))"
VCOVER = "Ax x. Ax y. (!adj(x,y) | X(x) | X(y))"
# X independent, Y its complement
PARTITION = ("(Ax x. ((X(x) | Y(x)) & !(X(x) & Y(x))))"
             " & (Ax x. Ax y. (!adj(x,y) | !X(x) | !X(y)))")
# no vertex of X has a neighbour (S = V is the set that matters)
UNDER_SET = "AX S. Ax x. Ax y. (!S(x) | !S(y) | !X(x) | !adj(x,y))"
# point existentials that an outside vertex can or cannot satisfy
TOTAL_DOMIN = "Ax x. Ex y. (adj(x,y) & X(y))"
FROZEN_LABEL = "Ax x. (label1(x) | X(x))"
OUTSIDE_WITNESS = "Ax x. (X(x) | (Ex y. X(y)))"
NOT_ADJ = "Ax x. (X(x) | (Ex y. (!adj(x,y) & X(y))))"
NESTED = "Ax x. (X(x) | (Ex y. Ex z. (adj(x,y) & adj(y,z) & X(z))))"
# y = y and a frozen !label1(x) hold for an outside y: X(y) decides
OUTSIDE_TRUE_ATOMS = "Ax x. (X(x) | (Ex y. (y = y & !label1(x) & X(y))))"

# name: (formula, weights, direction, most leaves).  They cover label
# atoms, a set quantifier under the free set, two free sets, negative
# weights, min and max, infeasibility, and the point existentials that
# frozen vertices decide or leave open.  Brute force and the unpruned
# solver grow as 4^n with a second free set and with a set quantifier
# over two point moves, so those run on fewer leaves.
PROBLEMS = {
    "max-independent-set": (INDEP, (1,), "max", 6),
    "min-vertex-cover": (VCOVER, (1,), "min", 6),
    "min-dominating-set": (DOMIN, (1,), "min", 6),
    "negative-weight": (INDEP, (-1,), "max", 6),
    "independent-dominating": (f"({DOMIN}) & ({INDEP})", (1,), "min", 6),
    "label-in-a-conjunct": (
        "Ax x. ((!X(x) | label1(x)) & (Ax y. (!X(x) | !X(y) | !adj(x,y))))", (1,), "max", 6),
    "label-in-a-disjunct": ("Ax x. Ax y. (!X(x) | !adj(x,y) | label2(y))", (-1,), "min", 6),
    "set-quantifier": ("AX S. Ax x. (S(x) | !X(x))", (1,), "max", 6),
    "set-quantifier-two-points": (UNDER_SET, (1,), "max", 4),
    "two-sets": ("Ax x. ((X(x) | Y(x)) & !(X(x) & Y(x)))", (1, -1), "max", 5),
    "two-sets-partition": (PARTITION, (1, -1), "max", 4),
    "infeasible": ("Ax x. (X(x) & !X(x))", (1,), "max", 6),
    "infeasible-when-edgeless": ("Ex x. Ex y. (X(x) & X(y) & adj(x,y))", (2,), "min", 6),
    "total-domination": (TOTAL_DOMIN, (1,), "min", 5),
    "label-on-a-frozen-vertex": (FROZEN_LABEL, (1,), "min", 5),
    "witness-outside": (OUTSIDE_WITNESS, (1,), "min", 5),
    "negated-adjacency": (NOT_ADJ, (1,), "min", 5),
    "nested-exists": (NESTED, (1,), "min", 5),
    "outside-true-atoms": (OUTSIDE_TRUE_ATOMS, (1,), "min", 5),
}


def _verdicts(forest, phi):
    sets = free_variables(phi).sets
    return Verdicts(forest, phi, sets)


def _trees(seed, count, max_leaves):
    rng = random.Random(seed)
    return [random_parse_tree(rng, rng.randint(1, max_leaves), 2) for _ in range(count)]


# 80 trees of one to six leaves, 50 of them with at most four
TREES = _trees(8, 80, 6)


def test_static_pass():
    # BOTTOM needs a path from the root to an atom through conjunctions,
    # universal moves and point existentials, on which every disjunction
    # has both sides able to fail, and every point existential a body
    # that can fail for an outside vertex too: through an atom without
    # its variable, or an adj or = atom with it that is false outside
    for text, can_fail in ((INDEP, True), (VCOVER, True), (DOMIN, True),
                           (f"({DOMIN}) & ({INDEP})", True), (UNDER_SET, True),
                           (PARTITION, True), ("Ex x. X(x)", False),
                           ("Ax x. (X(x) | label1(x))", True),
                           ("Ax x. (X(x) & label1(x))", True),
                           ("Ax x. (X(x) | !label1(x))", False),
                           ("!(Ex x. X(x))", True), ("EX S. Ax x. S(x)", False),
                           ("Ax x. label1(x)", True), (TOTAL_DOMIN, True),
                           (FROZEN_LABEL, True), (OUTSIDE_WITNESS, False),
                           (NOT_ADJ, False), (NESTED, False), (OUTSIDE_TRUE_ATOMS, False),
                           ("Ax x. (X(x) | (Ex y. (adj(x,y) & (Ex z. X(z)))))", True),
                           ("Ax x. (X(x) | (Ex y. (x = y & X(y))))", True),
                           ("Ax x. (X(x) | (Ex y. (!x = y & X(y))))", False),
                           ("Ax x. (X(x) | (Ex y. (!adj(y,y) & X(y))))", False),
                           ("Ax x. (X(x) | (Ex y. (y = y & adj(x,y))))", True),
                           ("Ax x. (X(x) | (Ex y. (label1(y) & adj(x,y))))", True),
                           ("Ax x. (X(x) | (Ex y. (label1(y) | adj(x,y))))", False)):
        assert _verdicts(RCForest(), parse_formula(text, 2)).fail[0] is can_fail, text


@pytest.mark.parametrize("name", PROBLEMS)
def test_pruned_solver_matches_brute_force_and_the_unpruned_witness(name):
    text, weights, direction, max_leaves = PROBLEMS[name]
    problem = LinEMSOProblem(parse_formula(text, 2), weights, direction)
    for tree in TREES:
        if tree.code.count(-1) > max_leaves:
            continue
        got = solve_linemso(tree, problem)
        assert got == unpruned_linemso(tree, problem), tree
        best = brute_force_linemso(generate_graph(tree), problem.phi,
                                   problem.set_vars, weights, direction)
        assert (got is None) == (best is None), tree
        assert got is None or got.value == best[0], tree


def _subtree_states(forest, tree, budget, l):
    """Per subtree of the parse tree: (first vertex in the whole graph,
    vertex count, {trace masks: tree id}) over every trace tuple."""
    leaf = leaf_vertex(tree.t)
    states = {masks: reference_char_tree(forest, leaf, budget, (), masks)
              for masks in itertools.product((0, 1), repeat=l)}

    def combine(left, right, op):
        (subtrees1, n1, states1), (subtrees2, n2, states2) = left, right
        states = {tuple(a | b << n1 for a, b in zip(m1, m2)):
                  tree_cross_product(forest, id1, id2, budget, op)
                  for m1, id1 in states1.items() for m2, id2 in states2.items()}
        shifted = [(first + n1, k, s) for first, k, s in subtrees2]
        return subtrees1 + shifted + [(0, n1 + n2, states)], n1 + n2, states

    subtrees, _, _ = fold(tree, ([(0, 1, states)], 1, states),
                            lambda op: lambda left, right: combine(left, right, op))
    return subtrees


def _bits(mask):
    return frozenset(u for u in range(mask.bit_length()) if (mask >> u) & 1)


def test_decided_verdicts_hold_in_the_whole_graph():
    # a subtree's TOP (BOTTOM) means phi holds (fails) in the whole graph
    # for every extension of the placed sets outside the subtree
    decided = {TOP: 0, BOTTOM: 0}
    for text, _, _, _ in PROBLEMS.values():
        phi = parse_formula(text, 2)
        set_vars = free_variables(phi).sets
        l = len(set_vars)
        for tree in _trees(9, 12, 5 if l == 1 and "AX" not in text else 4):
            forest = RCForest()
            verdicts = _verdicts(forest, phi)
            g = generate_graph(tree)
            for first, k, states in _subtree_states(forest, tree, move_budget(
                    phi, sets=l), l):
                outside = [u for u in range(g.n) if not first <= u < first + k]
                extensions = [sum(1 << u for u in bits) for r in range(len(outside) + 1)
                              for bits in itertools.combinations(outside, r)]
                for masks, rid in states.items():
                    verdict = verdicts.at(rid)
                    if verdict == UNKNOWN:
                        continue
                    decided[verdict] += 1
                    for ext in itertools.product(extensions, repeat=l):
                        sets = {v: _bits(m << first | e)
                                for v, m, e in zip(set_vars, masks, ext)}
                        assert evaluate(g, phi, Assignment(sets=sets)) == (verdict == TOP), \
                            (text, tree, first, k, masks)
    assert decided[TOP] > 0 and decided[BOTTOM] > 0


def test_a_decided_root_verdict_is_the_games_winner():
    # nothing is composed into the whole graph, so where a fresh view
    # decides a root, the game must have the same winner
    cases = decided = 0
    for tree in small_parse_trees():
        forest = RCForest()
        for entry in CATALOG:
            try:
                phi = parse_formula(entry.text, 1)
            except RwmsoError:  # a label above t
                continue
            rc = char_tree_from_parse_tree(tree, move_budget(phi), forest)
            verdict = Verdicts(forest, phi, ()).at(rc.root)
            cases += 1
            if verdict != UNKNOWN:
                decided += 1
                assert (verdict == TOP) == game_on_tree(rc, phi), (entry.name, tree)
    assert (cases, decided) == (1904, 818)
    # the same after collapsing folds, where a fresh view reads the lost
    # node by its label; on a path, AX S. Ax x. S(x) is lost at the root
    sentences = [(entry.name, parse_formula(entry.text, 2)) for entry in CATALOG]
    sentences.append(("all-sets-full", parse_formula("AX S. Ax x. S(x)", 2)))
    cases, decided, lost_roots, collapsed = 0, [], 0, 0
    for family, n in (("path", 6), ("cycle", 9), ("star", 5)):
        tree, forest = family_tree(family, n, 2), RCForest()
        for name, phi in sentences:
            rc = char_tree_from_parse_tree(tree, move_budget(phi), forest, check_collapse(phi))
            verdict = Verdicts(forest, phi, ()).at(rc.root)
            cases += 1
            lost_roots += rc.root == forest.lost
            if verdict != UNKNOWN:
                decided.append(name)
                assert (verdict == TOP) == game_on_tree(rc, phi), (name, family)
        collapsed += forest.collapsed
    assert (cases, len(decided), lost_roots, collapsed) == (48, 23, 14, 126)
    assert decided.count("all-sets-full") == 3


def test_the_fold_keeps_the_states_a_fresh_view_keeps_in_order(monkeypatch):
    # every state map of min dominating set's solve, on path 40 and cycle
    # 8: the collapsing fold keeps exactly the states whose verdict at
    # position 0 a fresh view does not call BOTTOM, keys, values and
    # order, among the leaf states and the products of each parse node's
    # input states built without the collapse test
    forests, maps = [], []
    fold = linemso.fold

    def recording(tree, leaf, combine_for):
        maps.append((None, None, None, leaf[0]))

        def recorded(op):
            combine = combine_for(op)

            def step(left, right):
                out = combine(left, right)
                maps.append((op, left, right, out[0]))
                return out
            return step
        return fold(tree, leaf, recorded)

    monkeypatch.setattr(linemso, "fold", recording)
    monkeypatch.setattr(linemso, "RCForest", lambda: forests.append(RCForest()) or forests[-1])
    problem = LinEMSOProblem(parse_formula(DOMIN, 2), (1,), "min")
    budget, dropped = problem.budget, 0
    for family, n in (("path", 40), ("cycle", 8)):
        maps.clear()
        tree = family_tree(family, n, 2)
        solve_linemso(tree, problem)
        forest = forests[-1]
        fresh = Verdicts(forest, problem.phi, problem.set_vars)
        # the leaf states once, then one state map per composition
        assert len(maps) == n
        for op, left, right, kept in maps:
            if op is None:
                products = {reduced_char_tree_direct(forest, tree.t, budget, (bit,)): (-bit, bit)
                            for bit in (0, 1)}
            else:
                (states1, n1), (states2, _) = left, right
                products = {}
                for id1, (v1, w1) in states1.items():
                    for id2, (v2, w2) in states2.items():
                        rid = tree_cross_product(forest, id1, id2, budget, op)
                        if rid not in products or v1 + v2 > products[rid][0]:
                            products[rid] = (v1 + v2, w1 | w2 << n1)
            want = [(rid, state) for rid, state in products.items() if fresh.at(rid) != BOTTOM]
            assert list(kept.items()) == want, (family, n)
            dropped += len(products) - len(want)
    assert dropped > 0


