import pytest

from rwmso import (Assignment, LinEMSOProblem, evaluate, family_tree,
                   generate_graph, parse_formula, quantifier_rank,
                   solve_linemso, tower_at_least)
from rwmso import linemso
from rwmso.chartree import (RCForest, reduced_char_tree_direct, size_bound,
                            tree_cross_product)
from rwmso.errors import RwmsoError
from rwmso.parsetree import fold
from rwmso.structures import Structure

from common import brute_force_linemso

INDEP = "Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))"
DOMIN = "Ax x. (X(x) | (Ex y. (adj(x,y) & X(y))))"
VCOVER = "Ax x. Ax y. (!adj(x,y) | X(x) | X(y))"


def _check_against_brute_force(tree, text, direction, weights=(1,)):
    phi = parse_formula(text, 2)
    problem = LinEMSOProblem(phi, weights, direction)
    result = solve_linemso(tree, problem)
    g = generate_graph(tree)
    want = brute_force_linemso(g, phi, problem.set_vars, weights, direction)
    if want is None:
        assert result is None
        return
    assert result is not None
    assert result.value == want[0]
    # any witness attaining the optimum is acceptable; it must satisfy phi
    alpha = Assignment(sets=dict(zip(problem.set_vars, result.witness)))
    assert evaluate(g, phi, alpha)
    assert sum(w * len(u) for w, u in zip(weights, result.witness)) == result.value


def test_max_independent_set_examples():
    result = solve_linemso(family_tree("path", 4),
                           LinEMSOProblem(parse_formula(INDEP, 1), (1,), "max"))
    assert result.value == 2
    result = solve_linemso(family_tree("complete", 4),
                           LinEMSOProblem(parse_formula(INDEP, 1), (1,), "max"))
    assert result.value == 1


def test_min_dominating_set_star():
    result = solve_linemso(family_tree("star", 5),
                           LinEMSOProblem(parse_formula(DOMIN, 1), (1,), "min"))
    assert result.value == 1
    assert result.witness[0] == frozenset({0})  # the center


def test_oracle_equivalence_families():
    for family, lo in (("path", 1), ("cycle", 3), ("complete", 1), ("star", 1)):
        for n in range(lo, 6):
            tree = family_tree(family, n)
            _check_against_brute_force(tree, INDEP, "max")
            _check_against_brute_force(tree, DOMIN, "min")
            _check_against_brute_force(tree, VCOVER, "min")


def test_negative_weights_select_empty_sets():
    result = solve_linemso(family_tree("path", 4),
                           LinEMSOProblem(parse_formula(INDEP, 1), (-1,), "max"))
    assert result.value == 0 and result.witness == (frozenset(),)


def test_two_set_variables():
    # partition into two independent sets covering everything (2-coloring)
    text = ("Ax x. ((X(x) | Y(x)) & !(X(x) & Y(x)))"
            " & (Ax x. Ax y. (!adj(x,y) | !X(x) | !X(y)))"
            " & (Ax x. Ax y. (!adj(x,y) | !Y(x) | !Y(y)))")
    _check_against_brute_force(family_tree("path", 4), text, "max", (1, -1))
    _check_against_brute_force(family_tree("cycle", 4), text, "min", (2, 1))


def test_infeasible():
    # an edge inside X cannot exist on an edgeless graph
    phi = parse_formula("Ex x. Ex y. (X(x) & X(y) & adj(x,y))", 1)
    tree = family_tree("cograph-union", 3)
    assert solve_linemso(tree, LinEMSOProblem(phi, (1,), "max")) is None


def test_problem_validation():
    with pytest.raises(RwmsoError):
        LinEMSOProblem(parse_formula("adj(x,y)"), (1,), "max")  # free objects
    with pytest.raises(RwmsoError):
        LinEMSOProblem(parse_formula(INDEP, 1), (1, 2), "max")  # weight count
    with pytest.raises(RwmsoError):
        LinEMSOProblem(parse_formula(INDEP, 1), (1,), "best")  # direction


def test_class_count_bounded_and_stabilizes():
    phi = parse_formula(INDEP, 2)
    q = quantifier_rank(phi) + 1
    f = size_bound(q, 3, 2).tower_arg
    counts = []
    for n in range(2, 30):
        tree = family_tree("path", n)
        # the DP's state space: distinct interned trees at the root
        forest = RCForest()
        leaf_struct = Structure(1, tree.t, (0,), (1,))
        leaf_ids = {reduced_char_tree_direct(forest, leaf_struct, q, (), (m,))
                    for m in (0, 1)}
        root_ids = fold(tree, leaf_ids, lambda left, right, op: {
            tree_cross_product(forest, i1, i2, q, op) for i1 in left for i2 in right})
        counts.append(len(root_ids))
        assert tower_at_least(q + 1, f, counts[-1])
    assert len(set(counts[-8:])) == 1


def test_leaf_states_are_built_once_per_solve(monkeypatch):
    calls = []
    direct = linemso.reduced_char_tree_direct

    def counting(*args, **kwargs):
        calls.append(args)
        return direct(*args, **kwargs)

    monkeypatch.setattr(linemso, "reduced_char_tree_direct", counting)
    problem = LinEMSOProblem(parse_formula(INDEP, 1), (1,), "max")
    for n in (8, 16):
        calls.clear()
        assert solve_linemso(family_tree("path", n), problem).value == (n + 1) // 2
        assert len(calls) == 2 ** len(problem.weights)
