import gc
import itertools
import random
import weakref

import pytest

from rwmso import (Assignment, GameStats, build_structure, evaluate,
                   family_tree, game_on_tree, generate_graph, model_check,
                   parse_formula, quantifier_rank)
from rwmso.chartree import (RCForest, RCTree, char_tree_from_parse_tree,
                            reduced_char_tree_direct)
from rwmso.errors import DepthBudgetError, RwmsoError
from rwmso.games import CATALOG, check_collapse
from rwmso.logic import Not, free_variables, move_budget

from common import (all_structures, catalog, full_char_tree, full_tree_game,
                    random_parse_tree, random_sentence, random_structure, to_nnf)

K2 = build_structure(2, [(0, 1)])
TWO_ISOLATED = build_structure(2, [])
HAS_EDGE = parse_formula("Ex x. Ex y. adj(x,y)")


def test_evaluate_examples():
    assert evaluate(K2, HAS_EDGE)
    assert not evaluate(TWO_ISOLATED, HAS_EDGE)


def test_evaluate_independent_set_on_c5():
    c5 = generate_graph(family_tree("cycle", 5))
    phi = parse_formula(
        "EX S. ((Ex x. S(x)) & (Ax x. Ax y. (!adj(x,y) | !S(x) | !S(y))))", 2)
    # brute force over all 32 subsets
    want = any(
        s and all(not (c5.has_edge(u, v) and u in s and v in s)
                  for u in range(5) for v in range(5))
        for s in (frozenset(v for v in range(5) if (m >> v) & 1) for m in range(32)))
    assert evaluate(c5, phi) == want is True


def test_evaluate_set_equality():
    phi = parse_formula("EX S. EX T. !S = T")
    assert evaluate(build_structure(1, []), phi)
    assert not evaluate(build_structure(0, []), phi)


def test_evaluate_assignments_and_errors():
    phi = parse_formula("adj(x, y)")
    assert evaluate(K2, phi, Assignment(objects={"x": 0, "y": 1}))
    with pytest.raises(RwmsoError):
        evaluate(K2, phi)  # unbound frees
    with pytest.raises(RwmsoError):
        evaluate(K2, phi, Assignment(objects={"x": 0, "y": 5}))


def test_evaluate_agrees_on_nnf():
    # on NNF, evaluate's any/all recursion is the game on the structure
    rng = random.Random(43)
    for _ in range(15):
        g = random_structure(rng, rng.randint(0, 3), 1)
        for _, phi in catalog(max_qr=2):
            assert evaluate(g, to_nnf(phi)) == evaluate(g, phi)


def test_evaluate_vacuous_and_atomic():
    empty = build_structure(0, [])
    assert evaluate(empty, to_nnf(parse_formula("Ax x. adj(x,x)")))
    phi = parse_formula("x = x")
    assert evaluate(K2, phi, Assignment(objects={"x": 1}))


def _game(g, phi, xs=(), Xs=(), objs=(), sets=(), stats=None):
    """game_on_tree on g's direct reduced tree for phi's move budget."""
    forest = RCForest()
    budget = move_budget(phi, len(xs), len(Xs))
    rid = reduced_char_tree_direct(forest, g, budget, objs, sets)
    return game_on_tree(RCTree(forest, rid, budget), phi, xs, Xs, stats)


def test_game_on_tree_takes_any_formula():
    # a negation takes no position: phi is played as its NNF, with the
    # same answer and the same (node, position) evaluations
    texts = ["!(Ex x. adj(x,x))", "!!(Ex x. Ex y. adj(x,y))",
             "!(Ax x. (label1(x) | !(Ex y. (adj(x,y) & !label1(y)))))",
             "!(EX S. !(Ax x. !(S(x) & !label1(x))))"]
    for g in itertools.chain(all_structures(2), all_structures(3)):
        for text in texts:
            phi = parse_formula(text)
            got, nnf = GameStats(), GameStats()
            assert _game(g, phi, stats=got) == evaluate(g, phi), (text, g)
            assert _game(g, to_nnf(phi), stats=nnf) == evaluate(g, phi)
            assert got.evaluations == nnf.evaluations
    forest = RCForest()
    for family, n in (("path", 4), ("cycle", 5)):
        tree = family_tree(family, n, t=2)
        g = generate_graph(tree)
        for name, phi in catalog(t=2):
            neg = Not(phi)
            rc = char_tree_from_parse_tree(tree, move_budget(neg), forest)
            got, nnf = GameStats(), GameStats()
            assert game_on_tree(rc, neg, stats=got) == evaluate(g, neg), name
            assert game_on_tree(rc, to_nnf(neg), stats=nnf) == evaluate(g, neg)
            assert got.evaluations == nnf.evaluations


def test_reused_names_resolve_to_innermost_binder():
    texts = ["Ex x. Ax x. label1(x)",                               # nested
             "Ex x. (label1(x) & (Ex x. !label1(x)))",
             "Ex x. Ex y. (adj(x,y) & (Ax x. (x = y | adj(x,y))))",
             "(Ex x. label1(x)) & (Ax x. Ex y. adj(x,y))",          # siblings
             "(Ex x. label1(x)) & (Ex x. !label1(x))",
             "EX S. ((Ex x. S(x)) & (EX S. Ax x. !S(x)))"]          # sets
    for text in texts:
        phi = parse_formula(text)
        budget = move_budget(phi)
        for g in itertools.chain(all_structures(2), all_structures(3)):
            want = evaluate(g, phi)
            assert _game(g, phi) == want, (text, g)
            full = full_char_tree(g, len(budget) - 1 + budget[-1])
            assert full_tree_game(full, phi) == want, (text, g)


def test_binder_may_reuse_a_listed_free_name():
    cases = [("label1(x) & (Ex x. !label1(x))", ("x",), ()),
             ("Ex y. (adj(x,y) & (Ax x. (x = y | adj(x,y))))", ("x",), ()),
             ("S(x) & (EX S. Ex y. (adj(x,y) & !S(y)))", ("x",), ("S",))]
    for text, xs, Xs in cases:
        phi = parse_formula(text)
        for g in itertools.chain(all_structures(2), all_structures(3)):
            for objs in itertools.product(range(g.n), repeat=len(xs)):
                for masks in itertools.product(range(1 << g.n), repeat=len(Xs)):
                    alpha = Assignment(dict(zip(xs, objs)), dict(
                        (X, frozenset(v for v in range(g.n) if (m >> v) & 1))
                        for X, m in zip(Xs, masks)))
                    want = evaluate(g, phi, alpha)
                    assert _game(g, phi, xs, Xs, objs, masks) == want, (text, g)


def test_unlisted_free_variable_is_refused():
    with pytest.raises(RwmsoError, match="'y' of the formula is not listed"):
        _game(K2, parse_formula("Ex x. adj(x, y)"), ("x",), (), (0,))


def test_game_on_tree_rejects_other_trees():
    nnf = to_nnf(HAS_EDGE)
    for tree in (full_char_tree(K2, 2), RCForest(), 0):
        with pytest.raises(RwmsoError, match="needs an RCTree"):
            game_on_tree(tree, nnf)


def test_game_on_tree_basic():
    forest = RCForest()
    nnf = to_nnf(HAS_EDGE)
    rid = reduced_char_tree_direct(forest, K2, 2)
    assert game_on_tree(RCTree(forest, rid, 2), nnf)
    rid = reduced_char_tree_direct(forest, TWO_ISOLATED, 2)
    assert not game_on_tree(RCTree(forest, rid, 2), nnf)
    assert full_tree_game(full_char_tree(K2, 2), nnf)


def test_game_on_tree_q0_atomic_with_frees():
    forest = RCForest()
    phi = parse_formula("adj(x, y)")
    rid = reduced_char_tree_direct(forest, K2, 0, (0, 1), ())
    assert game_on_tree(RCTree(forest, rid, 0), phi, ("x", "y"), ())
    rid = reduced_char_tree_direct(forest, K2, 0, (0, 0), ())
    assert not game_on_tree(RCTree(forest, rid, 0), phi, ("x", "y"), ())


def test_game_on_tree_rejects_set_equality():
    forest = RCForest()
    phi = parse_formula("S = T")
    rid = reduced_char_tree_direct(forest, K2, 2, (), ({0}, {0}))
    with pytest.raises(RwmsoError, match="set-set equality"):
        game_on_tree(RCTree(forest, rid, 2), phi, (), ("S", "T"))
    # refused even where x = x decides the disjunction before the game
    # could reach S = T
    phi = parse_formula("Ex x. (x = x | (EX S. EX T. S = T))")
    assert evaluate(K2, phi)
    with pytest.raises(RwmsoError, match="set-set equality"):
        _game(K2, phi)
    with pytest.raises(RwmsoError, match="set-set equality"):
        model_check(family_tree("path", 2), phi)


def test_game_on_tree_depth_budget():
    forest = RCForest()
    rid = reduced_char_tree_direct(forest, K2, 1)
    with pytest.raises(DepthBudgetError):
        game_on_tree(RCTree(forest, rid, 1), to_nnf(HAS_EDGE))


def test_four_evaluators_agree_with_assignments():
    # open formulas with m + p + qr <= 2
    cases = [
        ("adj(x, y)", ("x", "y"), ()),
        ("x = y", ("x", "y"), ()),
        ("label1(x)", ("x",), ()),
        ("S(x)", ("x",), ("S",)),
        ("Ex y. adj(x, y)", ("x",), ()),
        ("Ex z. S(z)", (), ("S",)),
        ("EX T. (Ex z. T(z))", (), ()),
    ]
    q = 2
    forest = RCForest()
    for g in all_structures(2, 1):
        for text, xs, Xs in cases:
            phi = parse_formula(text, 1)
            nnf = to_nnf(phi)
            for objs in itertools.product(range(g.n), repeat=len(xs)):
                for masks in itertools.product(range(1 << g.n), repeat=len(Xs)):
                    sets = [frozenset(v for v in range(g.n) if (m >> v) & 1)
                            for m in masks]
                    alpha = Assignment(objects=dict(zip(xs, objs)),
                                       sets=dict(zip(Xs, sets)))
                    want = evaluate(g, phi, alpha)
                    assert evaluate(g, nnf, alpha) == want
                    full = full_char_tree(g, q, objs, sets)
                    assert full_tree_game(full, nnf, xs, Xs) == want
                    rid = reduced_char_tree_direct(forest, g, q, objs, sets)
                    assert game_on_tree(RCTree(forest, rid, q), nnf, xs, Xs) == want


def test_game_accepts_lower_rank_than_tree_depth():
    # one deep tree serves every sentence with qr <= q
    forest = RCForest()
    for family, n in (("path", 5), ("cycle", 4)):
        tree = family_tree(family, n, t=2)
        from rwmso.chartree import char_tree_from_parse_tree
        rc = char_tree_from_parse_tree(tree, 3, forest)
        g = generate_graph(tree)
        for _, phi in catalog(max_qr=3):
            assert game_on_tree(rc, to_nnf(phi)) == evaluate(g, phi)


def test_model_check_examples():
    assert model_check(family_tree("complete", 4), HAS_EDGE)
    two_col = parse_formula(
        "EX C. Ax x. Ax y. (!adj(x,y) | (C(x) & !C(y)) | (!C(x) & C(y)))", 2)
    assert model_check(family_tree("path", 4), two_col)
    assert not model_check(family_tree("cycle", 5), two_col)


def test_model_check_agrees_with_evaluate_on_random_sentences():
    # seeded differential fuzz: random sentences of rank <= 3 over t=2,
    # with label atoms, set membership and vacuous or reused binders, on
    # random parse trees of 1 to 6 leaves
    rng = random.Random(7)
    checked = 0
    while checked < 600:
        phi = random_sentence(rng)
        tree = random_parse_tree(rng, rng.randint(1, 6), 2)
        if quantifier_rank(phi) > 3:
            continue
        want = evaluate(generate_graph(tree), phi)
        assert model_check(tree, phi) == want, (str(phi), tree)
        checked += 1


def test_model_check_requires_sentence():
    with pytest.raises(RwmsoError):
        model_check(family_tree("path", 3), parse_formula("adj(x, y)"))


def test_negation_coherence():
    from rwmso.logic import Not
    for family, n in (("path", 4), ("cycle", 5), ("star", 4)):
        tree = family_tree(family, n)
        for _, phi in catalog(max_qr=2):
            assert model_check(tree, phi) == (not model_check(tree, to_nnf(Not(phi))))


def test_memoized_game_visits_each_pair_at_most_once():
    forest = RCForest()
    tree = family_tree("path", 6, t=2)
    from rwmso.chartree import char_tree_from_parse_tree
    for entry in CATALOG:
        phi = parse_formula(entry.text, 2)
        rc = char_tree_from_parse_tree(tree, entry.qr, forest)
        stats = GameStats()
        game_on_tree(rc, to_nnf(phi), stats=stats)
        positions = _count_positions(to_nnf(phi))
        assert stats.evaluations <= rc.size() * positions


def _count_positions(phi):
    from rwmso.logic import And, Or, is_atomic, Not
    if is_atomic(phi) or isinstance(phi, Not):
        return 1
    if isinstance(phi, (And, Or)):
        return 1 + _count_positions(phi.left) + _count_positions(phi.right)
    return 1 + _count_positions(phi.sub)


# (node, position) pairs one game evaluates after a collapsing fold, t=2,
# on path n=141 and cycle n=128: an evaluator that stops short-circuiting
# and/or or a move raises them
COLLAPSED_EVALUATIONS = {"two-colorable": (67, 36),
                         "independent-set-meets-all-edges": (123, 66),
                         "has-triangle": (188, 55)}


def test_collapsed_games_evaluate_as_few_pairs_as_before():
    for entry in CATALOG:
        if entry.name not in COLLAPSED_EVALUATIONS:
            continue
        phi = parse_formula(entry.text, 2)
        got = []
        for family, n in (("path", 141), ("cycle", 128)):
            rc = char_tree_from_parse_tree(family_tree(family, n, 2), move_budget(phi),
                                           RCForest(), check_collapse(phi))
            stats = GameStats()
            game_on_tree(rc, phi, stats=stats)
            got.append(stats.evaluations)
        assert tuple(got) == COLLAPSED_EVALUATIONS[entry.name], entry.name


def test_an_equal_formula_built_afresh_shares_one_game_memo_entry():
    # games are keyed by phi's value: a formula parsed again finds the
    # entry the first one compiled, and a different formula adds its own
    forest = RCForest()
    rid = reduced_char_tree_direct(forest, K2, 2)
    for _ in range(2):
        assert game_on_tree(RCTree(forest, rid, 2), parse_formula("Ex x. Ex y. adj(x,y)"))
    assert len(forest.game_memo) == 1
    assert not game_on_tree(RCTree(forest, rid, 2), parse_formula("Ax x. Ax y. adj(x,y)"))
    assert len(forest.game_memo) == 2


def test_catalog_sentences_are_sentences():
    for entry in CATALOG:
        phi = parse_formula(entry.text, 2)
        fv = free_variables(phi)
        assert not fv.objects and not fv.sets
        assert quantifier_rank(phi) == entry.qr


def test_finished_calls_leave_no_cycles(monkeypatch):
    # with the collector off, reference counting alone must free what a
    # finished call built: the forest of a model check or a solve, and
    # every closure of the formula walkers and the game
    from rwmso import LinEMSOProblem, chartree, linemso, solve_linemso

    forests = []

    class TrackedForest(RCForest):
        def __init__(self):
            super().__init__()
            forests.append(weakref.ref(self))

    monkeypatch.setattr(chartree, "RCForest", TrackedForest)
    monkeypatch.setattr(linemso, "RCForest", TrackedForest)
    tree = family_tree("cycle", 6)
    gc.collect()
    gc.disable()
    try:
        phi = parse_formula(
            next(e.text for e in CATALOG if e.name == "two-colorable"), 2)
        free_variables(phi)
        assert model_check(tree, phi)
        problem = LinEMSOProblem(
            parse_formula("Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))", 2), (1,), "max")
        assert solve_linemso(tree, problem).value == 3
        forest = RCForest()
        rid = reduced_char_tree_direct(forest, K2, 2)
        assert game_on_tree(RCTree(forest, rid, 2), to_nnf(HAS_EDGE))
        del forest
        assert len(forests) == 2 and all(ref() is None for ref in forests)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_assignment_error_messages():
    with pytest.raises(RwmsoError) as err:
        Assignment(objects={"x": 0}, sets={"x": frozenset()})
    assert err.type is RwmsoError and str(err.value) == "variables assigned twice: ['x']"
    with pytest.raises(RwmsoError) as err:
        evaluate(K2, parse_formula("Ex x. S(x)"), Assignment(sets={"S": frozenset({2})}))
    assert err.type is RwmsoError and str(err.value) == "assignment of S outside universe"


def test_game_on_tree_refuses_duplicate_names_and_another_root_level():
    forest = RCForest()
    rc = RCTree(forest, reduced_char_tree_direct(forest, K2, 2, (0,), ()), 2)
    phi = parse_formula("adj(x, y)")
    with pytest.raises(RwmsoError) as err:
        game_on_tree(rc, phi, ("x", "x"), ())
    assert err.type is RwmsoError and str(err.value) == "duplicate variable names"
    with pytest.raises(RwmsoError) as err:
        game_on_tree(rc, phi, ("x", "y"), ())
    assert err.type is RwmsoError and str(err.value) == (
        "tree was built for m=1, p=0; got 2 object and 0 set variables")
