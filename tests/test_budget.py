"""Formula-directed move budgets: the fold builds only the (point, set)
moves the game on phi can take, and answers as the full-depth tree does."""

import random

import pytest

from rwmso import (CATALOG, FAMILIES, build_structure, char_tree_from_parse_tree,
                   evaluate, family_tree, format_parse_tree, free_variables,
                   game_on_tree, generate_graph, model_check, parse_formula,
                   parse_tree_from_text, quantifier_rank)
from rwmso import chartree
from rwmso.chartree import RCForest, RCTree, as_budget
from rwmso.errors import DepthBudgetError, RwmsoError
from rwmso.games import _compile, check_collapse
from rwmso.logic import move_budget

from common import (catalog, cross_misses, random_sentence, reference_char_tree,
                    small_parse_trees, to_nnf)

# max independent set, min vertex cover and min dominating set, over X
OPTIMIZE_PROBLEMS = ("Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))",
                     "Ax x. Ax y. (!adj(x,y) | X(x) | X(y))",
                     "Ax x. (X(x) | (Ex y. (adj(x,y) & X(y))))")


@pytest.mark.parametrize("text, objects, sets, want", [
    pytest.param("Ex x. Ex y. Ex z. (adj(x,y) & adj(y,z) & adj(x,z))", 0, 0, (3,),
                 id="has-triangle"),
    pytest.param("EX C. Ax x. Ax y. (!adj(x,y) | (C(x) & !C(y)) | (!C(x) & C(y)))",
                 0, 0, (0, 2), id="two-colorable"),
    pytest.param("AX S. Ex x. (S(x) | !S(x))", 0, 0, (0, 1), id="set-then-point"),
    pytest.param("Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))", 0, 1, (0, 2),
                 id="preloaded-set"),
    pytest.param("(Ex x. EX S. Ex y. S(y)) | (Ax z. Ax w. Ax u. adj(z,w))", 0, 0, (3, 2),
                 id="two-paths"),
    pytest.param("!(Ex x. Ax y. adj(x,y))", 0, 0, (2,), id="negated"),
    pytest.param("adj(x, y)", 2, 0, (2,), id="free-objects"),
    pytest.param("S(x)", 1, 1, (0, 1), id="free-object-and-set"),
])
def test_move_budget_is_the_levels_the_game_visits(text, objects, sets, want):
    phi = parse_formula(text, 1)
    assert move_budget(phi, objects, sets) == want
    assert move_budget(to_nnf(phi), objects, sets) == want
    assert _visited_levels(phi, objects, sets) == want


def test_a_depth_is_its_staircase():
    assert as_budget(0) == (0,)
    assert as_budget(3) == (3, 2, 1, 0)
    assert as_budget([2, 2]) == (2, 2)
    assert as_budget([1, 2]) == (1, 2)  # caps need not fall with p
    for bad in (-1, (), (1, -1), (-1, 2), (2, -1, 1), (1.5,)):
        with pytest.raises(RwmsoError):
            as_budget(bad)


def _visited_levels(phi, objects=0, sets=0):
    """caps[p] = the largest m of a level (m, p) of phi's compiled game,
    0 below sets: the levels the compile records for its positions."""
    fv = free_variables(phi)
    x_vars = tuple(f"_x{i}" for i in range(objects - len(fv.objects))) + fv.objects
    X_vars = tuple(f"_X{i}" for i in range(sets - len(fv.sets))) + fv.sets
    _, _, levels, _ = _compile(phi, x_vars, X_vars)
    most = {}
    for m, p in levels:
        most[p] = max(m, most.get(p, m))
    return tuple(most.get(p, 0) for p in range(max(most) + 1))


def test_move_budget_matches_the_compiled_game_levels():
    # independent routes: move_budget walks phi's syntax tree, and the
    # compile records the level of each position of phi's game; for every
    # catalog sentence, the optimize problems with their one free set,
    # and random sentences
    cases = [(phi, 0) for _, phi in catalog(t=2)]
    cases += [(parse_formula(text, 2), 1) for text in OPTIMIZE_PROBLEMS]
    rng = random.Random(17)
    cases += [(random_sentence(rng), 0) for _ in range(600)]
    for phi, sets in cases:
        assert move_budget(phi, sets=sets) == _visited_levels(phi, sets=sets), str(phi)


def test_catalog_on_families_matches_full_depth_and_evaluate():
    # every catalog sentence on every family with n <= 8: the answer on the
    # tree built for phi's budget, on the full depth-3 tree, and by brute force
    sentences = catalog(t=2)
    forest = RCForest()
    for family in FAMILIES:
        for n in range(3 if family == "cycle" else 1, 9):
            tree = family_tree(family, n, t=2)
            g = generate_graph(tree)
            full = char_tree_from_parse_tree(tree, 3, forest)
            for name, phi in sentences:
                want = evaluate(g, phi)
                assert model_check(tree, phi) == want, (name, family, n)
                assert game_on_tree(full, to_nnf(phi)) == want, (name, family, n)


def test_small_parse_trees_match_full_depth_and_evaluate():
    sentences = [(e.name, parse_formula(e.text, 1)) for e in CATALOG
                 if "label2" not in e.text]
    forest = RCForest()
    for tree in small_parse_trees():
        g = generate_graph(tree)
        full = char_tree_from_parse_tree(tree, 3, forest)
        for name, phi in sentences:
            nnf = to_nnf(phi)
            want = evaluate(g, phi)
            rc = char_tree_from_parse_tree(tree, move_budget(nnf), forest)
            assert game_on_tree(rc, nnf) == want, (name, tree)
            assert game_on_tree(full, nnf) == want, (name, tree)


def test_has_triangle_folds_a_quarter_of_the_full_depth_work():
    # deterministic count gate: has-triangle (moves PPP) on a long path
    # needs no set child, so it folds far fewer nodes than full depth 3
    tree = family_tree("path", 128, t=2)
    phi = dict(catalog(t=2))["has-triangle"]
    nnf = to_nnf(phi)
    rc = char_tree_from_parse_tree(tree, move_budget(nnf), RCForest())
    full = char_tree_from_parse_tree(tree, quantifier_rank(phi), RCForest())
    budget_misses, full_misses = cross_misses(rc.forest), cross_misses(full.forest)
    assert rc.budget == (3,) and full.budget == (3, 2, 1, 0)
    assert not game_on_tree(rc, nnf) and not game_on_tree(full, nnf)
    assert 4 * budget_misses <= full_misses, (budget_misses, full_misses)
    assert rc.size() < full.size()


@pytest.mark.parametrize("name", ["two-colorable", "has-triangle"])
def test_memo_misses_are_constant_past_stabilisation(name):
    # deterministic work-count gate: once the class count has stabilised,
    # every further parse node is a memo hit, so a fresh fold makes the same
    # number of cross-product misses at n = 64, 128 and 256 (2713 for
    # two-colorable, 479 for has-triangle).  A tree read back from text has
    # distinct but equal operator objects, and must share memo entries too.
    budget = move_budget(to_nnf(dict(catalog(t=2))[name]))
    counts = []
    for n in (64, 128, 256):
        tree = family_tree("path", n, t=2)
        for source in (tree, parse_tree_from_text(format_parse_tree(tree))):
            counts.append(cross_misses(
                char_tree_from_parse_tree(source, budget, RCForest()).forest))
    assert len(set(counts)) == 1 and counts[0] > 0, counts


def test_fold_calls_cross_product_on_memo_misses_only(monkeypatch):
    # the fold answers a memo hit itself: past stabilisation six more path
    # vertices add no tree_cross_product call
    calls = []
    cross = chartree.tree_cross_product

    def counting(*args):
        calls.append(None)
        return cross(*args)

    monkeypatch.setattr(chartree, "tree_cross_product", counting)
    budget = move_budget(to_nnf(dict(catalog(t=2))["complete"]))
    counts = []
    for n in (4096, 4102):
        calls.clear()
        char_tree_from_parse_tree(family_tree("path", n, t=2), budget, RCForest())
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0, counts


@pytest.mark.parametrize("name", ["two-colorable", "has-triangle"])
def test_label_products_are_computed_once(monkeypatch, name):
    # deterministic work-count gate: rename_combine runs once per distinct
    # (label1, label2, d) product of an operator, so a fresh fold makes the
    # same few calls at n = 64, 128 and 256 (54 for two-colorable, 93 for
    # has-triangle), one per label-memo entry and far fewer than its
    # cross-product misses
    calls = []
    rename = chartree.rename_combine

    def counting(*args):
        calls.append(1)
        return rename(*args)

    monkeypatch.setattr(chartree, "rename_combine", counting)
    budget = move_budget(to_nnf(dict(catalog(t=2))[name]))
    counts = []
    for n in (64, 128, 256):
        calls.clear()
        forest = char_tree_from_parse_tree(family_tree("path", n, t=2), budget,
                                           RCForest()).forest
        counts.append(len(calls))
        assert len(calls) == sum(map(len, forest.label_memo.values()))
        assert 4 * len(calls) <= cross_misses(forest), (len(calls), cross_misses(forest))
    assert len(set(counts)) == 1 and counts[0] > 0, counts


def test_game_rejects_a_move_kind_the_tree_was_not_built_for():
    tree = family_tree("path", 4, t=2)
    sentences = dict(catalog(t=2))
    triangle = to_nnf(sentences["has-triangle"])
    rc = char_tree_from_parse_tree(tree, move_budget(triangle))
    assert not game_on_tree(rc, triangle)
    # two-colorable needs a set move; this tree has none
    with pytest.raises(DepthBudgetError, match="set move"):
        game_on_tree(rc, to_nnf(sentences["two-colorable"]))
    # and a fourth point move is out of budget even though points exist
    deep = to_nnf(parse_formula("Ex a. Ex b. Ex c. Ex d. adj(a,d)", 2))
    with pytest.raises(DepthBudgetError, match="point move"):
        game_on_tree(rc, deep)
    # the game records the budgets it found phi's moves in, per budget: in
    # one forest, a tree built for two-colorable's own budget plays, and a
    # tree whose budget lacks its set move is still refused
    two_colorable = to_nnf(sentences["two-colorable"])
    forest = RCForest()
    own = char_tree_from_parse_tree(tree, move_budget(two_colorable), forest)
    assert game_on_tree(own, two_colorable)
    shallow = char_tree_from_parse_tree(tree, move_budget(triangle), forest)
    with pytest.raises(DepthBudgetError, match="set move"):
        game_on_tree(shallow, two_colorable)


def test_one_sentence_keeps_one_game_record_across_budgets():
    # the game record is keyed by the sentence and its listed variables,
    # not by a budget: a plain and a collapsing fold for two-colorable's
    # budget and a full depth-3 fold in one forest all play one record
    tree = family_tree("path", 6, t=2)
    phi = dict(catalog(t=2))["two-colorable"]
    want = evaluate(generate_graph(tree), phi)
    forest = RCForest()
    trees = [char_tree_from_parse_tree(tree, move_budget(phi), forest),
             char_tree_from_parse_tree(tree, 3, forest),
             char_tree_from_parse_tree(tree, move_budget(phi), forest, check_collapse(phi))]
    for rc in trees:
        assert game_on_tree(rc, phi) == want, rc.budget
    assert list(forest.game_memo) == [(phi, (), ())]


def test_quantifiers_over_an_empty_universe_are_vacuous():
    # no point children, but point moves are in the budget: Ex is false
    # and Ax is true, not a budget error
    forest = RCForest()
    rid = reference_char_tree(forest, build_structure(0, []), (1, 1))
    tree = RCTree(forest, rid, (1, 1))
    assert not game_on_tree(tree, parse_formula("Ex x. x = x"))
    assert game_on_tree(tree, to_nnf(parse_formula("Ax x. adj(x,x)")))
    assert not game_on_tree(tree, parse_formula("EX S. Ex x. S(x)"))
