"""Model checking's collapsing fold (games.check_collapse).

The collapsing route must give the same answers as the game on the plain
reduced tree and as the brute-force semantics, intern a node count that
stays flat in n, and build byte for byte the plain tree for every
sentence it cannot collapse.  A collapsed tree answers only for its own
sentence: the game refuses any other.
"""

import hashlib
import random

import pytest

from rwmso import (FAMILIES, evaluate, family_tree, game_on_tree, generate_graph,
                   model_check, parse_formula, quantifier_rank)
from rwmso import LinEMSOProblem, chartree, linemso, solve_linemso
from rwmso.chartree import RCForest, char_tree_from_parse_tree, rc_dump
from rwmso.errors import RwmsoError
from rwmso.games import _EXISTS, BOTTOM, CATALOG, Verdicts, check_collapse
from rwmso.logic import ExistsObj, ExistsSet, ForallObj, ForallSet, move_budget

from common import (catalog, random_formula, random_parse_tree, random_sentence,
                    small_parse_trees)

TWO_COLORABLE = next(e.text for e in CATALOG if e.name == "two-colorable")

COLLAPSED_RC_DUMP_SHA256 = "42f91f856aee02ea7e24ab29e4cc24e09c63063683512f954f631bbcabb86c3d"


def _collapsed(tree, phi, forest=None):
    return char_tree_from_parse_tree(tree, move_budget(phi), forest, check_collapse(phi))


def _plain(tree, phi, forest=None):
    return char_tree_from_parse_tree(tree, move_budget(phi), forest)


def _point_moves_stay_real(rc):
    """Whether no node of the tree has the lost node as a point child:
    the game of a set-first sentence meets it only at set moves from
    (0, p) nodes, where its verdict holds, and never after a point move."""
    forest = rc.forest
    return not any(forest.lost in forest.nodes[nid].point_children
                   for nid in forest.reachable(rc.root))


def _catalog_at(t):
    """The catalog sentences a width-t parse tree can be asked."""
    out = []
    for entry in CATALOG:
        try:
            out.append(parse_formula(entry.text, t))
        except RwmsoError:  # a label above t
            pass
    return out


def test_collapsing_check_agrees_with_the_plain_game_and_evaluate():
    # one forest holds the plain and the collapsing folds of every
    # sentence: their cross memos are apart, and the lost nodes are shared
    small = RCForest()  # shared by the small trees; each family tree has its own
    trees = [(tree, _catalog_at(1), small) for tree in small_parse_trees()]
    trees += [(family_tree(family, n, 2), [phi for _, phi in catalog(t=2)], RCForest())
              for family in FAMILIES for n in range(1 if family != "cycle" else 3, 9)]
    collapsed = 0
    for tree, sentences, forest in trees:
        g = generate_graph(tree)
        for phi in sentences:
            rc = _collapsed(tree, phi, forest)
            assert _point_moves_stay_real(rc), (str(phi), tree)
            got = game_on_tree(rc, phi)
            assert got == game_on_tree(_plain(tree, phi, forest), phi), (str(phi), tree)
            assert got == evaluate(g, phi), (str(phi), tree)
        assert model_check(tree, sentences[-1]) == got
        collapsed += forest.collapsed > 0
    assert collapsed > 0


def test_collapsed_node_count_is_flat_in_n():
    # the plain fold of two-colorable on a path interns 485 nodes at any
    # n; collapsing keeps the count flat, at 102
    phi = parse_formula(TWO_COLORABLE, 2)
    counts = []
    for n in (64, 128):
        tree = family_tree("path", n, 2)
        assert len(_plain(tree, phi).forest) == 485
        rc = _collapsed(tree, phi)
        assert game_on_tree(rc, phi)
        assert rc.forest.collapsed > 0
        counts.append(len(rc.forest))
    assert counts == [102, 102], counts


def _count_steps(module, monkeypatch):
    """A list that grows by one per fold step the module takes."""
    steps, fold = [], module.fold

    def counted_fold(tree, leaf, combine_for):
        def counted_for(op):
            step = combine_for(op)

            def counted(left, right):
                steps.append(op)
                return step(left, right)
            return counted
        return fold(tree, leaf, counted_for)

    monkeypatch.setattr(module, "fold", counted_fold)
    return steps


def test_both_folds_stop_at_their_first_lost_root(monkeypatch):
    # a lost root loses every graph it is composed into, so the fold ends
    # at the first one: as many steps at n = 4096 as at n = 64
    steps = _count_steps(chartree, monkeypatch)
    lost = {"edgeless": ("path", "cycle", "star"), "complete": ("path", "cycle", "star"),
            "label1-dominates": ("path", "cycle"), "two-colorable": ()}
    for name, families in lost.items():
        phi = parse_formula(next(e.text for e in CATALOG if e.name == name), 2)
        for family in ("path", "cycle", "star"):
            taken = []
            for n in (64, 4096):
                steps.clear()
                rc = _collapsed(family_tree(family, n, 2), phi)
                assert game_on_tree(rc, phi) is (family not in families), (name, family)
                assert (rc.root == rc.forest.lost) is (family in families), (name, family)
                taken.append(len(steps))
            # the rest hold (on a star every vertex sees the center, the one
            # vertex left labeled 1) and take all n - 1 steps
            assert taken == ([taken[0]] * 2 if family in families else [63, 4095]), (
                name, family, taken)
    # no state of a LinEMSO solve survives the first combine
    steps = _count_steps(linemso, monkeypatch)
    problem = LinEMSOProblem(parse_formula("Ax x. Ax y. (!adj(x,y) | (X(x) & !X(x)))", 2),
                             (1,), "max")
    assert solve_linemso(family_tree("path", 4096), problem) is None
    assert len(steps) == 1


def test_refolds_of_one_sentence_share_the_forest_memos(monkeypatch):
    # the forest's compiled game for two-colorable keeps its one collapse
    # test, so refolds into one forest reuse the first fold's cross-product
    # memo (its three operators' dicts, keyed by that test) and make no miss
    misses = []
    tcp = chartree.tree_cross_product

    def counting(*args):
        misses[-1] += 1
        return tcp(*args)

    monkeypatch.setattr(chartree, "tree_cross_product", counting)
    phi = parse_formula(TWO_COLORABLE, 2)
    tree = family_tree("cycle", 64, 2)
    forest = RCForest()
    tests = set()
    for _ in range(3):
        misses.append(0)
        rc = _collapsed(tree, phi, forest)
        tests.add(rc.collapse)
        assert game_on_tree(rc, phi)  # an even cycle
    assert misses == [10, 0, 0]
    assert len(forest.cross_memo) == 3 and len(tests) == 1 and None not in tests
    assert {key[1] for key in forest.cross_memo} == tests


def test_a_repeated_cross_product_counts_no_collapse_again():
    # collapsed counts distinct (0, p) products: a second direct call on a
    # collapsed pair, a real one (1, 1) or one with the lost factor, finds
    # its memo entry and adds nothing
    phi = parse_formula("EX S. Ax x. (S(x) & !S(x))", 2)
    tree = family_tree("path", 4, 2)
    rc = _collapsed(tree, phi)
    forest, op = rc.forest, tree.ops[0]
    assert forest.collapsed == 6
    for pair in ((1, 1), (forest.lost, 1)):
        assert forest.cross_memo_for(rc.budget, op, rc.collapse)[pair + ((),)] == forest.lost
        assert chartree.tree_cross_product(forest, *pair, rc.budget, op,
                                           rc.collapse) == forest.lost
        assert forest.collapsed == 6, pair


def test_frozen_vertices_collapse_label1_dominates():
    # label1-dominates fails once a frozen vertex (label row 0) has no
    # neighbour that can still carry label 1: it can gain neither.  The
    # path folds lose such subtrees early, and the count stays flat
    phi = parse_formula(next(e.text for e in CATALOG if e.name == "label1-dominates"), 2)
    counts = []
    for n in (64, 128):
        tree = family_tree("path", n, 2)
        rc = _collapsed(tree, phi)
        assert rc.forest.collapsed > 0
        assert game_on_tree(rc, phi) == evaluate(generate_graph(tree), phi)
        counts.append(len(rc.forest))
    assert counts[0] == counts[1], counts


def test_a_fold_that_collapses_nothing_interns_one_node_more():
    # label1-dominates has a collapsible level, so its test makes the lost
    # node up front; on a star and a cograph-join nothing is lost, and the
    # forest holds the plain fold's nodes and that one node
    phi = parse_formula(next(e.text for e in CATALOG if e.name == "label1-dominates"), 2)
    for family, n, plain_nodes in (("star", 64, 12), ("cograph-join", 4096, 6)):
        tree = family_tree(family, n, 2)
        rc = _collapsed(tree, phi)
        assert rc.forest.collapsed == 0
        assert len(_plain(tree, phi).forest) == plain_nodes
        assert len(rc.forest) == plain_nodes + 1, (family, len(rc.forest))


def test_the_lost_node_below_point_moves_stays_off_the_game():
    # the second conjunct reaches (2, 2) by point moves, so nodes at
    # (m >= 1, 1) get set children, and a product with a lost (0, 2)
    # factor among them is the lost node.  The game of a set-first
    # sentence makes no set move there, so the shared node changes no
    # answer.  The plain trees of the n=9 graphs intern 120k-280k nodes,
    # so only the small ones are also played plain
    phi = parse_formula("(EX S. Ax x. Ax y. (!adj(x,y) | !S(x) | !S(y) | x = y)) & "
                        "(EX S. EX T. Ax x. Ax y. (!adj(x,y) | !T(x) | !T(y)))", 2)
    assert move_budget(phi) == (0, 2, 2)
    for family, n in (("path", 9), ("cycle", 9), ("star", 7), ("cycle", 6)):
        tree = family_tree(family, n, 2)
        rc = _collapsed(tree, phi)
        forest = rc.forest
        assert _point_moves_stay_real(rc), (family, n)
        assert any(node.m >= 1 and forest.lost in node.set_children
                   for node in forest.nodes), (family, n)
        got = game_on_tree(rc, phi)
        assert got == evaluate(generate_graph(tree), phi), (family, n)
        if n < 9:
            assert got == game_on_tree(_plain(tree, phi), phi), (family, n)


def test_a_collapsed_tree_plays_its_own_sentence_at_the_fold_budget():
    # two-colorable is false on cycle 9.  The fold hands check_collapse its
    # forest alone, and phi's verdicts hold at any budget, so a tree folded
    # for more than phi's budget still collapses and answers False.  The
    # tree keeps its fold's test: another sentence, phi with its set
    # renamed included, would read the lost node as lost for itself, so
    # the game refuses it
    phi = parse_formula(TWO_COLORABLE, 2)
    tree = family_tree("cycle", 9, 2)
    g = generate_graph(tree)
    assert not evaluate(g, phi)
    others = [parse_formula(TWO_COLORABLE.replace("C", "D"), 2),
              parse_formula(next(e.text for e in CATALOG
                                 if e.name == "independent-set-meets-all-edges"), 2)]
    for caps in ((0, 2), (0, 3), (1, 2)):
        rc = char_tree_from_parse_tree(tree, caps, None, check_collapse(phi))
        assert rc.forest.collapsed > 0, caps
        assert game_on_tree(rc, phi) is False, caps
        for psi in others:
            assert not evaluate(g, psi)
            with pytest.raises(RwmsoError, match="lost node"):
                game_on_tree(rc, psi)


def test_a_tree_refuses_another_sentence_that_shares_its_lost_node():
    # both sentences collapse in one forest and so seed its one lost node
    # in both their games; the tree folded for two-colorable (false on
    # cycle 9) must still refuse the other sentence, which holds (S = {})
    forest = RCForest()
    tree = family_tree("cycle", 9, 2)
    phi = parse_formula(TWO_COLORABLE, 2)
    psi = parse_formula("EX S. Ax x. Ax y. (!adj(x,y) | !S(x) | !S(y))", 2)
    assert evaluate(generate_graph(tree), psi)
    rc = _collapsed(tree, phi, forest)
    assert forest.lost in forest.reachable(rc.root)
    other = _collapsed(tree, psi, forest)
    assert game_on_tree(other, psi) and not game_on_tree(rc, phi)
    with pytest.raises(RwmsoError, match="lost node"):
        game_on_tree(rc, psi)


def test_a_hand_built_tree_over_a_collapsed_root_is_refused():
    # a tree built by hand carries no collapse test, so nothing vouches
    # for its lost node: the game refuses every sentence on it, the one
    # whose fold made it included
    tree = family_tree("cycle", 9, 2)
    phi = parse_formula(TWO_COLORABLE, 2)
    rc = _collapsed(tree, phi)
    forest = rc.forest
    assert rc.collapse is not None and forest.lost in forest.reachable(rc.root)
    bare = chartree.RCTree(forest, rc.root, rc.budget)
    for psi in (phi, parse_formula("EX S. Ax x. Ax y. (!adj(x,y) | !S(x) | !S(y))", 2)):
        with pytest.raises(RwmsoError, match="lost node"):
            game_on_tree(bare, psi)
    assert game_on_tree(rc, phi) is False


def test_equal_sentences_parsed_apart_share_one_test(monkeypatch):
    # two parses of two-colorable are equal but distinct objects; their
    # folds into one forest share one collapse test (an object that
    # compares by identity), and the second fold makes no miss
    misses = []
    tcp = chartree.tree_cross_product

    def counting(*args):
        misses[-1] += 1
        return tcp(*args)

    monkeypatch.setattr(chartree, "tree_cross_product", counting)
    first, second = parse_formula(TWO_COLORABLE, 2), parse_formula(TWO_COLORABLE, 2)
    assert first == second and first is not second
    tree = family_tree("cycle", 64, 2)
    forest = RCForest()
    trees = []
    for phi in (first, second):
        misses.append(0)
        trees.append(_collapsed(tree, phi, forest))
    assert misses[0] > 0 and misses[1] == 0
    # one test keys every cross-memo dict the folds used
    assert len({key[1] for key in forest.cross_memo} - {None}) == 1
    assert trees[0].collapse is not None and trees[0].collapse == trees[1].collapse
    assert game_on_tree(trees[1], second) and game_on_tree(trees[0], first)


def test_collapsed_rc_dump_is_byte_identical():
    # every catalog sentence at t=2, folded by check_collapse for its own
    # move budget into one forest per (family, n), as
    # test_chartree.test_rc_dump_is_byte_identical does for the plain
    # fold: the collapsing fold's nodes, ids and child order stay fixed
    digest = hashlib.sha256()
    lines = collapsed = 0
    for family in ("path", "cycle", "star", "cograph-join"):
        for n in (5, 17):
            forest = RCForest()
            tree = family_tree(family, n, 2)
            for _, phi in catalog(t=2):
                rc = _collapsed(tree, phi, forest)
                text = rc_dump(forest, rc.root)
                lines += text.count("\n")
                digest.update(text.encode())
            collapsed += forest.collapsed
    assert (lines, collapsed) == (898, 224)
    assert digest.hexdigest() == COLLAPSED_RC_DUMP_SHA256


def test_sentences_it_cannot_collapse_build_the_plain_tree():
    # not set-first: a set quantifier under a point quantifier.  In the
    # second, every position at level (0, 1) can fail, and collapsing
    # there would lose the singletons {y} the right disjunct needs
    not_set_first = [
        parse_formula("Ax x. EX C. (C(x) & (Ax y. (!adj(x,y) | !C(y))))", 2),
        parse_formula("(AX S. Ax x. S(x)) | (Ax y. EX Z. (Z(y) & (Ax w. (!Z(w) | w = y))))", 2)]
    # set-first, but every position at level (0, 0) is existential
    nothing_to_fail = parse_formula("Ex x. Ex y. Ex z. (adj(x,y) & adj(y,z) & adj(x,z))", 2)
    for phi in not_set_first + [nothing_to_fail]:
        for family in ("path", "cycle", "star"):
            tree = family_tree(family, 9, 2)
            rc, plain = _collapsed(tree, phi), _plain(tree, phi)
            assert not rc.forest.lost and rc.forest.collapsed == 0
            assert len(rc.forest) == len(plain.forest)
            assert rc_dump(rc.forest, rc.root) == rc_dump(plain.forest, plain.root)
            assert game_on_tree(rc, phi) == evaluate(generate_graph(tree), phi)


def test_lost_nodes():
    # every set contains every vertex: false once there are two vertices,
    # and the verdicts see it at the first product, so the root itself is
    # the forest's lost node
    phi = parse_formula("AX S. Ax x. S(x)", 2)
    rc = _collapsed(family_tree("path", 40, 2), phi)
    forest = rc.forest
    assert not game_on_tree(rc, phi)
    size = len(forest)
    assert rc.root == forest.lost == forest.lost_node() and len(forest) == size
    assert rc_dump(forest, rc.root) == f"{rc.root} root 0 0 0 | lost\n"
    lost = forest.nodes[forest.lost]
    assert not lost.point_children + lost.set_children
    # the real childless nodes (the leaf's, at the budget's last level)
    # keep labels of their own
    childless = [nid for nid, node in enumerate(forest.nodes) if nid != forest.lost
                 and not node.point_children + node.set_children]
    assert childless
    assert lost.label not in {forest.nodes[nid].label for nid in childless}


def test_every_verdict_view_reads_the_lost_node_as_lost():
    # the lost node is known by its label, chartree.LOST, so a view made
    # before the collapsing fold reads it as lost as well as one made
    # after; neither view nor the game stores those reads
    phi = parse_formula(TWO_COLORABLE, 2)
    forest = RCForest()
    before = Verdicts(forest, phi, ())
    forest = _collapsed(family_tree("cycle", 9, 2), phi, forest).forest
    assert forest.lost is not None
    assert forest.nodes[forest.lost].ord is chartree.LOST
    verdicts = Verdicts(forest, phi, ())
    assert all(verdicts.at(forest.lost, pos) == BOTTOM for pos in range(verdicts.size))
    assert all(before.at(forest.lost, pos) == BOTTOM for pos in range(before.size))
    game = forest.game_memo[phi, (), ()].memo
    first = forest.lost * verdicts.size
    for memo in (before.memo, verdicts.memo, game):
        assert not set(range(first, first + verdicts.size)) & memo.keys()


def test_random_sentences_with_collapses_agree_with_evaluate():
    # seeded fuzz on the sentences whose fold collapses something
    rng = random.Random(11)
    with_collapse = 0
    for _ in range(400):
        phi = random_sentence(rng)
        tree = random_parse_tree(rng, rng.randint(2, 6), 2)
        if quantifier_rank(phi) > 3:
            continue
        rc = _collapsed(tree, phi)
        assert _point_moves_stay_real(rc), (str(phi), tree)
        assert game_on_tree(rc, phi) == evaluate(generate_graph(tree), phi), (str(phi), tree)
        with_collapse += rc.forest.collapsed > 0
    assert with_collapse >= 20, with_collapse


def _two_set_sentence(rng):
    """Two set quantifiers and one point quantifier in random order, so
    some prefixes are not set-first, in front of a random_formula body of
    depth 1 over their variables."""
    prefix = [(rng.choice((ExistsSet, ForallSet)), "S0"),
              (rng.choice((ExistsSet, ForallSet)), "S1"),
              (rng.choice((ExistsObj, ForallObj)), "x0")]
    rng.shuffle(prefix)
    phi = random_formula(rng, 1, ["x0"], ["S0", "S1"])
    for quant, v in reversed(prefix):
        phi = quant(v, phi)
    return phi


def test_sentences_with_two_set_quantifiers_agree_with_the_plain_fold():
    # seeded fuzz: the collapsing fold, the plain fold and evaluate agree
    rng = random.Random(5)
    with_collapse = 0
    for _ in range(200):
        phi = _two_set_sentence(rng)
        tree = random_parse_tree(rng, rng.randint(2, 5), 2)
        if quantifier_rank(phi) > 3:
            continue
        rc = _collapsed(tree, phi)
        want = evaluate(generate_graph(tree), phi)
        assert game_on_tree(rc, phi) == game_on_tree(_plain(tree, phi), phi) == want, \
            (str(phi), tree)
        with_collapse += rc.forest.collapsed > 0
    assert with_collapse >= 20, with_collapse


# not set-first (EX Z under Ax y); position 0 can fail through the first
# conjunct, whose body would be an entry of (0, 1) if phi were set-first
NOT_SET_FIRST = ("(AX S. Ax x. (S(x) | label1(x) | (Ex y. (adj(x,y) & label1(y)))))"
                 " & (Ax y. EX Z. Z(y))")
# set-first: AX S and EX T both move into (0, 1), so that level has two
# entries, their bodies; below the first, Ex y stays at (0, 1) and cannot
# fail, so a rule over every position of the level would collapse nothing
TWO_ENTRIES = ("(AX S. ((Ax x. (S(x) | label1(x))) & (Ex y. (S(y) | label2(y)))))"
               " | (EX T. Ax x. (T(x) & !label2(x)))")


def _rule_trees():
    """The family trees with n <= 8 and 40 seeded random trees, at t = 2."""
    rng = random.Random(3)
    trees = [family_tree(family, n, 2) for family in FAMILIES
             for n in range(3 if family == "cycle" else 1, 9)]
    return trees + [random_parse_tree(rng, rng.randint(2, 6), 2) for _ in range(40)]


def _set_move_bodies(game):
    """The bodies of the set quantifiers at (0, 0): the entries of (0, 1)."""
    return [a for pos, (kind, a, point) in enumerate(game.table)
            if kind >= _EXISTS and not point and game.levels[pos] == (0, 0)]


def test_a_sentence_that_is_not_set_first_collapses_its_start_level_only():
    # the start level holds only fold roots, which the game enters at
    # position 0 alone, so the fold collapses there: the lost node is no
    # node's child, though the body of AX S is BOTTOM on some (0, 1) nodes
    phi = parse_formula(NOT_SET_FIRST, 2)
    answers, lost_roots, lost_bodies = set(), 0, 0
    for tree in _rule_trees():
        forest = RCForest()
        rc = _collapsed(tree, phi, forest)
        want = evaluate(generate_graph(tree), phi)
        assert game_on_tree(rc, phi) == game_on_tree(_plain(tree, phi), phi) == want, tree
        answers.add(want)
        lost_roots += rc.root == forest.lost
        game = forest.game_memo[phi, (), ()]
        (body,) = _set_move_bodies(game)
        assert game.fail[0] and game.fail[body]
        view = Verdicts(forest, phi, ())
        for nid, node in enumerate(forest.nodes):
            if nid == forest.lost:
                continue
            assert forest.lost not in node.point_children + node.set_children, tree
            if not node.m and node.p:  # the test reads set-only levels only
                assert not rc.collapse(nid), tree
                lost_bodies += view.at(nid, body) == BOTTOM
    assert answers == {True, False} and lost_roots > 0 and lost_bodies > 0


def test_a_level_with_two_entries_collapses_where_both_are_lost():
    # a (0, 1) node is lost when its verdict is BOTTOM at both entries,
    # whatever the other positions of its level; the answers stay those
    # of the plain fold and evaluate
    phi = parse_formula(TWO_ENTRIES, 2)
    answers, counts = set(), {"one entry lost": 0, "both lost": 0}
    for tree in _rule_trees():
        forest = RCForest()
        rc = _collapsed(tree, phi, forest)
        want = evaluate(generate_graph(tree), phi)
        assert game_on_tree(rc, phi) == game_on_tree(_plain(tree, phi), phi) == want, tree
        assert _point_moves_stay_real(rc), tree
        answers.add(want)
        game = forest.game_memo[phi, (), ()]
        entries = _set_move_bodies(game)
        assert len(entries) == 2 and all(game.fail[e] for e in entries)
        assert not all(game.fail[pos] for pos, level in enumerate(game.levels)
                       if level == (0, 1))
        view = Verdicts(forest, phi, ())
        for nid, node in enumerate(forest.nodes):
            if nid != forest.lost and (node.m, node.p) == (0, 1):
                lost = [view.at(nid, e) == BOTTOM for e in entries]
                assert rc.collapse(nid) == all(lost), tree
                counts["both lost" if all(lost) else "one entry lost"] += any(lost)
    assert answers == {True, False} and min(counts.values()) > 0, counts
