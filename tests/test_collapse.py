"""Model checking's collapsing fold (games.check_collapse).

The collapsing route must give the same answers as the game on the plain
reduced tree and as the brute-force semantics, intern a node count that
stays flat in n, and build byte for byte the plain tree for every
sentence it cannot collapse.
"""

import random

from rwmso import (FAMILIES, evaluate, family_tree, game_on_tree, generate_graph,
                   model_check, parse_formula, quantifier_rank)
from rwmso.chartree import RCForest, char_tree_from_parse_tree, rc_dump
from rwmso.errors import RwmsoError
from rwmso.games import CATALOG, check_collapse
from rwmso.logic import move_budget

from common import catalog, random_parse_tree, random_sentence, small_parse_trees

TWO_COLORABLE = next(e.text for e in CATALOG if e.name == "two-colorable")


def _collapsed(tree, phi, forest=None):
    caps = move_budget(phi)
    return char_tree_from_parse_tree(tree, caps, forest, check_collapse(phi, caps))


def _plain(tree, phi, forest=None):
    return char_tree_from_parse_tree(tree, move_budget(phi), forest)


def _point_moves_stay_real(rc):
    """Whether no node of the tree has a lost point child: the game of a
    set-first sentence meets lost nodes only at set moves from (0, p)
    nodes, where their verdict holds, and never after a point move."""
    forest = rc.forest
    return not any(set(forest.node(nid).point_children) & forest.lost
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
    # n; collapsing keeps the count flat, at 105
    phi = parse_formula(TWO_COLORABLE, 2)
    counts = []
    for n in (64, 128):
        tree = family_tree("path", n, 2)
        assert len(_plain(tree, phi).forest) == 485
        rc = _collapsed(tree, phi)
        assert game_on_tree(rc, phi)
        assert rc.forest.collapsed > 0
        counts.append(len(rc.forest))
    assert counts == [105, 105], counts


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
    # the lost node of level (0, 0)
    phi = parse_formula("AX S. Ax x. S(x)", 2)
    rc = _collapsed(family_tree("path", 40, 2), phi)
    forest = rc.forest
    assert not game_on_tree(rc, phi)
    assert rc.root == forest.lost_node(0, 0) and rc.root in forest.lost
    assert rc_dump(forest, rc.root) == f"{rc.root} root 0 0 0 | lost\n"
    # one childless node per level of the budget, none merged with another
    levels = [(m, p) for p, cap in enumerate(rc.budget) for m in range(cap + 1)]
    ids = [forest.lost_node(m, p) for m, p in levels]
    assert sorted(ids) == sorted(forest.lost) and len(set(ids)) == len(levels)
    for nid, (m, p) in zip(ids, levels):
        node = forest.node(nid)
        assert (node.m, node.p) == (m, p) and not node.point_children + node.set_children
    # the real childless nodes (the leaf's, at the budget's last level)
    # keep labels of their own
    childless = [nid for nid, node in enumerate(forest.nodes) if nid not in forest.lost
                 and not node.point_children + node.set_children]
    assert childless
    assert not ({forest.node(nid).label for nid in childless}
                & {forest.node(nid).label for nid in ids})


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
