import hashlib
import itertools
import random

import pytest

from rwmso import (LinEMSOProblem, ParseTree, Relabeling, Structure, build_structure,
                   char_tree_from_parse_tree, chartree, compose, evaluate, family_tree,
                   generate_graph, linemso, model_check, ordered_induced, parse_formula,
                   rename_combine, solve_linemso, tree_cross_product)
from rwmso.chartree import (RCForest, RCTree, as_budget, in_budget, rc_dump,
                            reduced_char_tree_direct)
from rwmso.errors import (DepthBudgetError, RwmsoError, ScaleGuardError,
                          WidthMismatchError)
from rwmso.games import check_collapse
from rwmso.logic import move_budget
from rwmso.parsetree import leaf_vertex

from common import (all_structures, catalog, cross_misses, down_closure, exp_tower,
                    full_char_tree, full_tree_size, has_children, indicator_vector,
                    merge_full_tree, permuted, random_relabeling, random_structure,
                    reference_char_tree, reference_rename_combine, size_bound,
                    small_parse_trees, tower_at_least, unfold_rc)

IDENT = Relabeling.identity(1)
VERTEX = leaf_vertex(1)
# the sentences of perfbench's check-deep workload, and the optimize
# problems (max independent set, min vertex cover, min dominating set)
CHECK_DEEP = ("two-colorable", "independent-set-meets-all-edges", "has-triangle")
OPTIMIZE = (("Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))", "max"),
            ("Ax x. Ax y. (!adj(x,y) | X(x) | X(y))", "min"),
            ("Ax x. (X(x) | (Ex y. (adj(x,y) & X(y))))", "min"))


# --- full characteristic trees -------------------------------------------

def test_full_tree_q0():
    node = full_char_tree(VERTEX, 0)
    assert full_tree_size(node) == 1
    assert node.c == () and node.traces == ()


def test_full_tree_counts():
    # one element: root + 1 point child + 2 set children
    assert full_tree_size(full_char_tree(VERTEX, 1)) == 4
    # two elements: root + 2 point + 4 set children
    two = build_structure(2, [])
    assert full_tree_size(full_char_tree(two, 1)) == 7


def test_full_tree_traces_intersect_chosen_elements():
    g = build_structure(2, [(0, 1)])
    root = full_char_tree(g, 2, (), [{0}])
    assert root.traces == (frozenset(),)
    child = root.point_children[0]  # picked element 0
    assert child.traces == (frozenset({0}),)


# --- reduced characteristic trees ---------------------------------------

def test_direct_matches_merged_full_tree():
    # the reduced tree must be exactly the full tree after replacing
    # labels by ordered structures and collapsing equal siblings
    forest = RCForest()
    cases = [(g, q) for n in (1, 2, 3)
             for g in itertools.islice(all_structures(n, 1), 0, None, 7)
             for q in (0, 1, 2)]
    # five elements: a strided sample of all 32,768 at q <= 1, and a
    # labeled path at q = 2
    cases += [(g, q) for g in itertools.islice(all_structures(5, 1), 0, None, 2521)
              for q in (0, 1)]
    cases.append((build_structure(5, [(0, 1), (1, 2), (2, 3), (3, 4)], 1,
                                  [1, 0, 1, 1, 0]), 2))
    for g, q in cases:
        rid = reference_char_tree(forest, g, q)
        want = merge_full_tree(g, full_char_tree(g, q))
        assert unfold_rc(forest, rid) == want, (g, q)


def test_two_indistinguishable_elements_merge():
    # two elements, empty vocabulary, depth 2
    forest = RCForest()
    a = Structure(2, 0, (0, 0), (0, 0))
    root = reference_char_tree(forest, a, 2)
    node = forest.nodes[root]
    by_set = [reference_char_tree(forest, a, 2, (), [{v}]) for v in (0, 1)]
    assert by_set[0] == by_set[1]
    by_point = [reference_char_tree(forest, a, 2, (v,), []) for v in (0, 1)]
    assert by_point[0] == by_point[1]
    derived = len(node.point_children) + len(node.set_children)
    _, merged_kids = merge_full_tree(a, full_char_tree(a, 2))
    assert derived == len(merged_kids)
    # 1 point subtree + 3 distinct set subtrees (empty / singleton / both)
    assert derived == 4


def test_leaf_tree():
    forest = RCForest()
    leaf = forest.nodes[reduced_char_tree_direct(forest, 1, 0)]
    assert not has_children(leaf, True) and not has_children(leaf, False)
    nid = reduced_char_tree_direct(forest, 1, 1)
    node = forest.nodes[nid]
    # full tree has 3 children (1 point, 2 set); the set children merge
    # because a trace is always intersected with the chosen elements
    assert full_tree_size(full_char_tree(VERTEX, 1)) == 4
    assert len(node.point_children) == 1 and len(node.set_children) == 1
    assert unfold_rc(forest, nid) == merge_full_tree(VERTEX, full_char_tree(VERTEX, 1))
    # interned: rebuilding gives the same id
    assert reduced_char_tree_direct(forest, 1, 1) == nid


def test_leaf_tree_size_within_3_to_the_q():
    forest = RCForest()
    for q in (0, 1, 2, 3):
        rid = reduced_char_tree_direct(forest, 1, q)
        assert RCTree(forest, rid, q).size() <= sum(3 ** i for i in range(q + 1))


def test_leaf_tree_has_three_times_two_to_the_q_nodes(monkeypatch):
    # the depth-q leaf tree merges to 3 * 2^q - q - 2 nodes, and its
    # builder labels each distinct (c, masks) once, not once per path to it
    calls = []
    induced = chartree.ordered_induced
    monkeypatch.setattr(chartree, "ordered_induced",
                        lambda *args: calls.append(None) or induced(*args))
    for q in range(11):
        calls.clear()
        forest = RCForest()
        reduced_char_tree_direct(forest, 1, q)
        assert len(forest) == 3 * 2 ** q - q - 2, q
        if q in (6, 8, 10):
            assert len(calls) <= 2 * len(forest), (q, len(calls), len(forest))


def test_a_depth_whose_leaf_passes_the_ceiling_is_refused():
    # the depth-q leaf tree alone has 3 * 2^q - q - 2 nodes, more than
    # MAX_NODES from q = 18 on; q = 17 is still a budget
    assert as_budget(17) == tuple(range(17, -1, -1))
    for q in (18, 19, 1200, 10 ** 9):
        with pytest.raises(ScaleGuardError, match=f"MAX_NODES={chartree.MAX_NODES}"):
            as_budget(q)


def _interned(forest):
    return [(n.label, n.point_children, n.set_children) for n in forest.nodes], forest.labels


def test_leaf_builder_matches_the_definition():
    # the one-vertex leaf, at every width t <= 3, every budget of 1 to 3
    # levels with caps 0..2 (staircases and others) and every choice of
    # up to two preloaded set bits, against the brute-force builder: the
    # same id in one forest, the same nodes and labels in fresh ones
    cases = 0
    for t in (1, 2, 3):
        for levels in (1, 2, 3):
            for caps in itertools.product(range(3), repeat=levels):
                for nbits in (0, 1, 2):
                    for bits in itertools.product((0, 1), repeat=nbits):
                        forest = RCForest()
                        got = reduced_char_tree_direct(forest, t, caps, bits)
                        assert got == reference_char_tree(forest, leaf_vertex(t), caps, (),
                                                          bits), (t, caps, bits)
                        mine, theirs = RCForest(), RCForest()
                        reduced_char_tree_direct(mine, t, caps, bits)
                        reference_char_tree(theirs, leaf_vertex(t), caps, (), bits)
                        assert _interned(mine) == _interned(theirs), (t, caps, bits)
                        cases += 1
    assert cases == 3 * (3 + 9 + 27) * (1 + 2 + 4)


def test_leaf_builder_refuses_a_bad_bit_and_width():
    with pytest.raises(RwmsoError, match="^set entry outside universe$"):
        reduced_char_tree_direct(RCForest(), 1, 1, (0, 2))
    with pytest.raises(RwmsoError, match="need t >= 1"):
        reduced_char_tree_direct(RCForest(), 0, 1)


def test_interning_gives_structural_equality():
    rng = random.Random(19)
    forest = RCForest()
    ids = []
    for _ in range(25):
        g = random_structure(rng, rng.randint(1, 3), 1)
        ids.append(reference_char_tree(forest, g, rng.choice((1, 2))))
    memo = {}
    for i1 in ids:
        for i2 in ids:
            assert (i1 == i2) == (unfold_rc(forest, i1, memo) == unfold_rc(forest, i2, memo))


def test_rc_ids_independent_of_presentation():
    rng = random.Random(21)
    forest = RCForest()
    for _ in range(20):
        n = rng.randint(1, 4)
        g = random_structure(rng, n, rng.choice((1, 2)))
        perm = list(range(n))
        rng.shuffle(perm)
        h = permuted(g, perm)
        assert reference_char_tree(forest, g, 2) == \
            reference_char_tree(forest, h, 2)


def test_budget_monotone():
    # at depth q, children exist exactly while m + p + 1 <= q; under a
    # move budget, point (set) children exactly when (m + 1, p)
    # ((m, p + 1)) is in the budget
    forest = RCForest()
    g = build_structure(3, [(0, 1), (1, 2)])
    q = 2
    root = reference_char_tree(forest, g, q)
    for nid in forest.reachable(root):
        node = forest.nodes[nid]
        assert has_children(node, True) == (node.m + node.p + 1 <= q)
        assert has_children(node, False) == (node.m + node.p + 1 <= q)
        for ch in node.point_children:
            child = forest.nodes[ch]
            assert child.m == node.m + 1 and child.p == node.p
        for ch in node.set_children:
            child = forest.nodes[ch]
            assert child.m == node.m and child.p == node.p + 1
    for budget in ((2, 1), (3,), (1, 1, 1), (0, 0)):
        root = reference_char_tree(forest, g, budget)
        for nid in forest.reachable(root):
            node = forest.nodes[nid]
            assert has_children(node, True) == in_budget(budget, node.m + 1, node.p)
            assert has_children(node, False) == in_budget(budget, node.m, node.p + 1)


# --- indicator vectors ----------------------------------------------------

def test_indicator_example():
    # a1 b1 b2 a2 b3 b4 a2 b3 a1 with sides {a1,a2} and {b1..b4}
    a1, a2, b1, b2, b3, b4 = 0, 1, 2, 3, 4, 5
    c = (a1, b1, b2, a2, b3, b4, a2, b3, a1)
    assert indicator_vector({a1, a2}, {b1, b2, b3, b4}, c) == (1, 2, 2, 1, 2, 2, 1, 2, 1)


def test_indicator_trivial():
    assert indicator_vector({0, 1}, set(), (0, 1, 0)) == (1, 1, 1)
    assert indicator_vector(set(), set(), ()) == ()


def test_indicator_unclassifiable():
    with pytest.raises(RwmsoError):
        indicator_vector({0}, {1}, (2,))


# --- rename_combine -------------------------------------------------------

def _split_vector(rng, n1, n2, m):
    """A vector over the union with its indicator and per-side parts."""
    c, c1, c2, d = [], [], [], []
    for _ in range(m):
        if n1 and (not n2 or rng.random() < 0.5):
            e = rng.randrange(n1)
            c.append(e)
            c1.append(e)
            d.append(1)
        else:
            e = rng.randrange(n2)
            c.append(n1 + e)
            c2.append(e)
            d.append(2)
    return c, c1, c2, tuple(d)


def test_rename_combine_matches_composition():
    # rename_combine merges the two labels, and reference_rename_combine
    # composes them and induces on c; composing the whole factors, then
    # inducing on c, must give the same ordered structure as both.  c
    # mixes both sides or takes one side only, and either side may be
    # empty.
    rng = random.Random(23)
    for mode in ("interleaved", "left", "right"):
        for _ in range(300):
            t = rng.randint(1, 4)
            n1, n2 = rng.randint(0, 3), rng.randint(0, 3)
            if mode == "left":
                n1 = max(n1, 1)
            elif mode == "right":
                n2 = max(n2, 1)
            g1, g2 = random_structure(rng, n1, t), random_structure(rng, n2, t)
            op = tuple(random_relabeling(rng, t) for _ in range(3))
            m = rng.randint(0, 5) if n1 or n2 else 0
            if mode == "left":
                c1 = [rng.randrange(n1) for _ in range(m)]
                c, c2, d = list(c1), [], (1,) * m
            elif mode == "right":
                c2 = [rng.randrange(n2) for _ in range(m)]
                c, c1, d = [n1 + e for e in c2], [], (2,) * m
            else:
                c, c1, c2, d = _split_vector(rng, n1, n2, m)
            sets = [frozenset(v for v in range(n1 + n2) if rng.random() < 0.5)
                    for _ in range(rng.randint(0, 3))]
            o1 = ordered_induced(g1, c1, [{e for e in s if e < n1} for s in sets])
            o2 = ordered_induced(g2, c2, [{e - n1 for e in s if e >= n1} for s in sets])
            h = compose(g1, g2, *op)
            slow = ordered_induced(h, c, sets)
            fast = rename_combine(o1, o2, d, op)
            assert fast == slow, (mode, t, n1, n2, d)
            assert reference_rename_combine(o1, o2, d, op) == slow, (mode, t, n1, n2, d)
            # the library builds these without validation; the validating
            # constructor must accept every one of them
            for struct in (h, o1.structure, o2.structure, slow.structure,
                           fast.structure):
                Structure(struct.n, struct.t, struct.adj, struct.labels)


def test_rename_combine_interleaved_sides():
    # d = 1 2 2 2 1: c = x b1 b2 b2 x with x on side 1
    rng = random.Random(29)
    t = 2
    g1, g2 = random_structure(rng, 3, t), random_structure(rng, 3, t)
    op = (Relabeling.identity(2), Relabeling.zero(2), Relabeling.identity(2))
    d = (1, 2, 2, 2, 1)
    c1, c2 = [2, 2], [0, 1, 1]
    c = [2, 3 + 0, 3 + 1, 3 + 1, 2]
    o = rename_combine(ordered_induced(g1, c1), ordered_induced(g2, c2), d, op)
    want = ordered_induced(compose(g1, g2, *op), c)
    assert o == want
    assert o.positions == (0, 1, 2, 2, 0)


def test_rename_combine_empty_side():
    o1 = ordered_induced(build_structure(2, [(0, 1)], t=1, labels=[1, 1]), [0, 1])
    o2 = ordered_induced(build_structure(0, [], t=1), [])
    op = (IDENT, Relabeling.zero(1), IDENT)
    out = rename_combine(o1, o2, (1, 1), op)
    assert out.structure.n == 2 and out.structure.labels == (0, 0)
    assert out.structure.edges() == [(0, 1)]


def test_rename_combine_validation():
    o1 = ordered_induced(VERTEX, [0], [{0}])
    o2 = ordered_induced(VERTEX, [])
    op = (IDENT, IDENT, IDENT)
    with pytest.raises(RwmsoError):
        rename_combine(o1, o2, (1,), op)  # trace counts differ
    o2 = ordered_induced(VERTEX, [], [set()])
    for d in ((3,), (0,), (1, 3), (0, 1)):
        with pytest.raises(RwmsoError, match="indicator"):
            rename_combine(o1, o2, d, op)  # bad indicator side
    with pytest.raises(RwmsoError, match="indicator"):
        rename_combine(o1, o2, (1, 1), op)  # wrong count on side 1
    with pytest.raises(RwmsoError, match="indicator"):
        rename_combine(o1, o2, (1, 2), op)  # wrong count on side 2
    wide = ordered_induced(Structure(1, 2, (0,), (1,)), [], [set()])
    with pytest.raises(WidthMismatchError):
        rename_combine(o1, wide, (1,), op)  # label widths differ
    two = Relabeling.identity(2)
    for i in range(3):  # a width mismatch in g, f1 or f2
        with pytest.raises(WidthMismatchError):
            rename_combine(o1, o2, (1,), op[:i] + (two,) + op[i + 1:])


# --- tree cross product ---------------------------------------------------

def test_tcp_leaf_leaf_is_k2():
    forest = RCForest()
    op = (IDENT, IDENT, IDENT)
    left = reference_char_tree(forest, VERTEX, 2)
    got = tree_cross_product(forest, left, left, 2, op)
    k2 = build_structure(2, [(0, 1)], t=1, labels=[1, 1])
    assert got == reference_char_tree(forest, k2, 2)


def test_tcp_zero_budget_single_root():
    forest = RCForest()
    op = (IDENT, IDENT, IDENT)
    left = reference_char_tree(forest, VERTEX, 0)
    got = tree_cross_product(forest, left, left, 0, op)
    node = forest.nodes[got]
    assert not has_children(node, True) and not has_children(node, False)


def test_tcp_exhaustive_small_parse_trees():
    # every t=1 parse tree with at most 3 leaves, at q <= 2 and at move
    # budgets that are not staircases
    forest = RCForest()
    for budget in (1, 2, (3,), (2, 2), (1, 1, 1), (0, 0)):
        for tree in small_parse_trees():
            rc = char_tree_from_parse_tree(tree, budget, forest)
            want = reference_char_tree(forest, generate_graph(tree), budget)
            assert rc.root == want


def test_tcp_depth_budget_error():
    # a factor folded for a smaller budget lacks a move the product needs:
    # the depth-1 tree has no point moves at (1, 0), the points-only tree
    # no set moves at (0, 0)
    forest = RCForest()
    shallow = reference_char_tree(forest, VERTEX, 1)
    with pytest.raises(DepthBudgetError,
                       match=r"no point moves at m=1, p=0 for budget \[2, 1, 0\]"):
        tree_cross_product(forest, shallow, shallow, 2, (IDENT, IDENT, IDENT))
    points_only = reference_char_tree(forest, VERTEX, (1,))
    with pytest.raises(DepthBudgetError,
                       match=r"no set moves at m=0, p=0 for budget \[1, 0\]"):
        tree_cross_product(forest, points_only, points_only, (1, 0), (IDENT, IDENT, IDENT))


def test_char_tree_single_leaf():
    forest = RCForest()
    tree = ParseTree(1, (), (-1,))
    for q in (0, 1, 2, 3):
        assert char_tree_from_parse_tree(tree, q, forest).root == \
            reference_char_tree(forest, VERTEX, q)


def test_char_tree_families_match_direct():
    forest = RCForest()
    for family, n in (("complete", 3), ("path", 4), ("star", 4),
                      ("cycle", 4), ("cograph-join", 4)):
        tree = family_tree(family, n)
        rc = char_tree_from_parse_tree(tree, 2, forest)
        want = reference_char_tree(forest, generate_graph(tree), 2)
        assert rc.root == want


def test_char_tree_stabilizes_on_paths():
    forest = RCForest()
    ids = [char_tree_from_parse_tree(family_tree("path", n, t=2), 2, forest).root
           for n in range(2, 64)]
    # finitely many classes: the tail must be constant
    assert len(set(ids[-20:])) == 1


def test_cross_products_are_memoized_in_the_forest():
    # a second fold on the same forest is all hits: it adds no cross-product
    # memo entry, so it makes no miss
    forest = RCForest()
    tree = family_tree("cycle", 6)
    first = char_tree_from_parse_tree(tree, 2, forest).root
    misses = cross_misses(forest)
    assert char_tree_from_parse_tree(tree, 2, forest).root == first
    assert cross_misses(forest) == misses > 0


def test_folds_call_the_cross_product_on_misses_only(monkeypatch):
    # tree_cross_product does not look its root pair up: both folds do it
    # first, so at every call the pair is absent from the memo.  A second
    # direct call on the pair still returns the same id and interns nothing
    cross = chartree.tree_cross_product
    calls = []

    def miss_only(forest, id1, id2, caps, op, test):
        assert (id1, id2, ()) not in forest.cross_memo_for(caps, op, test)
        out = cross(forest, id1, id2, caps, op, test)
        size = len(forest)
        assert cross(forest, id1, id2, caps, op, test) == out
        assert len(forest) == size
        calls.append(out)
        return out

    monkeypatch.setattr(chartree, "tree_cross_product", miss_only)
    monkeypatch.setattr(linemso, "tree_cross_product", miss_only)
    trees = [family_tree("path", n, t=2) for n in range(1, 13)]
    trees += [family_tree("cycle", n) for n in range(3, 13)]
    for tree in trees:
        for name, phi in catalog(t=2):
            assert model_check(tree, phi) == evaluate(generate_graph(tree), phi), (name, tree)
    checked = len(calls)
    for text, direction in OPTIMIZE:
        problem = LinEMSOProblem(parse_formula(text, 2), (1,), direction)
        for tree in trees:
            solve_linemso(tree, problem)
    assert 0 < checked < len(calls)


def test_label_memo_entries_are_rename_combine(monkeypatch):
    # every stored label product is the reference product (compose, then
    # induce) of the stored labels under the operator its memo is keyed
    # by: on small parse trees at several budgets, on the collapsing folds
    # of check-deep's three sentences, and on the forests of the three
    # optimize problems, on path 40 and cycle 8
    forests = []

    class TrackedForest(RCForest):
        def __init__(self):
            super().__init__()
            forests.append(self)

    forest = TrackedForest()
    for budget in (2, (3,), (2, 2)):
        for tree in small_parse_trees():
            char_tree_from_parse_tree(tree, budget, forest)
    monkeypatch.setattr(linemso, "RCForest", TrackedForest)
    sentences = dict(catalog(t=2))
    for tree in (family_tree("path", 40, t=2), family_tree("cycle", 8, t=2)):
        for name in CHECK_DEEP:
            phi = sentences[name]
            char_tree_from_parse_tree(tree, move_budget(phi), forest, check_collapse(phi))
        for text, direction in OPTIMIZE:
            solve_linemso(tree, LinEMSOProblem(parse_formula(text, 2), (1,), direction))
    assert len(forests) == 7
    for forest in forests:
        assert forest.label_memo
        labels = forest.labels
        for op, memo in forest.label_memo.items():
            for (l1, l2, d), lid in memo.items():
                assert labels[lid] == reference_rename_combine(labels[l1], labels[l2], d, op)
        assert len(set(labels)) == len(labels)


def test_misses_build_labels_without_composing(monkeypatch):
    # deterministic gate: a fold's label products merge the two labels,
    # so on check-deep's three sentences the fold calls compose never and
    # ordered_induced only for its leaf tree, as a fold of one leaf does
    calls = {"compose": 0, "ordered_induced": 0}
    for name in calls:
        def counting(*args, _fn=getattr(chartree, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(chartree, name, counting)
    sentences = dict(catalog(t=2))
    for name in CHECK_DEEP:
        phi = sentences[name]
        counts = []
        for tree in (ParseTree(2, (), (-1,)), family_tree("path", 64, t=2)):
            calls.update(compose=0, ordered_induced=0)
            forest = RCForest()
            char_tree_from_parse_tree(tree, move_budget(phi), forest, check_collapse(phi))
            counts.append(dict(calls))
        assert forest.label_memo, name
        assert counts[1] == counts[0], (name, counts)
        assert counts[0]["compose"] == 0 < counts[0]["ordered_induced"], (name, counts)


def test_label_images_are_computed_once_and_only_for_rows_that_occur(monkeypatch):
    # deterministic gate: a cycle padded to t = 12 has 2^12 label rows, but
    # the fold computes the image of a row under a relabeling only for the
    # labels its factors carry, at most once per (relabeling, row), and a
    # second fold with the same operators into a fresh forest computes none
    calls = []
    vtm = chartree.vtm
    monkeypatch.setattr(chartree, "vtm", lambda v, rows: calls.append((rows, v)) or vtm(v, rows))
    chartree._images.cache_clear()
    chartree._image_table.cache_clear()
    tree = family_tree("cycle", 16, 12)
    forest = RCForest()
    char_tree_from_parse_tree(tree, 2, forest)
    rows = {lab for o in forest.labels for lab in o.structure.labels}
    assert calls and len(set(calls)) == len(calls)
    assert {v for _, v in calls} <= rows
    assert {r for r, _ in calls} <= {rel.rows for op in tree.ops for rel in op}
    first = len(calls)
    char_tree_from_parse_tree(tree, 2, RCForest())
    assert len(calls) == first


def test_intern_keys_on_label_values():
    # an equal but distinct ordered structure gets the same label id, so
    # interning it gives the same node, which keeps the first label object
    forest = RCForest()
    a = ordered_induced(build_structure(2, [(0, 1)]), [1, 0])
    b = ordered_induced(build_structure(2, [(0, 1)]), [1, 0])
    assert a == b and a is not b
    nid = forest.intern(forest.label_id(a), (), ())
    assert forest.intern(forest.label_id(b), (), ()) == nid
    assert len(forest.labels) == 1 and forest.nodes[nid].ord is a


def test_rc_dump_format():
    forest = RCForest()
    rc = char_tree_from_parse_tree(family_tree("path", 3), 1, forest)
    lines = rc_dump(forest, rc.root).strip().splitlines()
    assert len(lines) == rc.size()
    root_line = next(l for l in lines if " root " in l)
    parts = root_line.split(" | ")
    assert parts[0].split()[1:4] == ["root", "0", "0"]


# sha256 of the rc_dump texts below; a change to node ids, child order or
# labels changes it
RC_DUMP_SHA256 = "27ce9a27cd0506b890dac1451597b1fa69f3a8b2c461580135786af786a9b844"


def test_rc_dump_is_byte_identical():
    # every catalog sentence at t=2, folded for the down-closure of its
    # move budget into one forest per (family, n), so later sentences
    # reuse earlier nodes; for a given budget the fold's nodes, ids and
    # child order stay fixed
    digest = hashlib.sha256()
    lines = 0
    for family in ("path", "cycle", "star", "cograph-join"):
        for n in (5, 17):
            forest = RCForest()
            tree = family_tree(family, n, 2)
            for _, phi in catalog(t=2):
                rc = char_tree_from_parse_tree(tree, down_closure(move_budget(phi)),
                                               forest)
                text = rc_dump(forest, rc.root)
                lines += text.count("\n")
                digest.update(text.encode())
    assert lines == 2306
    assert digest.hexdigest() == RC_DUMP_SHA256


# --- size bounds -----------------------------------------------------------

def test_exp_tower():
    assert exp_tower(1, 3) == 8
    assert exp_tower(2, 3) == 2 ** 16
    assert exp_tower(0, 7) == 7
    with pytest.raises(ScaleGuardError):
        exp_tower(3, 31)


def test_tower_at_least():
    assert tower_at_least(2, 3, 2 ** 16)
    assert not tower_at_least(2, 3, 2 ** 16 + 1)
    assert tower_at_least(4, 10, 10 ** 100)
    assert tower_at_least(1, 10, 1024)
    assert not tower_at_least(1, 10, 1025)


def test_size_bound_values():
    b = size_bound(0, 3)
    assert b.num_trees == 1 and b.tree_size == 0
    b = size_bound(1, 2)
    assert b.tower_arg == 3  # 2*1 + 0 + 1
    assert b.num_trees == 2 ** (2 * 8) and b.tree_size == 8 ** 4
    b = size_bound(2, 3)
    assert b.num_trees is None  # beyond the int guard
    assert b.tree_size == exp_tower(2, 18) ** 4


def test_constructed_trees_within_size_bound():
    forest = RCForest()
    for t in (1, 2):
        for q in (1, 2):
            bound = size_bound(q, t + 1, 2).tree_size
            for family in ("path", "complete", "cycle", "star"):
                if family == "cycle" and t < 2:
                    continue
                for n in (3, 4, 5):
                    rc = char_tree_from_parse_tree(family_tree(family, n, t=t),
                                                   q, forest)
                    assert rc.size() <= bound
