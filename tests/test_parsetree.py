import gc
import random

import pytest

from rwmso import (ParseTree, Relabeling, build_structure, family_tree,
                   format_parse_tree, generate_graph, parse_tree_from_text)
from rwmso.errors import RwmsoError
from rwmso.parsetree import FAMILIES, Leaf, Node, _postorder

from common import are_isomorphic, random_parse_tree


def test_parse_leaf():
    tree = parse_tree_from_text("t=1\n(v)")
    assert tree.t == 1 and isinstance(tree.root, Leaf)


def test_parse_single_node():
    tree = parse_tree_from_text("t=1\n(o 1 1 1 (v) (v))")
    root = tree.root
    assert isinstance(root, Node)
    assert root.g == root.f1 == root.f2 == Relabeling((1,))
    assert isinstance(root.left, Leaf) and isinstance(root.right, Leaf)


def test_parse_missing_matrix():
    with pytest.raises(RwmsoError, match="three matrices"):
        parse_tree_from_text("t=1\n(o 1 1 (v) (v))")


def test_parse_errors():
    with pytest.raises(RwmsoError, match="header"):
        parse_tree_from_text("(v)")
    with pytest.raises(RwmsoError):
        parse_tree_from_text("t=2\n(o 1 1 1 (v) (v))")  # 1x1 matrix, t=2
    with pytest.raises(RwmsoError):
        parse_tree_from_text("t=1\n(v) (v)")


def test_generate_leaf():
    g = generate_graph(ParseTree(2, Leaf()))
    assert g.n == 1 and g.labels == (1,) and g.num_edges() == 0


def test_generate_k2():
    tree = parse_tree_from_text("t=1\n(o 1 1 1 (v) (v))")
    g = generate_graph(tree)
    assert g.edges() == [(0, 1)]


def test_path_tree_is_p4():
    g = generate_graph(family_tree("path", 4))
    p4 = build_structure(4, [(0, 1), (1, 2), (2, 3)], t=1)
    assert are_isomorphic(
        build_structure(g.n, g.edges(), 1), p4)


def test_family_examples():
    k3 = generate_graph(family_tree("complete", 3))
    assert are_isomorphic(build_structure(3, k3.edges(), 1),
                          build_structure(3, [(0, 1), (1, 2), (0, 2)], t=1))
    k2 = generate_graph(family_tree("path", 2))
    assert k2.edges() == [(0, 1)]
    c5 = generate_graph(family_tree("cycle", 5))
    want = build_structure(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], t=2)
    assert are_isomorphic(build_structure(5, c5.edges(), 2), want)


def test_family_edge_counts():
    for n in range(1, 8):
        assert generate_graph(family_tree("complete", n)).num_edges() == n * (n - 1) // 2
        assert generate_graph(family_tree("path", n)).num_edges() == n - 1
        assert generate_graph(family_tree("star", n)).num_edges() == n - 1
        assert generate_graph(family_tree("cograph-union", n)).num_edges() == 0
        assert generate_graph(family_tree("cograph-join", n)).num_edges() == n * (n - 1) // 2
        if n >= 3:
            assert generate_graph(family_tree("cycle", n)).num_edges() == n


def test_family_tree_shape():
    for family in FAMILIES:
        for n in (3, 5, 7):
            tree = family_tree(family, n)
            assert tree.leaf_count() == n
            assert tree.size() == 2 * n - 1


def test_family_padding_keeps_graph():
    for family in FAMILIES:
        n = 5
        g1 = generate_graph(family_tree(family, n))
        g3 = generate_graph(family_tree(family, n, t=3))
        assert g3.t == 3
        assert g1.edges() == g3.edges()


def test_family_validation():
    with pytest.raises(RwmsoError):
        family_tree("cycle", 2)
    with pytest.raises(RwmsoError):
        family_tree("mobius", 4)
    with pytest.raises(RwmsoError):
        family_tree("path", 0)
    with pytest.raises(RwmsoError):
        family_tree("cycle", 5, t=1)


def test_round_trip():
    rng = random.Random(3)
    trees = [family_tree(f, n) for f in FAMILIES for n in (3, 4, 6)]
    trees += [random_parse_tree(rng, rng.randint(1, 6), rng.choice((1, 2, 3)))
              for _ in range(30)]
    for tree in trees:
        assert parse_tree_from_text(format_parse_tree(tree)) == tree


def test_deep_tree_no_recursion_limit():
    # dataclass == would recurse here, so compare the serialized form
    tree = family_tree("path", 5000)
    assert tree.size() == 9999
    text = format_parse_tree(tree)
    assert format_parse_tree(parse_tree_from_text(text)) == text


def test_leaf_order_is_vertex_order():
    # star: first leaf is the center, so vertex 0 has degree n-1
    g = generate_graph(family_tree("star", 6))
    assert g.adj[0].bit_count() == 5


def test_postorder_walk_leaves_nothing_for_the_collector():
    # the walk keeps nodes and flags on two lists, so on a left-deep
    # caterpillar it holds no per-node container and no collection starts
    tree = family_tree("path", 2 ** 14)
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        walked = sum(1 for _ in _postorder(tree.root))
    finally:
        gc.callbacks.remove(hook)
    assert walked == 2 ** 15 - 1
    assert started == []
