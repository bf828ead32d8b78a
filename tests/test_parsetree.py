import gc
import random

import pytest

from rwmso import (ParseTree, Relabeling, build_structure, family_tree,
                   format_parse_tree, generate_graph, model_check, parse_formula,
                   parse_tree_from_text)
from rwmso.errors import RwmsoError
from rwmso.parsetree import FAMILIES, LEAF, fold

from common import are_isomorphic, random_parse_tree, reference_parse_tree_from_text


def test_parse_leaf():
    tree = parse_tree_from_text("t=1\n(v)")
    assert tree == ParseTree(1, (), (-1,))


def test_parse_single_node():
    tree = parse_tree_from_text("t=1\n(o 1 1 1 (v) (v))")
    one = Relabeling((1,))
    assert tree == ParseTree(1, ((one, one, one),), (-1, -1, 0))


def test_parse_numbers_operators_by_first_use():
    # the text meets the root's operator first; the code uses it last
    text = "t=1\n(o 0 0 0 (o 1 1 1 (v) (v)) (o 1 1 1 (v) (v)))"
    tree = parse_tree_from_text(text)
    zero, one = Relabeling((0,)), Relabeling((1,))
    assert tree.ops == ((one, one, one), (zero, zero, zero))
    assert tree.code == (-1, -1, 0, -1, -1, 0, 1)
    assert format_parse_tree(tree) == text + "\n"


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
    with pytest.raises(RwmsoError, match="width"):
        parse_tree_from_text("t=0\n(v)")
    with pytest.raises(RwmsoError, match="width"):
        ParseTree(0, (), (LEAF,))


@pytest.mark.parametrize("body", [
    "(o 1 1 1 (v))",                  # missing child
    "(o 1 1 1 (v) (v) (v))",          # extra child
    "(o 1 1 1 (v) (v)) x",            # trailing token
    "(o 1 1 1 (v) (v) x",             # a token in place of the last ')'
    "(o 1 1 1 (v) (v)))",             # trailing close
    "(o 1 1 1 (v) (v)",               # unclosed node
    "(o 1 1 1 (o 1 1 1 (v) (v) (v)))",  # child counts off on both nodes
    "(x)",
    "(v",
    "",
])
def test_parse_malformed_text(body):
    with pytest.raises(RwmsoError):
        parse_tree_from_text("t=1\n" + body)


_ONE = (Relabeling((1,)),) * 3
_ZERO = (Relabeling((0,)),) * 3


@pytest.mark.parametrize("ops,code", [
    ((_ONE,), (-1, -1, 1)),           # operator index out of range
    ((_ONE,), (-1, -1, -2)),
    ((_ONE,), (-1, 0)),               # missing child
    ((_ONE,), (-1, -1, -1, 0)),       # extra child
    ((_ONE,), (-1, -1, 0, 0)),
    ((), ()),                         # no tree
    ((_ONE,), (-1,)),                 # unused operator
    ((_ONE, _ONE), (-1, -1, 0, -1, 1)),   # operators not distinct
    ((_ONE, _ZERO), (-1, -1, 1, -1, 0)),  # not in order of first use
    (((Relabeling((1, 0)),) * 3,), (-1, -1, 0)),  # wrong width
    (((1,), (1,), (1,)), (-1, -1, 0)),            # not relabelings
    ((_ONE[:2],), (-1, -1, 0)),                   # two matrices
    ((_ONE,), (-1, -1, "0")),
])
def test_malformed_code(ops, code):
    with pytest.raises(RwmsoError):
        ParseTree(1, ops, code)


def test_generate_leaf():
    g = generate_graph(ParseTree(2, (), (-1,)))
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
            assert tree.code.count(-1) == n
            assert tree.size() == 2 * n - 1
    for family in ("path", "star", "complete"):
        assert family_tree(family, 6).code == (-1,) + (-1, 0) * 5
    assert family_tree("cycle", 3).code == (-1, -1, 0, -1, 1)
    assert family_tree("cycle", 5).code == (-1, -1, 0, -1, 1, -1, 1, -1, 2)
    assert family_tree("cograph-join", 4).code == (-1, -1, 0, -1, -1, 0, 0)


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
    # caterpillars on 2^16 leaves, deep to the left (the path family) and
    # to the right: text, equality, hash, repr and fold run without
    # recursion
    n = 2 ** 16
    left_deep = family_tree("path", n, t=2)
    right_deep = ParseTree(2, left_deep.ops, (-1,) * n + (0,) * (n - 1))
    for tree in (left_deep, right_deep):
        assert tree.size() == 2 * n - 1 and tree.code.count(-1) == n
        text = format_parse_tree(tree)
        again = parse_tree_from_text(text)
        assert again == tree and hash(again) == hash(tree) and repr(again) == repr(tree)
        assert format_parse_tree(again) == text
        assert fold(tree, 1, lambda op: lambda left, right: left + right) == n
        assert fold(tree, 0, lambda op: lambda left, right: max(left, right) + 1) == n - 1
        assert model_check(tree, parse_formula("Ex x. Ex y. adj(x,y)"))


def test_leaf_order_is_vertex_order():
    # star: first leaf is the center, so vertex 0 has degree n-1
    g = generate_graph(family_tree("star", 6))
    assert g.adj[0].bit_count() == 5


def _collections_started(run):
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        run()
    finally:
        gc.callbacks.remove(hook)
    return started


def test_postorder_walk_leaves_nothing_for_the_collector():
    # the fold keeps one stack of results and reads the code as ints, so
    # on a caterpillar with int results it allocates nothing the garbage
    # collector tracks and no collection starts; the reader keeps ints
    # only per node, so neither does it
    tree = family_tree("path", 2 ** 14)
    leaves = []
    assert _collections_started(lambda: leaves.append(
        fold(tree, 1, lambda op: lambda left, right: left + right))) == []
    assert leaves == [2 ** 14]
    for family in ("path", "cycle"):
        text = format_parse_tree(family_tree(family, 2 ** 14))
        assert _collections_started(lambda: parse_tree_from_text(text)) == [], family


def _read_both(text):
    """Each reader's tree, or RwmsoError; any other exception escapes."""
    out = []
    for read in (parse_tree_from_text, reference_parse_tree_from_text):
        try:
            out.append(read(text))
        except RwmsoError:
            out.append(RwmsoError)
    return out


def test_chunk_reader_agrees_with_the_token_reader():
    rng = random.Random(11)
    trees = [family_tree(f, n, t) for f in FAMILIES for n in (3, 5, 8) for t in (2, 3)]
    trees += [random_parse_tree(rng, rng.randint(1, 7), rng.choice((1, 2, 3)))
              for _ in range(40)]
    texts = [format_parse_tree(tree) for tree in trees]
    texts += [variant for text in texts for variant in (
        text.replace("(", "( ").replace(")", " )"), text.replace(" ", "\t"),
        text.replace(" ", "\n"), text.replace(" ", "   "))]
    # single edits: delete, insert or duplicate one character
    alphabet = "()vo;0123456789 "
    edits = []
    for _ in range(2000):
        text = rng.choice(texts)
        i = rng.randrange(len(text))
        edits.append(rng.choice((text[:i] + text[i + 1:],
                                 text[:i] + rng.choice(alphabet) + text[i:],
                                 text[:i] + text[i] + text[i:])))
    texts += edits
    read = failed = 0
    for text in texts:
        new, old = _read_both(text)
        assert new == old, text
        read += new is not RwmsoError
        failed += new is RwmsoError
    assert read > len(trees) * 5 and failed > 1000, (read, failed)
