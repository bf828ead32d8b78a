import random

import pytest

from rwmso import (BranchDecomposition, build_structure, cut_rank,
                   exact_rankwidth, family_tree, generate_graph)
from rwmso.errors import RwmsoError, ScaleGuardError

from common import all_structures, decomposition_width, naive_rank, random_structure

P4 = build_structure(4, [(0, 1), (1, 2), (2, 3)])


def test_cut_rank_examples():
    assert cut_rank(P4, []) == 0
    for n in (2, 3, 4, 5):
        kn = generate_graph(family_tree("complete", n))
        for size in range(1, n):
            assert cut_rank(kn, list(range(size))) == 1
    assert cut_rank(P4, [0, 1]) == 1
    assert cut_rank(P4, [0, 2]) == 2


def test_cut_rank_matches_naive_rank():
    rng = random.Random(7)
    for _ in range(40):
        g = random_structure(rng, 6, 1)
        y = [v for v in range(6) if rng.random() < 0.5]
        comp = [v for v in range(6) if v not in y]
        rows = [[1 if g.has_edge(u, v) else 0 for v in comp] for u in y]
        assert cut_rank(g, y) == naive_rank(rows)


def test_cut_rank_symmetry_exhaustive_small():
    for n in (2, 3, 4):
        for g in all_structures(n, 1):
            for mask in range(1 << n):
                y = [v for v in range(n) if (mask >> v) & 1]
                comp = [v for v in range(n) if not (mask >> v) & 1]
                assert cut_rank(g, y) == cut_rank(g, comp)


def test_cut_rank_bounds():
    rng = random.Random(9)
    for _ in range(30):
        g = random_structure(rng, 6, 1)
        for mask in range(1 << 6):
            y = [v for v in range(6) if (mask >> v) & 1]
            assert 0 <= cut_rank(g, y) <= min(len(y), 6 - len(y))


def _path_caterpillar(n):
    """Decomposition of a path in path order: leaves hang off a spine."""
    # nodes: 0..n-1 leaves, n..2n-3 spine
    edges = [(0, n), (n + (n - 3), n - 1)] if n > 2 else [(0, 1)]
    if n > 2:
        for i in range(1, n - 1):
            edges.append((i, n + i - 1))
        for i in range(n - 3):
            edges.append((n + i, n + i + 1))
    return BranchDecomposition(max(2 * n - 2, 2), edges, {v: v for v in range(n)})


def test_decomposition_width():
    k2 = build_structure(2, [(0, 1)])
    d = BranchDecomposition(2, [(0, 1)], {0: 0, 1: 1})
    assert decomposition_width(k2, d) == 1
    edgeless = build_structure(4, [])
    assert decomposition_width(edgeless, _path_caterpillar(4)) == 0
    assert decomposition_width(P4, _path_caterpillar(4)) == 1


def test_decomposition_validation():
    k2 = build_structure(2, [(0, 1)])
    with pytest.raises(RwmsoError):
        decomposition_width(k2, BranchDecomposition(2, [(0, 1)], {0: 0}))
    bad_degree = BranchDecomposition(
        5, [(0, 4), (1, 4), (2, 4), (3, 4)], {0: 0, 1: 1, 2: 2, 3: 3})
    with pytest.raises(RwmsoError):
        decomposition_width(build_structure(4, []), bad_degree)


def test_exact_rankwidth_families():
    for n in (2, 3, 4, 5, 6):
        kn = generate_graph(family_tree("complete", n))
        assert exact_rankwidth(kn)[0] == 1
        pn = generate_graph(family_tree("path", n))
        assert exact_rankwidth(pn)[0] == 1
    c5 = generate_graph(family_tree("cycle", 5))
    width, witness = exact_rankwidth(c5)
    assert width == 2
    assert decomposition_width(c5, witness) == 2


def test_exact_rankwidth_witness_attains_width():
    rng = random.Random(11)
    for _ in range(10):
        g = random_structure(rng, 5, 1)
        width, witness = exact_rankwidth(g)
        assert decomposition_width(g, witness) == width


def test_exact_rankwidth_le_parse_tree_width():
    # one direction of the parse-tree/rankwidth correspondence
    for family in ("path", "cycle", "complete", "star",
                   "cograph-union", "cograph-join"):
        lo = 3 if family == "cycle" else 2
        for n in range(lo, 9):
            tree = family_tree(family, n)
            g = generate_graph(tree)
            assert exact_rankwidth(g)[0] <= tree.t


def test_exact_rankwidth_conventions_and_guard():
    assert exact_rankwidth(build_structure(1, []))[0] == 0
    assert exact_rankwidth(build_structure(0, []))[0] == 0
    with pytest.raises(ScaleGuardError):
        exact_rankwidth(build_structure(9, []))


def test_cut_rank_refuses_a_vertex_outside_the_universe():
    with pytest.raises(RwmsoError) as err:
        cut_rank(build_structure(2, [(0, 1)]), [0, 2])
    assert err.type is RwmsoError and str(err.value) == "vertex 2 outside universe"
