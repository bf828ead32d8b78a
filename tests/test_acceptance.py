"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its headline numbers (visible with
pytest -s); a failed assertion means the criterion does not hold.
Where a criterion quantifies over an infinite or astronomically large
family ("every parse tree", "all graphs"), the test runs the exhaustive
core that fits the stated budget and a seeded random sample of the
rest; the sampling is spelled out in the docstrings.
"""

import itertools
import random
import statistics
import time

from rwmso import (Assignment, LinEMSOProblem, Structure, build_structure,
                   evaluate, family_tree, game_on_tree, generate_graph,
                   model_check, parse_formula, quantifier_rank, solve_linemso)
from rwmso.chartree import RCForest, RCTree, char_tree_from_parse_tree, tree_cross_product
from rwmso.cli import run_bench
from rwmso.parsetree import FAMILIES
from rwmso.rankdec import cut_rank, exact_rankwidth
from rwmso.structures import Relabeling, compose

from common import (all_structures, brute_force_linemso, catalog, full_char_tree,
                    full_tree_game, merge_full_tree, permuted,
                    random_parse_tree, random_relabeling, random_structure,
                    reference_char_tree, size_bound, to_nnf)


def _family_corpus(max_n, widths=(None, 2)):
    trees = []
    for family in FAMILIES:
        lo = 3 if family == "cycle" else 1
        for n in range(lo, max_n + 1):
            for t in widths:
                if family == "cycle" and t is None:
                    t = 2
                tree = family_tree(family, n, t)
                if tree not in trees:
                    trees.append(tree)
    return trees


def test_criterion_1_oracle_equivalence():
    """End to end at desk scale: model_check equals the brute-force
    semantics on every corpus tree (<= 5 leaves, t <= 2) and every
    catalog sentence with qr <= 3.

    Corpus: all family trees with n <= 5 at native and padded width,
    plus 40 seeded random parse trees.
    """
    start = time.time()
    rng = random.Random(101)
    trees = _family_corpus(5)
    trees += [random_parse_tree(rng, rng.randint(1, 5), t)
              for t in (1, 2) for _ in range(20)]
    sentences = catalog(max_qr=3)
    assert len(sentences) >= 10
    cases = 0
    for tree in trees:
        graph = generate_graph(tree)
        for name, phi in sentences:
            assert model_check(tree, phi) == evaluate(graph, phi), (name, tree)
            cases += 1
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE 1 (oracle equivalence): PASS — {cases} cases, "
          f"{len(trees)} trees x {len(sentences)} sentences in {elapsed:.1f}s")


def test_criterion_2_cross_product_soundness():
    """tree_cross_product equals the definitional construction: all
    t=1 compositions with |A1|+|A2| <= 4 and all 8 relabeling triples,
    at q in {1, 2}; plus 100 seeded random t=2 instances."""
    start = time.time()
    forest = RCForest()
    direct_cache = {}

    def direct(g, q):
        key = (g, q)
        if key not in direct_cache:
            direct_cache[key] = reference_char_tree(forest, g, q)
        return direct_cache[key]

    rels = [Relabeling((0,)), Relabeling((1,))]
    pools = {n: list(all_structures(n, 1)) for n in (1, 2, 3)}
    cases = 0
    for q in (1, 2):
        for n1, n2 in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
            for g1 in pools[n1]:
                for g2 in pools[n2]:
                    for op in itertools.product(rels, repeat=3):
                        got = tree_cross_product(
                            forest, direct(g1, q), direct(g2, q), q, op)
                        assert got == direct(compose(g1, g2, *op), q)
                        cases += 1
    rng = random.Random(202)
    for _ in range(100):
        n1 = rng.randint(1, 3)
        n2 = rng.randint(1, 4 - n1)
        g1, g2 = random_structure(rng, n1, 2), random_structure(rng, n2, 2)
        op = tuple(random_relabeling(rng, 2) for _ in range(3))
        got = tree_cross_product(forest, direct(g1, 2), direct(g2, 2), 2, op)
        assert got == direct(compose(g1, g2, *op), 2)
        cases += 1
    elapsed = time.time() - start
    assert elapsed < 120
    print(f"\nACCEPTANCE 2 (cross-product soundness): PASS — {cases} "
          f"compositions in {elapsed:.1f}s")


def test_criterion_3_game_chain_equivalence():
    """The four evaluators agree pairwise on every structure with at
    most 3 elements (exhaustive at t=1) and depth 2: catalog sentences
    with qr <= 2 plus open formulas under all assignments with
    m + p + qr <= 2.  The evaluators are the semantics (evaluate on
    phi), the game on the structure (evaluate on its NNF), the game on
    the full tree (full_tree_game) and the game on the reduced tree."""
    start = time.time()
    forest = RCForest()
    sentences = [(name, phi, to_nnf(phi)) for name, phi in catalog(max_qr=2)]
    open_cases = [
        ("adj(x, y)", ("x", "y"), ()),
        ("x = y", ("x", "y"), ()),
        ("label1(x)", ("x",), ()),
        ("S(x)", ("x",), ("S",)),
        ("Ex y. adj(x, y)", ("x",), ()),
        ("Ex z. S(z)", (), ("S",)),
    ]
    open_cases = [(parse_formula(text, 1), xs, Xs) for text, xs, Xs in open_cases]
    checked = 0
    for n in (0, 1, 2, 3):
        for g in all_structures(n, 1):
            for q in (1, 2):
                rid = reference_char_tree(forest, g, q)
                full = full_char_tree(g, q)
                for name, phi, nnf in sentences:
                    if quantifier_rank(phi) > q:
                        continue
                    want = evaluate(g, phi)
                    assert evaluate(g, nnf) == want, name
                    assert full_tree_game(full, nnf) == want, name
                    assert game_on_tree(RCTree(forest, rid, q), nnf) == want, name
                    checked += 1
            for phi, xs, Xs in open_cases:
                nnf = to_nnf(phi)
                for objs in itertools.product(range(n), repeat=len(xs)):
                    for masks in itertools.product(range(1 << n), repeat=len(Xs)):
                        sets = [frozenset(v for v in range(n) if (m >> v) & 1)
                                for m in masks]
                        alpha = Assignment(objects=dict(zip(xs, objs)),
                                           sets=dict(zip(Xs, sets)))
                        want = evaluate(g, phi, alpha)
                        assert evaluate(g, nnf, alpha) == want
                        f = full_char_tree(g, 2, objs, sets)
                        assert full_tree_game(f, nnf, xs, Xs) == want
                        r = reference_char_tree(forest, g, 2, objs, sets)
                        assert game_on_tree(RCTree(forest, r, 2), nnf, xs, Xs) == want
                        checked += 1
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 3 (game-chain equivalence): PASS — {checked} cases "
          f"across {sum(1 for n in (0, 1, 2, 3) for _ in all_structures(n, 1))} "
          f"structures in {elapsed:.1f}s")


def test_criterion_4_q_equivalence_characterization():
    """rc_q separates K2 from 2.K1 (witnessed by the has-edge sentence)
    and is invariant under re-presenting a graph with permuted ids."""
    forest = RCForest()
    k2 = build_structure(2, [(0, 1)])
    two = build_structure(2, [])
    id_k2 = reference_char_tree(forest, k2, 2)
    id_two = reference_char_tree(forest, two, 2)
    assert id_k2 != id_two
    has_edge = parse_formula("Ex x. Ex y. adj(x,y)")
    assert evaluate(k2, has_edge) and not evaluate(two, has_edge)
    assert game_on_tree(RCTree(forest, id_k2, 2), to_nnf(has_edge))
    assert not game_on_tree(RCTree(forest, id_two, 2), to_nnf(has_edge))

    rng = random.Random(303)
    pairs = 0
    for n in (1, 2, 3, 4):
        graphs = [random_structure(rng, n, rng.choice((1, 2))) for _ in range(8)]
        for g in graphs:
            for perm in itertools.permutations(range(n)):
                h = permuted(g, list(perm))
                for q in (1, 2):
                    assert reference_char_tree(forest, g, q) == \
                        reference_char_tree(forest, h, q)
                pairs += 1
    print(f"\nACCEPTANCE 4 (q-equivalence characterization): PASS — "
          f"K2 vs 2.K1 separated; {pairs} isomorphic presentations identical")


def test_criterion_5_two_element_reduction():
    """Two-element empty-vocabulary structure at depth 2: choosing
    either element (or either singleton set) gives identical reduced
    trees, and the root subtree count equals an independent merge of
    the full move tree."""
    forest = RCForest()
    a = Structure(2, 0, (0, 0), (0, 0))
    root = reference_char_tree(forest, a, 2)
    node = forest.node(root)
    set_a1 = reference_char_tree(forest, a, 2, (), [{0}])
    set_a2 = reference_char_tree(forest, a, 2, (), [{1}])
    assert set_a1 == set_a2, "redchar(eps,{a1}) must equal redchar(eps,{a2})"
    pnt_a1 = reference_char_tree(forest, a, 2, (0,), [])
    pnt_a2 = reference_char_tree(forest, a, 2, (1,), [])
    assert pnt_a1 == pnt_a2, "redchar(a1,eps) must equal redchar(a2,eps)"
    derived = len(node.point_children) + len(node.set_children)
    _, merged = merge_full_tree(a, full_char_tree(a, 2))
    assert derived == len(merged)
    print(f"\nACCEPTANCE 5 (two-element reduction): PASS — merges hold, "
          f"root has {derived} distinct subtrees (independent merge agrees)")


def test_criterion_6_linearity_evidence():
    """Path family at q=2, t=2, n = 2^8..2^14: interned class count
    stabilizes by n = 2^10 and the wall-time ratio per doubling stays
    within [1.5, 3.0] over the last three doublings."""
    start = time.time()
    sizes = [2 ** k for k in range(8, 15)]
    rows = run_bench("path", sizes, q=2, t=2, repeats=20)
    stable = [r.char_tree_nodes for r in rows if r.n >= 2 ** 10]
    assert len(set(stable)) == 1, f"class counts not stable: {stable}"
    # a repeat times every size back to back, so two sizes' times in one
    # repeat share the host's load of that moment: the median over repeats
    # of their ratio is not moved by load that comes and goes between them
    ratios = [statistics.median(y / x for x, y in zip(a.samples, b.samples))
              for a, b in zip(rows, rows[1:])][-3:]
    for ratio in ratios:
        assert 1.5 <= ratio <= 3.0, f"doubling ratios {ratios}"
    elapsed = time.time() - start
    assert elapsed < 300
    print(f"\nACCEPTANCE 6 (linearity evidence): PASS — classes stable at "
          f"{stable[0]} nodes, last doubling ratios "
          f"{[f'{r:.2f}' for r in ratios]} in {elapsed:.1f}s")


def test_criterion_7_size_bound():
    """Every reduced tree constructed here (q in {1,2}, t in {1,2},
    family trees with n <= 5) stays within the counting bound."""
    forest = RCForest()
    checked = 0
    worst = 0.0
    for t in (1, 2):
        for q in (1, 2):
            bound = size_bound(q, t + 1, 2).tree_size
            assert bound is not None
            for family in FAMILIES:
                if family == "cycle" and t < 2:
                    continue
                lo = 3 if family == "cycle" else 1
                for n in range(lo, 6):
                    rc = char_tree_from_parse_tree(family_tree(family, n, t), q, forest)
                    size = rc.size()
                    assert size <= bound, (family, n, q, t, size, bound)
                    worst = max(worst, size / bound)
                    checked += 1
    print(f"\nACCEPTANCE 7 (size bound): PASS — {checked} trees within bound, "
          f"largest size/bound ratio {worst:.3g}")


def test_criterion_8_linemso():
    """Max independent set and min dominating set match brute-force
    optima (value and valid witness) on all family graphs with n <= 6."""
    start = time.time()
    indep = parse_formula("Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))", 2)
    domin = parse_formula("Ax x. (X(x) | (Ex y. (adj(x,y) & X(y))))", 2)
    problems = [(indep, "max"), (domin, "min")]
    solved = 0
    for family in FAMILIES:
        lo = 3 if family == "cycle" else 1
        for n in range(lo, 7):
            tree = family_tree(family, n)
            graph = generate_graph(tree)
            for phi, direction in problems:
                problem = LinEMSOProblem(phi, (1,), direction)
                result = solve_linemso(tree, problem)
                want = brute_force_linemso(graph, phi, problem.set_vars,
                                           (1,), direction)
                assert result is not None and want is not None
                assert result.value == want[0], (family, n, direction)
                alpha = Assignment(sets={problem.set_vars[0]: result.witness[0]})
                assert evaluate(graph, phi, alpha)
                assert len(result.witness[0]) == result.value
                solved += 1
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE 8 (LinEMSO): PASS — {solved} optimizations match "
          f"brute force in {elapsed:.1f}s")


def test_criterion_9_rankwidth_oracle():
    """exact_rankwidth hits the known widths; cut-rank symmetry holds
    for every Y on every graph with n <= 5 (exhaustive) plus all family
    graphs and 50 seeded random graphs at n = 6."""
    for n in range(2, 7):
        assert exact_rankwidth(generate_graph(family_tree("complete", n)))[0] == 1
        assert exact_rankwidth(generate_graph(family_tree("path", n)))[0] == 1
    assert exact_rankwidth(generate_graph(family_tree("cycle", 5)))[0] == 2

    rng = random.Random(404)
    graphs = []
    for n in range(0, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for edge_mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (edge_mask >> i) & 1]
            graphs.append(build_structure(n, edges))
    graphs += [generate_graph(family_tree(f, 6)) for f in FAMILIES]
    graphs += [random_structure(rng, 6, 1) for _ in range(50)]
    cuts = 0
    for g in graphs:
        for mask in range(1 << g.n):
            y = [v for v in range(g.n) if (mask >> v) & 1]
            comp = [v for v in range(g.n) if not (mask >> v) & 1]
            assert cut_rank(g, y) == cut_rank(g, comp)
            cuts += 1
    print(f"\nACCEPTANCE 9 (rankwidth oracle): PASS — known widths exact, "
          f"cut-rank symmetry on {cuts} cuts across {len(graphs)} graphs")
