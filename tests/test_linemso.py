import pytest

from rwmso import (FAMILIES, Assignment, GameStats, LinEMSOProblem, evaluate,
                   family_tree, generate_graph, parse_formula, quantifier_rank,
                   solve_linemso)
from rwmso import games, linemso
from rwmso.chartree import RCForest, tree_cross_product
from rwmso.errors import RwmsoError
from rwmso.linemso import DPStats
from rwmso.parsetree import fold, leaf_vertex

from common import (brute_force_linemso, reference_char_tree, size_bound, tower_at_least,
                    unpruned_linemso)

INDEP = "Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))"
DOMIN = "Ax x. (X(x) | (Ex y. (adj(x,y) & X(y))))"
VCOVER = "Ax x. Ax y. (!adj(x,y) | X(x) | X(y))"
PROBLEMS = (("mis", INDEP, "max"), ("vc", VCOVER, "min"), ("mds", DOMIN, "min"))


def _check_against_brute_force(tree, text, direction, weights=(1,)):
    phi = parse_formula(text, 2)
    problem = LinEMSOProblem(phi, weights, direction)
    result = solve_linemso(tree, problem)
    if direction == "min":
        # min with weights w is max with -w: value -v and the same witness
        mirror = solve_linemso(tree, LinEMSOProblem(phi, tuple(-w for w in weights), "max"))
        assert (mirror is None) == (result is None)
        if result is not None:
            assert (mirror.value, mirror.witness) == (-result.value, result.witness)
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
    # all three problems build their trees for the move budget (2, 2):
    # two point moves after the preloaded set
    for family in FAMILIES:
        lo = 3 if family == "cycle" else 1
        for n in range(lo, 6):
            tree = family_tree(family, n)
            _check_against_brute_force(tree, INDEP, "max")
            _check_against_brute_force(tree, DOMIN, "min")
            _check_against_brute_force(tree, VCOVER, "min")


def test_negative_weights_select_empty_sets():
    result = solve_linemso(family_tree("path", 4),
                           LinEMSOProblem(parse_formula(INDEP, 1), (-1,), "max"))
    assert result.value == 0 and result.witness == (frozenset(),)


# partition into two independent sets covering everything (2-coloring)
TWO_COLOURS = ("Ax x. ((X(x) | Y(x)) & !(X(x) & Y(x)))"
               " & (Ax x. Ax y. (!adj(x,y) | !X(x) | !X(y)))"
               " & (Ax x. Ax y. (!adj(x,y) | !Y(x) | !Y(y)))")


def test_two_set_variables():
    _check_against_brute_force(family_tree("path", 4), TWO_COLOURS, "max", (1, -1))
    _check_against_brute_force(family_tree("cycle", 4), TWO_COLOURS, "min", (2, 1))


@pytest.mark.parametrize("family,n,value", [("path", 255, 1), ("path", 256, 0),
                                            ("cycle", 64, 0)])
def test_two_set_variables_at_scale(family, n, value):
    # max |X| - |Y| over 2-colourings: the larger colour class wins
    tree = family_tree(family, n)
    result = solve_linemso(tree, LinEMSOProblem(parse_formula(TWO_COLOURS, tree.t),
                                                (1, -1), "max"))
    assert result.value == value
    x, y = result.witness
    assert x | y == frozenset(range(n)) and not x & y
    edges = list(generate_graph(tree).edges())
    assert len(edges) == (n if family == "cycle" else n - 1)
    for u, v in edges:
        assert (u in x) != (v in x) and (u in y) != (v in y)


def test_sentence_with_no_set_variables():
    # l = 0: the witness is the empty int, the shift n1 * 0, and the
    # problem asks only whether the sentence holds
    true_phi = parse_formula("Ex x. Ex y. adj(x,y)", 1)
    false_phi = parse_formula("Ex x. Ex y. Ex z. (adj(x,y) & adj(y,z) & adj(x,z))", 1)
    tree = family_tree("path", 5)
    for direction in ("max", "min"):
        result = solve_linemso(tree, LinEMSOProblem(true_phi, (), direction))
        assert result == linemso.LinEMSOResult(0, ())
        assert solve_linemso(tree, LinEMSOProblem(false_phi, (), direction)) is None


def test_unpack_witness():
    # bit v*3 + i says that vertex v is in set i
    sets = ({0, 2, 5}, {1, 2}, {4, 6})
    packed = sum(1 << (v * 3 + i) for i, s in enumerate(sets) for v in s)
    assert linemso.unpack_witness(packed, 3) == tuple(map(frozenset, sets))
    assert linemso.unpack_witness(0, 3) == (frozenset(),) * 3
    assert linemso.unpack_witness(0, 0) == ()


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
        leaf_struct = leaf_vertex(tree.t)
        leaf_ids = {reference_char_tree(forest, leaf_struct, q, (), (m,))
                    for m in (0, 1)}
        root_ids = fold(tree, leaf_ids, lambda op: lambda left, right: {
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


def test_pair_products_per_vertex_are_constant():
    # the DP half of the linearity gate: state pairs combined for six more
    # path vertices, past the point where the states repeat.  Pruning
    # drops the states of independent set and vertex cover that already
    # hold an edge inside X (or outside it), and those of dominating set
    # with a frozen vertex outside X and no neighbour in it.
    per_six, total = {}, {}
    for name, text, direction in PROBLEMS:
        problem = LinEMSOProblem(parse_formula(text, 2), (1,), direction)
        added = set()
        for n in (64, 128, 256):
            for size in (n, n + 6):
                stats = DPStats()
                solve_linemso(family_tree("path", size, 2), problem, stats)
                total[name, size] = stats.pair_products
            added.add(total[name, n + 6] - total[name, n])
        assert len(added) == 1, name
        per_six[name] = added.pop()
    assert per_six == {"mis": 428, "vc": 428, "mds": 1256}
    for (name, size), count in total.items():
        assert name == "mds" or count < total["mds", size]


def test_dominating_set_states_are_flat_and_pruned():
    # a frozen vertex (label row 0) gains no edge, so a state with one
    # outside X and no neighbour in X is lost; keeping every state, the
    # peaks are 240 on a path and 1,400 on a cycle.  Collapsing keeps the
    # optimum and the first-found witness
    problem = LinEMSOProblem(parse_formula(DOMIN, 2), (1,), "min")
    for family, sizes in (("path", (64, 128)), ("cycle", (32, 64))):
        peaks = []
        for n in sizes:
            stats = DPStats()
            tree = family_tree(family, n, 2)
            got = solve_linemso(tree, problem, stats)
            assert got.value == (n + 2) // 3 and stats.collapsed > 0
            assert got == unpruned_linemso(tree, problem), (family, n)
            peaks.append(stats.peak_states)
        assert peaks[0] == peaks[1] < (240 if family == "path" else 1400), (family, peaks)


def test_pairs_past_stabilisation_are_memo_hits(monkeypatch):
    # once the states repeat, every further state pair is answered from
    # the cross-product memo: six more path vertices add no call
    calls = []
    cross = linemso.tree_cross_product

    def counting(*args):
        calls.append(None)
        return cross(*args)

    monkeypatch.setattr(linemso, "tree_cross_product", counting)
    for name, text, direction in PROBLEMS:
        problem = LinEMSOProblem(parse_formula(text, 2), (1,), direction)
        made = []
        for size in (64, 70):
            calls.clear()
            solve_linemso(family_tree("path", size, 2), problem)
            made.append(len(calls))
        assert made[0] == made[1] > 0, (name, made)


def test_root_games_share_one_memo(monkeypatch):
    # the game half of the linearity gate: all root states of a solve play
    # on one compiled game and one memo, so no (node, position) pair is
    # evaluated twice, and six more path vertices add no evaluation.  The
    # wrapper injects the stats the way perfbench's tracer does, which
    # needs the four-argument call with no stats of its own.
    game = linemso.game_on_tree
    stats = GameStats()
    roots = []

    def counting(*args, **kwargs):
        assert len(args) == 4 and not kwargs
        roots.append(args[0])
        return game(*args, stats=stats)

    monkeypatch.setattr(linemso, "game_on_tree", counting)
    for name, text, direction in (("mis", INDEP, "max"), ("mds", DOMIN, "min")):
        problem = LinEMSOProblem(parse_formula(text, 2), (1,), direction)
        table, *_ = games._compile(problem.phi, (), problem.set_vars)
        evaluations = []
        for size in (64, 70):
            stats.evaluations = 0
            roots.clear()
            solve_linemso(family_tree("path", size, 2), problem)
            reachable = set()
            for tree in roots:
                reachable.update(tree.forest.reachable(tree.root))
            assert 0 < stats.evaluations <= len(reachable) * len(table), (name, size)
            evaluations.append(stats.evaluations)
        assert evaluations[0] == evaluations[1], (name, evaluations)


def test_phi_is_compiled_once_per_solve(monkeypatch):
    # the verdicts and every root game read one compiled table from the
    # forest
    compile_ = games._compile
    compiles = []

    def counting(psi, objs, sets):
        compiles.append(psi)
        return compile_(psi, objs, sets)

    monkeypatch.setattr(games, "_compile", counting)
    for text, direction in ((INDEP, "max"), (VCOVER, "min"), (DOMIN, "min")):
        problem = LinEMSOProblem(parse_formula(text, 2), (1,), direction)
        compiles.clear()
        solve_linemso(family_tree("path", 40, 2), problem)
        assert compiles == [problem.phi], text
