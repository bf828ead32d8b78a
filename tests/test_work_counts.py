"""The work of the fold, the game and LinEMSO on the benchmark's inputs,
pinned call for call.

The hot loops of tree_cross_product, Verdicts.at and LinEMSO's pair loop
may be rewritten for speed, never for different work: each op below must
intern, combine labels, call the cross product and evaluate game
positions exactly as often as the pinned counts say.  The counts are
taken by wrappers around the library's names, as perfbench's tracer
takes them, so no library line counts anything.
"""

import pytest

from rwmso import (GameStats, LinEMSOProblem, char_tree_from_parse_tree, chartree,
                   family_tree, game_on_tree, linemso, parse_formula, solve_linemso)
from rwmso.chartree import RCForest
from rwmso.games import check_collapse
from rwmso.linemso import DPStats
from rwmso.logic import move_budget

from common import catalog
from test_linemso import PROBLEMS

# The ops ask perfbench's check-deep sentences (workloads.QR3) and its
# optimize problems (oracle.PROBLEMS, here test_linemso.PROBLEMS).  Per
# check op: (answer, len(forest), intern calls, rename_combine
# calls, cross-product calls from chartree and from linemso, game
# evaluations); per optimize op: (value, the same calls and evaluations,
# then DPStats: peak_states, collapsed, pair_products, peak_interned,
# which is len(forest))
CHECKS = {
    ("two-colorable", "path", 40): (True, 102, 299, 48, 7, 0, 67),
    ("independent-set-meets-all-edges", "path", 40): (True, 102, 299, 48, 7, 0, 123),
    ("has-triangle", "path", 40): (False, 138, 483, 93, 8, 0, 188),
    ("two-colorable", "cycle", 16): (True, 202, 726, 178, 10, 0, 36),
    ("independent-set-meets-all-edges", "cycle", 16): (True, 202, 726, 178, 10, 0, 66),
    ("has-triangle", "cycle", 16): (False, 268, 1115, 399, 11, 0, 55),
}
OPTIMIZES = {
    ("mis", "path", 40): (20, 873, 50, 0, 148, 159, 36, 29, 2434, 190),
    ("vc", "path", 40): (20, 873, 50, 0, 148, 155, 36, 29, 2434, 190),
    ("mds", "path", 40): (14, 1539, 53, 0, 334, 220, 105, 25, 6830, 301),
    ("mis", "cycle", 8): (4, 2157, 191, 0, 172, 48, 34, 41, 172, 380),
    ("vc", "cycle", 8): (4, 2157, 191, 0, 172, 46, 34, 41, 172, 380),
    ("mds", "cycle", 8): (3, 3531, 203, 0, 350, 43, 81, 46, 350, 555),
}


@pytest.fixture
def work(monkeypatch):
    """Counts of the library calls, reset per op; evaluations are the
    GameStats that linemso's root games receive."""
    calls = dict.fromkeys(("intern", "rename_combine", "chartree.tree_cross_product",
                           "linemso.tree_cross_product"), 0)
    stats = GameStats()

    def count(owner, name, key):
        fn = getattr(owner, name)

        def counting(*args):
            calls[key] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counting)

    count(RCForest, "intern", "intern")
    count(chartree, "rename_combine", "rename_combine")
    count(chartree, "tree_cross_product", "chartree.tree_cross_product")
    count(linemso, "tree_cross_product", "linemso.tree_cross_product")
    game = linemso.game_on_tree
    monkeypatch.setattr(linemso, "game_on_tree", lambda *args: game(*args, stats=stats))

    def reset():
        calls.update(dict.fromkeys(calls, 0))
        stats.evaluations = 0
        return calls, stats
    return reset


def test_check_work_is_pinned(work):
    sentences = dict(catalog(t=2))
    got = {}
    for name, family, n in CHECKS:
        phi = sentences[name]
        calls, stats = work()
        forest = RCForest()
        rc = char_tree_from_parse_tree(family_tree(family, n, 2), move_budget(phi), forest,
                                       check_collapse(phi))
        answer = game_on_tree(rc, phi, stats=stats)
        got[name, family, n] = (answer, len(forest), *calls.values(), stats.evaluations)
    assert got == CHECKS


def test_optimize_work_is_pinned(work):
    texts = {name: (text, direction) for name, text, direction in PROBLEMS}
    got = {}
    for name, family, n in OPTIMIZES:
        text, direction = texts[name]
        calls, stats = work()
        dp = DPStats()
        result = solve_linemso(family_tree(family, n, 2),
                               LinEMSOProblem(parse_formula(text, 2), (1,), direction), dp)
        got[name, family, n] = (result.value, *calls.values(), stats.evaluations,
                                dp.peak_states, dp.collapsed, dp.pair_products,
                                dp.peak_interned)
    assert got == OPTIMIZES
