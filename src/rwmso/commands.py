"""The commands that check and optimize never run: the brute-force oracle,
exact rankwidth and the construction-time sweep.

cli imports this module only inside those commands, so a check or an
optimize compiles none of it, nor the direct evaluator, the graph text
format or rankdec, which no other command uses.
"""

from __future__ import annotations

import math
import sys
import time
from typing import NamedTuple

from .chartree import RCForest, char_tree_from_parse_tree
from .cli import _read_formula, _read_text, _report
from .direct import evaluate
from .errors import RwmsoError
from .graphtext import read_graph
from .logic import is_sentence, move_budget
from .parsetree import family_tree
from .rankdec import MAX_EXACT_N, exact_rankwidth

ORACLE_MAX_N = 12
ORACLE_MAX_SET_QUANTIFIERS = 2


def _read_graph(path: str):
    return read_graph(_read_text(path))


def _guard(args, message: str) -> None:
    """Refuse an input past a brute-force limit: raise unless --force was
    given; forcing still warns.  Called once the limit is passed, so the
    message is built only then."""
    if not args.force:
        raise RwmsoError(f"{message}; use --force to override")
    print(f"warning: {message}; continuing due to --force", file=sys.stderr)


def cmd_oracle(args) -> int:
    text = _read_graph(args.graph)
    phi = _read_formula(args, text.t)
    if not is_sentence(phi):
        raise RwmsoError("the oracle checks sentences only")
    # evaluate's cost multiplies by 2^n per set quantifier nested on a path
    caps = move_budget(phi)
    nsq = len(caps) - 1
    if text.n > ORACLE_MAX_N or nsq > ORACLE_MAX_SET_QUANTIFIERS:
        _guard(args, f"brute force on n={text.n} with {nsq} nested set quantifiers is too big")
    if text.n <= ORACLE_MAX_N:  # past it, only --force gets here, and the int is huge
        # and by n per point quantifier: one branch reaching level (m, p)
        # visits n^m 2^(n p) assignments, held to the set rule's worst case
        steps = max(text.n ** m << text.n * p for p, m in enumerate(caps))
        cap = ORACLE_MAX_N * ORACLE_MAX_SET_QUANTIFIERS
        if steps > 1 << cap:
            _guard(args, f"brute force on n={text.n} visits 2^{math.log2(steps):.1f} "
                   f"assignments on one branch, more than 2^{cap}")
    graph = text.build()
    start = time.perf_counter()
    answer = evaluate(graph, phi)
    elapsed = time.perf_counter() - start
    print("true" if answer else "false")
    _report(args, {"command": "oracle", "answer": answer,
                   "wallTimeSec": elapsed})
    return 0 if answer else 1


def cmd_rankwidth(args) -> int:
    text = _read_graph(args.graph)
    if text.n > MAX_EXACT_N:
        _guard(args, f"exact rankwidth on n={text.n} vertices is too big")
    graph = text.build()
    start = time.perf_counter()
    width, witness = exact_rankwidth(graph, force=True)
    elapsed = time.perf_counter() - start
    print(f"rankwidth {width}")
    edges = [[a, b] for a, b in witness.edges]
    leaf_map = {str(v): node for v, node in sorted(witness.leaf_map.items())}
    print(f"decomposition nodes={witness.num_nodes} edges={edges} leaves={leaf_map}")
    _report(args, {"command": "rankwidth", "answer": width,
                   "decompositionEdges": edges, "leafMap": leaf_map,
                   "wallTimeSec": elapsed})
    return 0


class BenchRow(NamedTuple):
    n: int
    parse_tree_nodes: int
    char_tree_nodes: int
    peak_interned: int
    seconds: float                   # the best of the repeats
    samples: tuple[float, ...] = ()  # each repeat's time, in run order


def run_bench(family: str, n_list: list[int], q: int, t: int,
              repeats: int = 3) -> list[BenchRow]:
    """Construction time and interned-node counts per graph size.

    Each timed fold gets a fresh forest, warmed by one fixed small fold
    (path n=16) whose fixed cost would hide the per-node cost of small
    trees.  Each repeat times every size in turn; a row has the best time
    and every repeat's, and peak_interned counts the warm-up's nodes too.
    """
    if repeats < 1:
        raise RwmsoError(f"--repeats must be at least 1, got {repeats}")
    trees = [family_tree(family, n, t) for n in n_list]
    warm_up = family_tree("path", 16, t)
    samples: list[list[float]] = [[] for _ in trees]
    for _ in range(repeats):
        rcs = []
        for tree, times in zip(trees, samples):
            forest = RCForest()
            char_tree_from_parse_tree(warm_up, q, forest)
            start = time.perf_counter()
            rcs.append(char_tree_from_parse_tree(tree, q, forest))
            times.append(time.perf_counter() - start)
    return [BenchRow(n, tree.size(), rc.size(), len(rc.forest), min(times), tuple(times))
            for n, tree, rc, times in zip(n_list, trees, rcs, samples)]


def _fit(rows: list[BenchRow]) -> tuple[float, float]:
    """Least-squares slope and correlation of time against |T|."""
    xs = [float(r.parse_tree_nodes) for r in rows]
    ys = [r.seconds for r in rows]
    k = len(xs)
    mx, my = sum(xs) / k, sum(ys) / k
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    slope = sxy / sxx if sxx else 0.0
    corr = sxy / (sxx * syy) ** 0.5 if sxx and syy else 0.0
    return slope, corr


def cmd_bench(args) -> int:
    import statistics  # here, its one user, so no other command pays its import

    try:
        n_list = [int(x) for x in args.n_list.split(",")]
    except ValueError:
        raise RwmsoError(
            f"--n-list must be comma-separated integers, got {args.n_list!r}") from None
    rows = run_bench(args.family, n_list, args.q, args.t, args.repeats)
    print("n,parse_tree_nodes,char_tree_nodes,peak_interned,seconds")
    for r in rows:
        print(f"{r.n},{r.parse_tree_nodes},{r.char_tree_nodes},"
              f"{r.peak_interned},{r.seconds:.6f}")
    slope, corr = _fit(rows)
    print(f"# time ~ slope * |T|: slope={slope:.3e} s/node, correlation={corr:.4f}")
    # per pair of sizes, the median over repeats of their time ratio within
    # one repeat, as criterion 6 takes it; best-of times mix repeats
    for prev, cur in zip(rows, rows[1:]):
        ratios = [b / a for a, b in zip(prev.samples, cur.samples) if a > 0]
        if ratios:
            print(f"# n {prev.n} -> {cur.n}: time ratio {statistics.median(ratios):.2f}")
    return 0
