"""Command-line interface: batch model checking, optimization, width
computation, generators, and the linearity benchmark.

Exit codes: 0 = true/feasible/ok, 1 = false/infeasible, 2 = error.
oracle and rankwidth guard their brute-force input size, and --force
lifts that guard.  Every command that builds characteristic trees stops
with exit 2 once its forest passes chartree.MAX_NODES interned nodes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

from .chartree import RCForest, RCTree, char_tree_from_parse_tree, rc_dump
from .errors import RwmsoError
from .games import check_collapse, evaluate, game_on_tree
from .linemso import DPStats, LinEMSOProblem, solve_linemso
from .logic import (Formula, free_variables, is_sentence, move_budget,
                    parse_formula, quantifier_rank)
from .parsetree import (FAMILIES, ParseTree, family_tree, format_parse_tree,
                        parse_tree_from_text)
from .rankdec import MAX_EXACT_N, exact_rankwidth
from .structures import read_graph

SCHEMA = "rwmso-report/1"
ORACLE_MAX_N = 12
ORACLE_MAX_SET_QUANTIFIERS = 2


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise RwmsoError(f"{path} is not UTF-8 text: {exc}") from None


def _read_formula(args, t: int | None) -> Formula:
    text = _read_text(args.formula_file) if args.formula_file else args.formula
    return parse_formula(text, t)


def _read_parse_tree(path: str) -> tuple[ParseTree, float]:
    start = time.perf_counter()
    tree = parse_tree_from_text(_read_text(path))
    return tree, time.perf_counter() - start


def _read_graph(path: str):
    return read_graph(_read_text(path))


def _report(args, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))


def _guard(args, exceeded: bool, message: str) -> None:
    """Raise unless --force was given; forcing still warns."""
    if not exceeded:
        return
    if not args.force:
        raise RwmsoError(f"{message}; use --force to override")
    print(f"warning: {message}; continuing due to --force", file=sys.stderr)


def _tree_report(q: int, tree: ParseTree, rc: RCTree, elapsed: float) -> dict:
    """Report fields shared by every command that folds a char tree."""
    return {"q": q, "moveBudget": list(rc.budget), "t": tree.t,
            "parseTreeNodes": tree.size(),
            "charTreeNodes": rc.size(), "peakInterned": len(rc.forest),
            "internedLabels": rc.forest.num_labels(), "wallTimeSec": elapsed}


def cmd_check(args) -> int:
    tree, parse_s = _read_parse_tree(args.parse_tree)
    phi = _read_formula(args, tree.t)
    if not is_sentence(phi):
        fv = free_variables(phi)
        raise RwmsoError(
            f"formula has free variables {fv.objects + fv.sets}; "
            "use 'optimize' for formulas with free set variables")
    q = quantifier_rank(phi)
    start = time.perf_counter()
    # games.model_check, with the tree kept for the report
    rc = char_tree_from_parse_tree(tree, move_budget(phi), RCForest(), check_collapse(phi))
    answer = game_on_tree(rc, phi)
    elapsed = time.perf_counter() - start
    print("true" if answer else "false")
    _report(args, {"command": "check", "answer": answer, "parseSec": parse_s,
                   "collapsedNodes": rc.forest.collapsed,
                   **_tree_report(q, tree, rc, elapsed)})
    return 0 if answer else 1


def cmd_oracle(args) -> int:
    text = _read_graph(args.graph)
    phi = _read_formula(args, text.t)
    if not is_sentence(phi):
        raise RwmsoError("the oracle checks sentences only")
    # evaluate's cost multiplies by 2^n per set quantifier nested on a path
    caps = move_budget(phi)
    nsq = len(caps) - 1
    _guard(args, text.n > ORACLE_MAX_N or nsq > ORACLE_MAX_SET_QUANTIFIERS,
           f"brute force on n={text.n} with {nsq} nested set quantifiers is too big")
    if text.n <= ORACLE_MAX_N:  # past it, only --force gets here, and the int is huge
        # and by n per point quantifier: one branch reaching level (m, p)
        # visits n^m 2^(n p) assignments, held to the set rule's worst case
        steps = max(text.n ** m << text.n * p for p, m in enumerate(caps))
        cap = ORACLE_MAX_N * ORACLE_MAX_SET_QUANTIFIERS
        _guard(args, steps > 1 << cap,
               f"brute force on n={text.n} visits 2^{math.log2(steps):.1f} assignments "
               f"on one branch, more than 2^{cap}")
    graph = text.build()
    start = time.perf_counter()
    answer = evaluate(graph, phi)
    elapsed = time.perf_counter() - start
    print("true" if answer else "false")
    _report(args, {"command": "oracle", "answer": answer,
                   "wallTimeSec": elapsed})
    return 0 if answer else 1


def cmd_optimize(args) -> int:
    tree, parse_s = _read_parse_tree(args.parse_tree)
    phi = _read_formula(args, tree.t)
    try:
        weights = tuple(int(w) for w in args.weights.split(","))
    except ValueError:
        raise RwmsoError(
            f"--weights must be comma-separated integers, got {args.weights!r}") from None
    problem = LinEMSOProblem(phi, weights, args.direction)
    q = quantifier_rank(phi) + len(weights)
    stats = DPStats()
    start = time.perf_counter()
    result = solve_linemso(tree, problem, stats)
    elapsed = time.perf_counter() - start
    budget_fields = {"q": q, "moveBudget": list(problem.budget),
                     "dpPeakStates": stats.peak_states,
                     "dpStatesDropped": stats.states_dropped,
                     "dpPairProducts": stats.pair_products,
                     "peakInterned": stats.peak_interned, "parseSec": parse_s}
    if result is None:
        print("INFEASIBLE")
        _report(args, {"command": "optimize", "answer": None, **budget_fields,
                       "wallTimeSec": elapsed})
        return 1
    sets = [sorted(u) for u in result.witness]
    print(f"value {result.value}")
    for var, u in zip(problem.set_vars, sets):
        print(f"{var} = {{{', '.join(map(str, u))}}}")
    _report(args, {"command": "optimize", "answer": result.value, **budget_fields,
                   "witness": sets, "wallTimeSec": elapsed})
    return 0


def cmd_rankwidth(args) -> int:
    text = _read_graph(args.graph)
    _guard(args, text.n > MAX_EXACT_N, f"exact rankwidth on n={text.n} vertices is too big")
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


def cmd_chartree(args) -> int:
    tree, _ = _read_parse_tree(args.parse_tree)
    start = time.perf_counter()
    rc = char_tree_from_parse_tree(tree, args.q)
    elapsed = time.perf_counter() - start
    fields = _tree_report(args.q, tree, rc, elapsed)
    print(f"parse tree nodes {fields['parseTreeNodes']}")
    print(f"char tree nodes {fields['charTreeNodes']}")
    print(f"interned total {fields['peakInterned']}")
    if args.dump:
        sys.stdout.write(rc_dump(rc.forest, rc.root))
    _report(args, {"command": "chartree", "answer": fields["charTreeNodes"], **fields})
    return 0


def cmd_gen(args) -> int:
    tree = family_tree(args.family, args.n, args.t)
    text = format_parse_tree(tree)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_qrank(args) -> int:
    phi = _read_formula(args, None)  # the rank needs no label width
    print(quantifier_rank(phi))
    return 0


@dataclass
class BenchRow:
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


def _add_formula_args(p):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--formula", help="formula text")
    grp.add_argument("--formula-file", help="file containing the formula")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="rwmso",
        description="MSO1 model checking on graphs given as t-labeled parse trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide G |= phi from a parse tree")
    p.add_argument("--parse-tree", required=True)
    _add_formula_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="decide G |= phi by brute force")
    p.add_argument("--graph", required=True)
    _add_formula_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("optimize", help="LinEMSO optimization over a parse tree")
    p.add_argument("--parse-tree", required=True)
    _add_formula_args(p)
    p.add_argument("--weights", required=True, help="comma-separated integers")
    p.add_argument("--direction", choices=("max", "min"), default="max")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("rankwidth", help="exact rankwidth (set DP, small graphs)")
    p.add_argument("--graph", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_rankwidth)

    p = sub.add_parser("chartree", help="build a characteristic tree, print stats")
    p.add_argument("--parse-tree", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dump", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_chartree)

    p = sub.add_parser("gen", help="write a parse tree for a graph family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("qrank", help="print the quantifier rank of a formula")
    _add_formula_args(p)
    p.set_defaults(func=cmd_qrank)

    p = sub.add_parser("bench", help="construction-time sweep over a family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n-list", required=True, help="comma-separated sizes")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RwmsoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller input, formula or depth",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
