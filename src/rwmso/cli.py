"""Command-line interface: batch model checking, optimization, width
computation, generators, and the linearity benchmark.

Exit codes: 0 = true/feasible/ok, 1 = false/infeasible, 2 = error.
Scale guards can be lifted with --force.  The environment variable
RWMSO_MAX_Q (default 4) caps the characteristic-tree depth.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from .chartree import RCForest, RCTree, char_tree_from_parse_tree, rc_dump
from .errors import RwmsoError
from .games import evaluate, game_on_tree
from .linemso import LinEMSOProblem, solve_linemso
from .logic import (ExistsSet, ForallSet, Formula, free_variables, is_sentence,
                    parse_formula, quantifier_rank, to_nnf)
from .parsetree import (FAMILIES, ParseTree, family_tree, format_parse_tree,
                        parse_tree_from_text)
from .rankdec import MAX_EXACT_N, exact_rankwidth
from .structures import parse_graph

SCHEMA = "rwmso-report/1"
DEFAULT_MAX_Q = 4
ORACLE_MAX_N = 12
ORACLE_MAX_SET_QUANTIFIERS = 2


def _max_q() -> int:
    raw = os.environ.get("RWMSO_MAX_Q", DEFAULT_MAX_Q)
    try:
        return int(raw)
    except ValueError:
        raise RwmsoError(f"RWMSO_MAX_Q={raw!r} is not an integer") from None


def _read_formula(args, t: int) -> Formula:
    if args.formula_file:
        with open(args.formula_file) as fh:
            text = fh.read()
    else:
        text = args.formula
    return parse_formula(text, t)


def _read_parse_tree(path: str) -> ParseTree:
    with open(path) as fh:
        return parse_tree_from_text(fh.read())


def _read_graph(path: str):
    with open(path) as fh:
        return parse_graph(fh.read())


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
    return {"q": q, "t": tree.t, "parseTreeNodes": tree.size(),
            "charTreeNodes": rc.size(), "peakInterned": len(rc.forest),
            "wallTimeSec": elapsed}


def _count_set_quantifiers(phi: Formula) -> int:
    if isinstance(phi, (ExistsSet, ForallSet)):
        return 1 + _count_set_quantifiers(phi.sub)
    total = 0
    for attr in ("sub", "left", "right"):
        child = getattr(phi, attr, None)
        if isinstance(child, Formula):
            total += _count_set_quantifiers(child)
    return total


def cmd_check(args) -> int:
    tree = _read_parse_tree(args.parse_tree)
    phi = _read_formula(args, tree.t)
    if not is_sentence(phi):
        fv = free_variables(phi)
        raise RwmsoError(
            f"formula has free variables {fv.objects + fv.sets}; "
            "use 'optimize' for formulas with free set variables")
    q = quantifier_rank(phi)
    _guard(args, q > _max_q(), f"quantifier rank {q} exceeds RWMSO_MAX_Q={_max_q()}")
    start = time.perf_counter()
    rc = char_tree_from_parse_tree(tree, q)
    answer = game_on_tree(rc, to_nnf(phi))
    elapsed = time.perf_counter() - start
    print("true" if answer else "false")
    _report(args, {"command": "check", "answer": answer,
                   **_tree_report(q, tree, rc, elapsed)})
    return 0 if answer else 1


def cmd_oracle(args) -> int:
    graph = _read_graph(args.graph)
    phi = _read_formula(args, graph.t)
    if not is_sentence(phi):
        raise RwmsoError("the oracle checks sentences only")
    nsq = _count_set_quantifiers(phi)
    _guard(args, graph.n > ORACLE_MAX_N or nsq > ORACLE_MAX_SET_QUANTIFIERS,
           f"brute force on n={graph.n} with {nsq} set quantifiers is too big")
    start = time.perf_counter()
    answer = evaluate(graph, phi)
    elapsed = time.perf_counter() - start
    print("true" if answer else "false")
    _report(args, {"command": "oracle", "answer": answer,
                   "wallTimeSec": elapsed})
    return 0 if answer else 1


def cmd_optimize(args) -> int:
    tree = _read_parse_tree(args.parse_tree)
    phi = _read_formula(args, tree.t)
    try:
        weights = tuple(int(w) for w in args.weights.split(","))
    except ValueError:
        raise RwmsoError(
            f"--weights must be comma-separated integers, got {args.weights!r}") from None
    problem = LinEMSOProblem(phi, weights, args.direction)
    q = quantifier_rank(phi) + len(weights)
    _guard(args, q > _max_q(),
           f"needs characteristic trees of depth {q} > RWMSO_MAX_Q={_max_q()}")
    start = time.perf_counter()
    result = solve_linemso(tree, problem)
    elapsed = time.perf_counter() - start
    if result is None:
        print("INFEASIBLE")
        _report(args, {"command": "optimize", "answer": None,
                       "wallTimeSec": elapsed})
        return 1
    sets = [sorted(u) for u in result.witness]
    print(f"value {result.value}")
    for var, u in zip(problem.set_vars, sets):
        print(f"{var} = {{{', '.join(map(str, u))}}}")
    _report(args, {"command": "optimize", "answer": result.value,
                   "witness": sets, "wallTimeSec": elapsed})
    return 0


def cmd_rankwidth(args) -> int:
    graph = _read_graph(args.graph)
    _guard(args, graph.n > MAX_EXACT_N,
           f"exhaustive rankwidth search on n={graph.n} vertices is too big")
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
    tree = _read_parse_tree(args.parse_tree)
    _guard(args, args.q > _max_q(), f"q {args.q} exceeds RWMSO_MAX_Q={_max_q()}")
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
    phi = _read_formula(args, t=64)
    print(quantifier_rank(phi))
    return 0


@dataclass
class BenchRow:
    n: int
    parse_tree_nodes: int
    char_tree_nodes: int
    peak_interned: int
    seconds: float


def run_bench(family: str, n_list: list[int], q: int, t: int,
              repeats: int = 3) -> list[BenchRow]:
    """Construction time and interned-node counts per graph size.

    Every run starts from a fresh forest so later sizes cannot reuse
    work; the reported time is the best of the repeats.
    """
    rows = []
    for n in n_list:
        tree = family_tree(family, n, t)
        best = float("inf")
        rc = None
        for _ in range(max(repeats, 1)):
            forest = RCForest()
            start = time.perf_counter()
            rc = char_tree_from_parse_tree(tree, q, forest)
            best = min(best, time.perf_counter() - start)
        rows.append(BenchRow(n, tree.size(), rc.size(), len(rc.forest), best))
    return rows


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
    n_list = [int(x) for x in args.n_list.split(",")]
    rows = run_bench(args.family, n_list, args.q, args.t, args.repeats)
    print("n,parse_tree_nodes,char_tree_nodes,peak_interned,seconds")
    for r in rows:
        print(f"{r.n},{r.parse_tree_nodes},{r.char_tree_nodes},"
              f"{r.peak_interned},{r.seconds:.6f}")
    slope, corr = _fit(rows)
    print(f"# time ~ slope * |T|: slope={slope:.3e} s/node, correlation={corr:.4f}")
    for prev, cur in zip(rows, rows[1:]):
        if prev.seconds > 0:
            print(f"# n {prev.n} -> {cur.n}: time ratio {cur.seconds / prev.seconds:.2f}")
    return 0


def _add_formula_args(p):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--formula", help="formula text")
    grp.add_argument("--formula-file", help="file containing the formula")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwmso",
        description="MSO1 model checking on graphs given as t-labeled parse trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide G |= phi from a parse tree")
    p.add_argument("--parse-tree", required=True)
    _add_formula_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--force", action="store_true")
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
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("rankwidth", help="exact rankwidth (exhaustive, tiny graphs)")
    p.add_argument("--graph", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_rankwidth)

    p = sub.add_parser("chartree", help="build a characteristic tree, print stats")
    p.add_argument("--parse-tree", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dump", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--force", action="store_true")
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


if __name__ == "__main__":
    sys.exit(main())
