"""Command-line interface: batch model checking, optimization, width
computation, generators, and the linearity benchmark.

Exit codes: 0 = true/feasible/ok, 1 = false/infeasible, 2 = error.
oracle and rankwidth guard their brute-force input size, and --force
lifts that guard.  Their bodies and bench's live in commands, imported
on the first such call, so check and optimize never compile it.  Every
command that builds characteristic trees stops with exit 2 once its
forest passes chartree.MAX_NODES interned nodes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .chartree import RCForest, RCTree, char_tree_from_parse_tree, rc_dump
from .errors import RwmsoError
from .games import check_collapse, game_on_tree
from .linemso import DPStats, LinEMSOProblem, solve_linemso
from .logic import (Formula, free_variables, move_budget, parse_formula,
                    quantifier_rank)
from .parsetree import (FAMILIES, ParseTree, family_tree, format_parse_tree,
                        parse_tree_from_text)

SCHEMA = "rwmso-report/1"


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


def _report(args, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))


def _tree_report(q: int, tree: ParseTree, rc: RCTree, elapsed: float) -> dict:
    """Report fields shared by every command that folds a char tree."""
    return {"q": q, "moveBudget": list(rc.budget), "t": tree.t,
            "parseTreeNodes": tree.size(),
            "charTreeNodes": rc.size(), "peakInterned": len(rc.forest),
            "internedLabels": len(rc.forest.labels), "wallTimeSec": elapsed}


def cmd_check(args) -> int:
    tree, parse_s = _read_parse_tree(args.parse_tree)
    phi = _read_formula(args, tree.t)
    fv = free_variables(phi)
    kinds = (("object", fv.objects), ("set", fv.sets))
    if named := [f"{kind} variables {', '.join(vs)}" for kind, vs in kinds if vs]:
        hint = "'check' takes sentences only" if fv.objects else "use 'optimize' for free set variables"
        raise RwmsoError(f"formula has free {' and '.join(named)}; {hint}")
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
                     "collapsedNodes": stats.collapsed,
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


def _deferred(name: str):
    """The command function name of commands, imported on its first call."""
    def run(args) -> int:
        from . import commands
        return getattr(commands, name)(args)
    return run


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
    p.set_defaults(func=_deferred("cmd_oracle"))

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
    p.set_defaults(func=_deferred("cmd_rankwidth"))

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
    p.set_defaults(func=_deferred("cmd_bench"))

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
