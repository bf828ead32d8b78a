"""Expected answers for the benchmark's inputs, without the engine.

Every benchmark input is a member of a generated graph family (see
``rwmso.family_tree``).  This module knows each family's edge list,
gives the truth value of each benchmark sentence and the optimum of each
benchmark problem in closed form, and checks an ``optimize`` witness
against the edge list.  ``test_perfbench.py`` cross-checks every closed
form against brute-force evaluation on n <= 8.
"""

from __future__ import annotations

import math


def edges(family: str, n: int) -> list[tuple[int, int]]:
    """Edge list of the family member on vertices 0..n-1 (leaf order)."""
    if family == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "cycle":
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if family == "star":
        return [(0, i) for i in range(1, n)]
    if family == "cograph-join":
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    raise ValueError(f"no edge list for family {family!r}")


# Catalog sentences (rwmso.games.CATALOG) used by the check workloads:
# name -> family -> truth value on n vertices.
SENTENCES = {
    "two-colorable": {
        "path": lambda n: True,
        "cycle": lambda n: n % 2 == 0,
        "star": lambda n: True,
        "cograph-join": lambda n: n <= 2,
    },
    # an independent vertex cover exists iff the graph is bipartite
    "independent-set-meets-all-edges": {
        "path": lambda n: True,
        "cycle": lambda n: n % 2 == 0,
        "star": lambda n: True,
        "cograph-join": lambda n: n <= 2,
    },
    "has-triangle": {
        "path": lambda n: False,
        "cycle": lambda n: n == 3,
        "star": lambda n: False,
        "cograph-join": lambda n: n >= 3,
    },
    "has-dominating-vertex": {
        "path": lambda n: n <= 3,
        "cycle": lambda n: n == 3,
        "star": lambda n: True,
        "cograph-join": lambda n: True,
    },
    "complete": {
        "path": lambda n: n <= 2,
        "cycle": lambda n: n == 3,
        "star": lambda n: n <= 2,
        "cograph-join": lambda n: True,
    },
    # label 1 ends on the path's last vertex, the star's centre and every
    # vertex of the join; the cycle's closing step clears all labels
    "label1-dominates": {
        "path": lambda n: n <= 2,
        "cycle": lambda n: False,
        "star": lambda n: True,
        "cograph-join": lambda n: True,
    },
    "edgeless": {
        "path": lambda n: n == 1,
        "cycle": lambda n: False,
        "star": lambda n: n == 1,
        "cograph-join": lambda n: n == 1,
    },
}


# LinEMSO problems with one free set variable X and weight 1:
# name -> (formula, direction, family -> optimum on n vertices).
PROBLEMS = {
    "max-independent-set": (
        "Ax x. Ax y. (!X(x) | !X(y) | !adj(x,y))", "max",
        {"path": lambda n: math.ceil(n / 2), "cycle": lambda n: n // 2}),
    "min-vertex-cover": (
        "Ax x. Ax y. (!adj(x,y) | X(x) | X(y))", "min",
        {"path": lambda n: n // 2, "cycle": lambda n: math.ceil(n / 2)}),
    "min-dominating-set": (
        "Ax x. (X(x) | (Ex y. (adj(x,y) & X(y))))", "min",
        {"path": lambda n: math.ceil(n / 3), "cycle": lambda n: math.ceil(n / 3)}),
}


def expected_truth(sentence: str, family: str, n: int) -> bool:
    return SENTENCES[sentence][family](n)


def expected_optimum(problem: str, family: str, n: int) -> int:
    return PROBLEMS[problem][2][family](n)


def feasible(problem: str, family: str, n: int, witness: set[int]) -> bool:
    """Whether the vertex set satisfies the problem's constraint."""
    if not witness <= set(range(n)):
        return False
    es = edges(family, n)
    if problem == "max-independent-set":
        return not any(u in witness and v in witness for u, v in es)
    if problem == "min-vertex-cover":
        return all(u in witness or v in witness for u, v in es)
    if problem == "min-dominating-set":
        covered = set(witness)
        for u, v in es:
            if u in witness:
                covered.add(v)
            if v in witness:
                covered.add(u)
        return len(covered) == n
    raise ValueError(f"unknown problem {problem!r}")
