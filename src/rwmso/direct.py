"""The direct evaluator: the satisfaction relation on a whole structure.

It is the semantic oracle, exponential in set quantifiers; on a formula
in negation normal form its any/all recursion is the model checking game
played on the structure itself.  Unlike the tree game (games), it
decides set-set equality atoms.  Neither check nor optimize runs it, so
``import rwmso`` loads this module on first use.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Mapping

from .errors import RwmsoError
from .logic import (Adj, And, Equal, ExistsObj, ExistsSet, ForallObj,
                    ForallSet, Formula, In, Label, Not, Or, SetEqual,
                    free_variables)
from .structures import Structure


class Assignment(namedtuple("Assignment", "objects sets")):
    """Values for free variables: elements for object variables,
    element sets for set variables.  A tuple (objects: Mapping[str, int],
    sets: Mapping[str, frozenset[int]]), each a fresh dict by default."""

    __slots__ = ()

    def __new__(cls, objects: Mapping[str, int] | None = None,
                sets: Mapping[str, frozenset[int]] | None = None):
        objects = {} if objects is None else objects
        sets = {} if sets is None else sets
        overlap = set(objects) & set(sets)
        if overlap:
            raise RwmsoError(f"variables assigned twice: {sorted(overlap)}")
        return tuple.__new__(cls, (objects, sets))


def _check_assignment(a: Structure, phi: Formula, alpha: Assignment):
    fv = free_variables(phi)
    missing = [v for v in fv.objects if v not in alpha.objects]
    missing += [v for v in fv.sets if v not in alpha.sets]
    if missing:
        raise RwmsoError(f"unbound free variables: {missing}")
    for v, e in alpha.objects.items():
        if not 0 <= e < a.n:
            raise RwmsoError(f"assignment of {v} outside universe")
    for v, s in alpha.sets.items():
        if any(not 0 <= e < a.n for e in s):
            raise RwmsoError(f"assignment of {v} outside universe")


def evaluate(a: Structure, phi: Formula, alpha: Assignment | None = None) -> bool:
    """Truth of phi in the structure under the assignment.

    Follows the satisfaction relation directly; set quantifiers iterate
    over all subsets, so keep the universe small.
    """
    alpha = alpha or Assignment()
    _check_assignment(a, phi, alpha)
    obj = dict(alpha.objects)
    sets = {v: sum(1 << e for e in s) for v, s in alpha.sets.items()}
    return _eval(a, phi, obj, sets)


def _eval(a: Structure, phi: Formula, obj: dict[str, int], sets: dict[str, int]) -> bool:
    if isinstance(phi, Equal):
        return obj[phi.left] == obj[phi.right]
    if isinstance(phi, SetEqual):
        return sets[phi.left] == sets[phi.right]
    if isinstance(phi, Adj):
        return a.has_edge(obj[phi.left], obj[phi.right])
    if isinstance(phi, Label):
        return bool((a.labels[obj[phi.var]] >> (phi.index - 1)) & 1)
    if isinstance(phi, In):
        return bool((sets[phi.set_var] >> obj[phi.var]) & 1)
    if isinstance(phi, Not):
        return not _eval(a, phi.sub, obj, sets)
    if isinstance(phi, And):
        return _eval(a, phi.left, obj, sets) and _eval(a, phi.right, obj, sets)
    if isinstance(phi, Or):
        return _eval(a, phi.left, obj, sets) or _eval(a, phi.right, obj, sets)
    if isinstance(phi, ExistsObj):
        return any(_eval(a, phi.sub, {**obj, phi.var: d}, sets) for d in range(a.n))
    if isinstance(phi, ForallObj):
        return all(_eval(a, phi.sub, {**obj, phi.var: d}, sets) for d in range(a.n))
    if isinstance(phi, ExistsSet):
        return any(_eval(a, phi.sub, obj, {**sets, phi.set_var: mask})
                   for mask in range(1 << a.n))
    if isinstance(phi, ForallSet):
        return all(_eval(a, phi.sub, obj, {**sets, phi.set_var: mask})
                   for mask in range(1 << a.n))
    raise RwmsoError(f"unknown formula node {phi!r}")
