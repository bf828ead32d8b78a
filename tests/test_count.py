"""Counting through the fold, the strict oracle of state merging.

common.count_solutions folds the LinEMSO states with a count as the
value, through the library's cross product and collapse test; it must
equal the number of satisfying set tuples found by evaluate on every
tuple.  A max hides a wrong merge or drop of a state that is not the
optimum; a count does not.
"""

import random

import pytest

from rwmso import free_variables, generate_graph, parse_formula
from rwmso.logic import ExistsObj, ForallObj

from common import (brute_force_count, count_solutions, random_formula,
                    random_parse_tree, small_parse_trees)
from test_linemso import PROBLEMS, TWO_COLOURS


def _formulas():
    rng = random.Random(32)
    formulas = {name: parse_formula(text, 2) for name, text, _ in PROBLEMS}
    formulas["two-colours"] = parse_formula(TWO_COLOURS, 2)
    # a point quantifier in front, so that atoms read a vertex
    for l in (1, 2):
        k = 0
        while k < 4:
            body = random_formula(rng, 2, ["x0"], ["X", "Y"][:l])
            phi = rng.choice((ExistsObj, ForallObj))("x0", body)
            if len(free_variables(phi).sets) == l:
                formulas[f"random-{l}-sets-{k}"] = phi
                k += 1
    return formulas


FORMULAS = _formulas()
# t = 2, four to six leaves; brute force visits 2^(l n) tuples, so a
# second set stops at n = 5
LARGER = [random_parse_tree(random.Random(seed), leaves, 2) for seed, leaves in enumerate((4, 5, 6))]


@pytest.mark.parametrize("name", FORMULAS)
def test_the_fold_counts_the_satisfying_set_tuples(name):
    phi = FORMULAS[name]
    larger = LARGER if len(free_variables(phi).sets) == 1 else LARGER[:2]
    for tree in small_parse_trees() + larger:
        want = brute_force_count(generate_graph(tree), phi)
        assert count_solutions(tree, phi) == want, (name, tree)
