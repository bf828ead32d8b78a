"""The library's records: formula nodes, tuple records and stats.

No module imports dataclasses.  Formula nodes compare by class and
fields and hash once; the value records are tuples, immutable, with
fresh dict defaults where they have defaults; and every repr reads as
it did when the records were dataclasses.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from rwmso import Assignment, LinEMSOProblem, LinEMSOResult, build_structure, family_tree
from rwmso.logic import Adj, And, Equal, ExistsObj, ForallObj, Or, parse_formula, pretty_print
from rwmso.structures import ordered_induced

SRC = Path(__file__).resolve().parent.parent / "src"
TEXT = "EX C. Ax x. Ax y. (!adj(x,y) | (C(x) & !C(y)) | label1(x) | x = y | C = C)"


def test_importing_the_cli_imports_no_dataclasses():
    # a fresh interpreter, as a user's `rwmso check` starts; -S: no site
    # hook imports anything first
    code = "import sys, rwmso.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_equal_formulas_are_equal_and_hash_alike():
    # a second parse, and copies made through __reduce__
    phi = parse_formula(TEXT, 1)
    for psi in (parse_formula(TEXT, 1), pickle.loads(pickle.dumps(phi)), copy.deepcopy(phi)):
        assert phi is not psi
        assert phi == psi and hash(phi) == hash(psi)
        assert {phi: 1}[psi] == 1


def test_a_formula_prints_as_its_concrete_syntax():
    phi = parse_formula(TEXT, 1)
    assert str(phi) == pretty_print(phi)


def test_a_wrong_field_count_is_a_type_error():
    for args in (("x",), ("x", "y", "z")):
        with pytest.raises(TypeError, match="takes fields"):
            Adj(*args)


def test_nodes_of_two_classes_with_equal_fields_differ():
    a, b = Equal("x", "y"), Equal("y", "x")
    assert And(a, b) != Or(a, b) and not And(a, b) == Or(a, b)
    assert ExistsObj("x", b) != ForallObj("x", b)
    assert len({And(a, b), Or(a, b), And(a, b)}) == 2


def test_records_are_immutable():
    g = build_structure(3, [(0, 1), (1, 2)], 2, [1, 2, 3])
    phi = parse_formula("Ax x. (X(x) | !X(x))", 1)
    records = [(parse_formula(TEXT, 1), "sub"), (Equal("x", "y"), "left"), (g, "n"),
               (pickle.loads(pickle.dumps(phi)), "sub"), (copy.deepcopy(phi), "sub"),
               (ordered_induced(g, [0, 2]), "positions"), (family_tree("path", 4), "code"),
               (LinEMSOProblem(phi, (1,), "max"), "weights")]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_assignments_do_not_share_their_dicts():
    a, b = Assignment(), Assignment()
    assert a.objects is not b.objects and a.sets is not b.sets
    a.objects["x"] = 0
    assert b.objects == {} and Assignment().objects == {}


def test_reprs_read_as_before():
    assert repr(parse_formula(TEXT, 1)) == (
        "ExistsSet(set_var='C', sub=ForallObj(var='x', sub=ForallObj(var='y', sub=Or("
        "left=Or(left=Or(left=Or(left=Not(sub=Adj(left='x', right='y')), right=And("
        "left=In(set_var='C', var='x'), right=Not(sub=In(set_var='C', var='y')))), "
        "right=Label(index=1, var='x')), right=Equal(left='x', right='y')), "
        "right=SetEqual(left='C', right='C')))))")
    assert repr(build_structure(3, [(0, 1), (1, 2)], 2, [1, 2, 3])) == (
        "Structure(n=3, t=2, adj=(2, 5, 2), labels=(1, 2, 3))")
    assert repr(family_tree("cycle", 4)) == (
        "ParseTree(t=2, ops=((Relabeling(rows=(1, 2)), Relabeling(rows=(1, 2)), "
        "Relabeling(rows=(2, 0))), (Relabeling(rows=(2, 0)), Relabeling(rows=(1, 0)), "
        "Relabeling(rows=(2, 0))), (Relabeling(rows=(3, 0)), Relabeling(rows=(0, 0)), "
        "Relabeling(rows=(0, 0)))), code=(-1, -1, 0, -1, 1, -1, 2))")
    assert repr(LinEMSOResult(3, (frozenset({0, 2}), frozenset()))) == (
        "LinEMSOResult(value=3, witness=(frozenset({0, 2}), frozenset()))")
