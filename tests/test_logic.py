import random

import pytest

from rwmso import (Assignment, FormulaSyntaxError, evaluate, family_tree,
                   free_variables, model_check, parse_formula, pretty_print,
                   quantifier_rank)
from rwmso.errors import RwmsoError
from rwmso.games import CATALOG
from rwmso.logic import (MAX_NESTING, Adj, And, Equal, ExistsObj,
                         ForallObj, ForallSet, In, Label, Not, Or, SetEqual,
                         move_budget)

from common import (all_structures, catalog, is_nnf, random_formula,
                    random_sentence, reference_quantifier_rank, to_nnf)


def test_parse_basic():
    phi = parse_formula("Ex x. Ex y. adj(x,y)")
    assert phi == ExistsObj("x", ExistsObj("y", Adj("x", "y")))


def test_parse_set_quantifier():
    phi = parse_formula("AX S. Ex x. S(x)")
    assert phi == ForallSet("S", ExistsObj("x", In("S", "x")))


def test_parse_error_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("adj(x,")
    assert err.value.position == 6


# formulas k levels deep: k - 1 levels under one object quantifier
NESTED = {
    "conjuncts": lambda k: "Ex x. " + " & ".join(["x = x"] * k),
    "negations": lambda k: "Ex x. " + "!" * (k - 1) + "x = x",
    "parentheses": lambda k: "(" * (k - 1) + "Ex x. x = x" + ")" * (k - 1),
}
# 3000-deep inputs, keyed by the token that adds each level
DEEP = {
    "&": " & ".join(["x = x"] * 3000),
    "!": "!" * 3000 + "x = x",
    "(": "(" * 3000 + "x = x" + ")" * 3000,
}


@pytest.mark.parametrize("token", sorted(DEEP))
def test_deep_formula_is_a_syntax_error(token):
    text = DEEP[token]
    with pytest.raises(FormulaSyntaxError, match="nested deeper") as err:
        parse_formula(text)
    # refused at the token that opens level MAX_NESTING + 1
    offsets = [i for i, ch in enumerate(text) if ch == token]
    assert err.value.position == offsets[MAX_NESTING]


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_formula_at_the_nesting_limit(shape):
    phi = parse_formula(NESTED[shape](MAX_NESTING))
    want = shape != "negations" or MAX_NESTING % 2 == 1
    assert model_check(family_tree("path", 3), phi) == want
    assert parse_formula(pretty_print(phi)) == phi
    with pytest.raises(FormulaSyntaxError, match="nested deeper"):
        parse_formula(NESTED[shape](MAX_NESTING + 1))


def test_parse_label_index_checked():
    assert parse_formula("label2(x)", t=2) == Label(2, "x")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("label3(x)", t=2)


def test_parse_set_equality_and_precedence():
    assert parse_formula("S = T") == SetEqual("S", "T")
    phi = parse_formula("a = b & c = d | x = y")
    assert phi == Or(And(Equal("a", "b"), Equal("c", "d")), Equal("x", "y"))


def test_unbound_variable_is_free_not_error():
    phi = parse_formula("Ex x. adj(x, y)")
    assert free_variables(phi).objects == ("y",)


def test_quantifier_rank():
    assert quantifier_rank(parse_formula("adj(x,y)")) == 0
    assert quantifier_rank(parse_formula("Ex x. Ex y. adj(x,y)")) == 2
    both = And(parse_formula("Ex x. adj(x,x)"),
               parse_formula("EX S. Ax y. S(y)"))
    assert quantifier_rank(both) == 2
    for entry in CATALOG:
        assert quantifier_rank(parse_formula(entry.text, 2)) == entry.qr


def test_quantifier_rank_is_the_move_budget_depth():
    # seeded fuzz against the recursive definition, on formulas with free
    # object and set variables and on sentences; the budget of a game
    # started at (objects, sets) is that much deeper
    rng = random.Random(24)
    for i in range(3000):
        if i % 3:
            objs = [f"y{k}" for k in range(rng.randint(0, 2))]
            sets = [f"X{k}" for k in range(rng.randint(0, 2))]
            phi = random_formula(rng, rng.randint(0, 5), objs, sets)
        else:
            phi = random_sentence(rng)
        qr = reference_quantifier_rank(phi)
        assert quantifier_rank(phi) == qr, str(phi)
        fv = free_variables(phi)
        caps = move_budget(phi, len(fv.objects), len(fv.sets))
        assert max(m + p for p, m in enumerate(caps)) == qr + len(fv.objects) + len(fv.sets)


def test_the_set_equality_rewrite_agrees_with_set_equality():
    # the rewrite of S = T by membership atoms, which the tree game can
    # play: equal on every structure with n <= 3 and every pair of sets
    rewrite = parse_formula("Ax z. ((S(z) & T(z)) | (!S(z) & !T(z)))")
    equal = parse_formula("S = T")
    assert free_variables(rewrite).sets == ("S", "T")
    for n in range(4):
        subsets = [frozenset(v for v in range(n) if mask >> v & 1) for mask in range(1 << n)]
        for g in all_structures(n):
            for s in subsets:
                for t in subsets:
                    alpha = Assignment(sets={"S": s, "T": t})
                    assert evaluate(g, rewrite, alpha) == evaluate(g, equal, alpha) == (s == t)


def test_to_nnf_examples():
    phi = Not(ForallObj("x", Adj("x", "x")))
    assert to_nnf(phi) == ExistsObj("x", Not(Adj("x", "x")))
    assert to_nnf(Not(Not(Adj("x", "y")))) == Adj("x", "y")
    a, b = Adj("x", "y"), Equal("x", "y")
    assert to_nnf(Not(And(a, b))) == Or(Not(a), Not(b))


def test_nnf_properties_random():
    rng = random.Random(11)
    for _ in range(200):
        phi = random_formula(rng, 4, [], [])
        nnf = to_nnf(phi)
        assert is_nnf(nnf)
        assert to_nnf(nnf) == nnf
        assert quantifier_rank(nnf) == quantifier_rank(phi)
        assert free_variables(nnf) == free_variables(phi)


def test_nnf_semantics_on_small_structures():
    rng = random.Random(13)
    structures = [g for n in (1, 2, 3) for g in all_structures(n, 1)]
    rng.shuffle(structures)
    for g in structures[:12]:
        for _ in range(10):
            phi = random_formula(rng, 3, [], [])
            assert evaluate(g, to_nnf(phi)) == evaluate(g, phi)
    for g in structures[:12]:
        for _, phi in catalog(max_qr=2):
            assert evaluate(g, to_nnf(phi)) == evaluate(g, phi)


def test_free_variables_examples():
    fv = free_variables(parse_formula("adj(x, y)"))
    assert fv.objects == ("x", "y") and fv.sets == ()
    fv = free_variables(parse_formula("Ex x. adj(x, y)"))
    assert fv.objects == ("y",)
    fv = free_variables(parse_formula("S(x)"))
    assert fv.objects == ("x",) and fv.sets == ("S",)


def test_pretty_print_round_trip():
    rng = random.Random(17)
    for entry in CATALOG:
        phi = parse_formula(entry.text, 2)
        assert parse_formula(pretty_print(phi), 2) == phi
    for _ in range(300):
        # sibling binders reuse names; the parser keeps them as written
        raw = random_formula(rng, 4, ["u", "w"], ["T"])
        assert parse_formula(pretty_print(raw), 2) == raw


def test_negated_conjunction_prints_one_pair_of_parentheses():
    phi = parse_formula("!(x = y & adj(x, y))")
    assert pretty_print(phi) == "!(x = y & adj(x, y))"
    assert parse_formula(pretty_print(phi)) == phi
    phi = parse_formula("!!(x = y | !(S(x) & label1(y)))")
    assert parse_formula(pretty_print(phi)) == phi


def test_deep_negated_conjunctions_round_trip():
    # 80 open constructs parse; the print must not double them past the limit
    phi = parse_formula("Ex x. " + "!(x = x & " * 40 + "x = x" + ")" * 40)
    assert parse_formula(pretty_print(phi)) == phi


def test_quantified_operands_round_trip():
    # a quantifier operand of & or | takes one pair of parentheses, so the
    # print opens no more constructs than the 68 of the text
    text = "(Ex x. " * 34 + "x = x" + " & x = x)" * 34
    phi = parse_formula(text)
    assert pretty_print(phi).count("(") <= text.count("(")
    assert parse_formula(pretty_print(phi)) == phi


def test_print_groups_to_the_left():
    a, b, c = (parse_formula(v) for v in ("x = x", "y = y", "z = z"))
    assert pretty_print(And(And(a, b), c)) == "x = x & y = y & z = z"
    assert pretty_print(And(a, And(b, c))) == "x = x & (y = y & z = z)"
    assert pretty_print(Or(And(a, b), c)) == "x = x & y = y | z = z"
    assert pretty_print(And(Or(a, b), c)) == "(x = x | y = y) & z = z"
    assert pretty_print(Or(a, Or(b, c))) == "x = x | (y = y | z = z)"
    for phi in (And(a, And(b, c)), Or(And(a, b), c), And(Or(a, b), c),
                Or(a, Or(b, c)), Not(Or(a, b))):
        assert parse_formula(pretty_print(phi)) == phi


# (text, message): every syntax error the parser can raise, with its offset
SYNTAX_ERRORS = [
    ("x # y", "unexpected character '#' at offset 2"),
    ("Ex x x = x", "expected '.' at offset 5"),
    ("Ex X. X = X", "expected object variable at offset 3"),
    ("EX s. Ex x. s(x)", "expected set variable at offset 3"),
    ("x = x x", "unexpected token 'x' at offset 6"),
    ("Ex x.", "expected atom at offset 5"),
    ("Ex x. )", "unexpected token ')' at offset 6"),
]


@pytest.mark.parametrize("text, message", SYNTAX_ERRORS)
def test_syntax_errors_name_the_offending_token(text, message):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    assert str(err.value) == message


def test_trailing_whitespace_and_negative_width():
    assert parse_formula("Ex x. x = x \n\t ") == parse_formula("Ex x. x = x")
    with pytest.raises(RwmsoError) as err:
        parse_formula("x = x", -1)
    assert err.type is RwmsoError and str(err.value) == "label width must be nonnegative"
