"""MSO1 formulas over {E, L1..Lt}: AST and concrete syntax.

Grammar (whitespace-insensitive)::

    formula  := quant | disj
    quant    := ("Ex"|"Ax") objvar "." formula | ("EX"|"AX") setvar "." formula
    disj     := conj ("|" conj)*
    conj     := unary ("&" unary)*
    unary    := "!" unary | "(" formula ")" | atom
    atom     := objvar "=" objvar | setvar "=" setvar
              | "adj(" objvar "," objvar ")" | "label" INT "(" objvar ")"
              | setvar "(" objvar ")"

Object variables start lowercase, set variables uppercase.  ``Ex``,
``Ax``, ``EX``, ``AX``, ``adj`` and ``label<digits>`` are reserved.
A variable refers to its innermost binder, so names may be reused: in
``x = x & (Ex x. Ax x. adj(x,x))`` the first two x are free and the
last two are bound by ``Ax x``.  The parser keeps names as written.
Nesting past MAX_NESTING levels is a FormulaSyntaxError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import RwmsoError


class Formula:
    """Base class for formula AST nodes."""

    __slots__ = ()

    def __str__(self):
        return pretty_print(self)


@dataclass(frozen=True)
class Equal(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class SetEqual(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Adj(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Label(Formula):
    index: int
    var: str


@dataclass(frozen=True)
class In(Formula):
    set_var: str
    var: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ExistsObj(Formula):
    var: str
    sub: Formula


@dataclass(frozen=True)
class ForallObj(Formula):
    var: str
    sub: Formula


@dataclass(frozen=True)
class ExistsSet(Formula):
    set_var: str
    sub: Formula


@dataclass(frozen=True)
class ForallSet(Formula):
    set_var: str
    sub: Formula


ATOM_TYPES = (Equal, SetEqual, Adj, Label, In)
_UNARY = ATOM_TYPES + (Not,)  # the formulas the grammar calls unary
_QUANT = {ExistsObj: "Ex", ForallObj: "Ax", ExistsSet: "EX", ForallSet: "AX"}
_QUANT_OF = {tok: cls for cls, tok in _QUANT.items()}


def is_atomic(phi: Formula) -> bool:
    return isinstance(phi, ATOM_TYPES)


@dataclass(frozen=True)
class VariableList:
    objects: tuple[str, ...]
    sets: tuple[str, ...]


class FormulaSyntaxError(RwmsoError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


_KEYWORDS = {"Ex", "Ax", "EX", "AX", "adj", "label"}
# The deepest formula tree the parser builds, and the most parentheses,
# negations and quantifiers it keeps open at once.  Every walker over
# formulas recurses on the tree depth, and the parser on the open
# constructs (four frames per parenthesis), so this keeps them all well
# inside Python's default recursion limit.
MAX_NESTING = 100
_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|[()=.,&|!])")
_LABEL_RE = re.compile(r"label(\d+)$")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:]
            offset = pos + len(rest) - len(rest.lstrip())
            if offset >= len(text):
                break
            raise FormulaSyntaxError(f"unexpected character {text[offset]!r}", offset)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent.  Each method returns (formula, height), the
    height being the depth of the formula tree; `depth` counts the
    parentheses, negations and quantifiers open at the current token.
    Both stay within MAX_NESTING, checked before the parser recurses
    or nests a connective further."""

    def __init__(self, tokens: list[tuple[str, int]], text_len: int,
                 t: int | None):
        self.tokens = tokens
        self.text_len = text_len
        self.t = t
        self.i = 0
        self.depth = 0

    def _peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def _pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else self.text_len

    def _error(self, message: str):
        raise FormulaSyntaxError(message, self._pos())

    def _nesting(self, level: int, position: int) -> int:
        if level > MAX_NESTING:
            raise FormulaSyntaxError(
                f"formula nested deeper than {MAX_NESTING} levels", position)
        return level

    def _descend(self, position: int):
        self.depth = self._nesting(self.depth + 1, position)

    def _expect(self, tok: str):
        if self._peek() != tok:
            self._error(f"expected {tok!r}")
        self.i += 1

    def _ident(self, kind: str) -> str:
        tok = self._peek()
        if tok is None or not tok[0].isalpha() or tok in _KEYWORDS or _LABEL_RE.match(tok):
            self._error(f"expected {kind}")
        if kind == "object variable" and not tok[0].islower():
            self._error(f"expected {kind}")
        if kind == "set variable" and not tok[0].isupper():
            self._error(f"expected {kind}")
        self.i += 1
        return tok

    def parse(self) -> Formula:
        phi, _ = self.formula()
        if self.i < len(self.tokens):
            self._error(f"unexpected token {self._peek()!r}")
        return phi

    def formula(self) -> tuple[Formula, int]:
        tok = self._peek()
        if tok in _QUANT_OF:
            position = self._pos()
            self.i += 1
            var = self._ident("object variable" if tok in ("Ex", "Ax") else "set variable")
            self._expect(".")
            self._descend(position)
            body, height = self.formula()
            self.depth -= 1
            return _QUANT_OF[tok](var, body), self._nesting(height + 1, position)
        return self.disj()

    def disj(self) -> tuple[Formula, int]:
        phi, height = self.conj()
        while self._peek() == "|":
            position = self._pos()
            self.i += 1
            rhs, rhs_height = self.conj()
            phi = Or(phi, rhs)
            height = self._nesting(max(height, rhs_height) + 1, position)
        return phi, height

    def conj(self) -> tuple[Formula, int]:
        phi, height = self.unary()
        while self._peek() == "&":
            position = self._pos()
            self.i += 1
            rhs, rhs_height = self.unary()
            phi = And(phi, rhs)
            height = self._nesting(max(height, rhs_height) + 1, position)
        return phi, height

    def unary(self) -> tuple[Formula, int]:
        tok = self._peek()
        if tok == "!":
            position = self._pos()
            self.i += 1
            self._descend(position)
            sub, height = self.unary()
            self.depth -= 1
            return Not(sub), self._nesting(height + 1, position)
        if tok == "(":
            self._descend(self._pos())
            self.i += 1
            phi, height = self.formula()
            self.depth -= 1
            self._expect(")")
            return phi, height
        return self.atom(), 0

    def atom(self) -> Formula:
        tok = self._peek()
        if tok is None:
            self._error("expected atom")
        if tok == "adj":
            self.i += 1
            self._expect("(")
            a = self._ident("object variable")
            self._expect(",")
            b = self._ident("object variable")
            self._expect(")")
            return Adj(a, b)
        m = _LABEL_RE.match(tok)
        if m:
            index = int(m.group(1))
            if index < 1 or (self.t is not None and index > self.t):
                upper = "" if self.t is None else self.t
                self._error(f"label index {index} outside 1..{upper}")
            self.i += 1
            self._expect("(")
            a = self._ident("object variable")
            self._expect(")")
            return Label(index, a)
        if tok[0].islower():
            a = self._ident("object variable")
            self._expect("=")
            b = self._ident("object variable")
            return Equal(a, b)
        if tok[0].isupper():
            a = self._ident("set variable")
            nxt = self._peek()
            if nxt == "=":
                self.i += 1
                b = self._ident("set variable")
                return SetEqual(a, b)
            self._expect("(")
            b = self._ident("object variable")
            self._expect(")")
            return In(a, b)
        self._error(f"unexpected token {tok!r}")


def parse_formula(text: str, t: int | None = 1) -> Formula:
    """Parse the concrete syntax, keeping every variable name as written.
    Label indices must lie in 1..t, or be any index >= 1 when t is None."""
    if t is not None and t < 0:
        raise RwmsoError("label width must be nonnegative")
    return _Parser(_tokenize(text), len(text), t).parse()


def pretty_print(phi: Formula) -> str:
    """Concrete syntax; ``parse_formula(pretty_print(phi)) == phi``.

    Parentheses go only where the grammar needs them, so the print nests
    no deeper than any text of phi."""
    if isinstance(phi, Equal) or isinstance(phi, SetEqual):
        return f"{phi.left} = {phi.right}"
    if isinstance(phi, Adj):
        return f"adj({phi.left}, {phi.right})"
    if isinstance(phi, Label):
        return f"label{phi.index}({phi.var})"
    if isinstance(phi, In):
        return f"{phi.set_var}({phi.var})"
    if isinstance(phi, Not):
        return "!" + _operand(phi.sub, _UNARY)
    if isinstance(phi, And):
        return f"{_operand(phi.left, _UNARY + (And,))} & {_operand(phi.right, _UNARY)}"
    if isinstance(phi, Or):
        return (f"{_operand(phi.left, _UNARY + (And, Or))} | "
                f"{_operand(phi.right, _UNARY + (And,))}")
    if isinstance(phi, (ExistsObj, ForallObj)):
        return f"{_QUANT[type(phi)]} {phi.var}. {pretty_print(phi.sub)}"
    if isinstance(phi, (ExistsSet, ForallSet)):
        return f"{_QUANT[type(phi)]} {phi.set_var}. {pretty_print(phi.sub)}"
    raise RwmsoError(f"unknown formula node {phi!r}")


def _operand(sub: Formula, bare: tuple[type, ...]) -> str:
    # & and | group to the left, and a quantifier reaches to the end
    text = pretty_print(sub)
    return text if isinstance(sub, bare) else f"({text})"


def move_budget(phi: Formula, objects: int = 0, sets: int = 0) -> tuple[int, ...]:
    """The moves the game on phi can take, as caps[p] = the most point
    moves after p set moves (see chartree.as_budget).

    The game starts at (objects, sets), counting the free variables
    already placed, and an object (set) quantifier moves it from (m, p)
    to (m + 1, p) ((m, p + 1)).  caps[p] is the largest m of a level
    (m, p) the game visits, 0 below sets.  It is not closed over p:
    EX C. Ax x. Ax y. ... gets (0, 2), with no point move before the set
    move and no set move after the point moves.  Negation does not
    change the levels, so phi and its NNF get the same budget.
    """
    most: dict[int, int] = {}  # p -> most m among the levels visited
    stack = [(phi, objects, sets)]
    while stack:
        psi, m, p = stack.pop()
        most[p] = max(m, most.get(p, m))
        if isinstance(psi, (ExistsObj, ForallObj)):
            stack.append((psi.sub, m + 1, p))
        elif isinstance(psi, (ExistsSet, ForallSet)):
            stack.append((psi.sub, m, p + 1))
        elif isinstance(psi, (And, Or)):
            stack += [(psi.left, m, p), (psi.right, m, p)]
        elif isinstance(psi, Not):
            stack.append((psi.sub, m, p))
    return tuple(most.get(p, 0) for p in range(max(most) + 1))


def quantifier_rank(phi: Formula) -> int:
    """The most quantifiers on a branch of phi: its move budget's depth."""
    return max(m + p for p, m in enumerate(move_budget(phi)))


def free_variables(phi: Formula) -> VariableList:
    """Free variables ordered by first occurrence."""
    objects: dict[str, None] = {}
    sets: dict[str, None] = {}
    # left operands are popped first, so atoms are met in text order
    stack: list[tuple[Formula, frozenset[str]]] = [(phi, frozenset())]
    while stack:
        psi, bound = stack.pop()
        if isinstance(psi, (Equal, Adj)):
            for v in (psi.left, psi.right):
                if v not in bound:
                    objects.setdefault(v)
        elif isinstance(psi, SetEqual):
            for v in (psi.left, psi.right):
                if v not in bound:
                    sets.setdefault(v)
        elif isinstance(psi, Label):
            if psi.var not in bound:
                objects.setdefault(psi.var)
        elif isinstance(psi, In):
            if psi.set_var not in bound:
                sets.setdefault(psi.set_var)
            if psi.var not in bound:
                objects.setdefault(psi.var)
        elif isinstance(psi, Not):
            stack.append((psi.sub, bound))
        elif isinstance(psi, (And, Or)):
            stack += ((psi.right, bound), (psi.left, bound))
        elif isinstance(psi, (ExistsObj, ForallObj)):
            stack.append((psi.sub, bound | {psi.var}))
        elif isinstance(psi, (ExistsSet, ForallSet)):
            stack.append((psi.sub, bound | {psi.set_var}))
        else:
            raise RwmsoError(f"unknown formula node {psi!r}")
    return VariableList(tuple(objects), tuple(sets))


def is_sentence(phi: Formula) -> bool:
    fv = free_variables(phi)
    return not fv.objects and not fv.sets
