"""t-labeled parse trees: file format, graph materialization, families.

A parse tree is a binary tree whose leaves each create one vertex with
label {1} and whose internal nodes carry three t x t relabeling matrices
(g, f1, f2) for the composition operator.  The graph is generated
leaves-to-root; the i-th leaf in left-to-right order is vertex i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from .errors import RwmsoError
from .structures import Relabeling, Structure, compose

T = TypeVar("T")
CompositionOp = tuple[Relabeling, Relabeling, Relabeling]

FAMILIES = ("path", "cycle", "complete", "cograph-union", "cograph-join", "star")


class PNode:
    __slots__ = ()


@dataclass(frozen=True)
class Leaf(PNode):
    pass


@dataclass(frozen=True)
class Node(PNode):
    g: Relabeling
    f1: Relabeling
    f2: Relabeling
    left: PNode
    right: PNode


@dataclass(frozen=True)
class ParseTree:
    t: int
    root: PNode

    def __post_init__(self):
        for node in _postorder(self.root):
            if isinstance(node, Node):
                if not node.g.t == node.f1.t == node.f2.t == self.t:
                    raise RwmsoError("relabeling width differs from declared t")

    def size(self) -> int:
        """Total node count |T|."""
        return sum(1 for _ in _postorder(self.root))

    def leaf_count(self) -> int:
        return sum(1 for n in _postorder(self.root) if isinstance(n, Leaf))


def _postorder(root: PNode):
    """Iterative post-order walk; trees can be thousands of levels deep.

    Nodes and their "expanded" flags sit on two parallel lists, so the
    walk allocates no container per node for the garbage collector to
    scan (a (node, flag) tuple per entry did, on long caterpillars).
    """
    nodes: list[PNode] = [root]
    expanded: list[bool] = [False]
    while nodes:
        node = nodes.pop()
        if expanded.pop() or isinstance(node, Leaf):
            yield node
        else:
            nodes += (node, node.right, node.left)
            expanded += (True, False, False)


def fold(tree: ParseTree, leaf: T, combine: Callable[[T, T, CompositionOp], T]) -> T:
    """Evaluate the tree leaves-to-root: every leaf is ``leaf``, and every
    inner node is ``combine(left, right, (g, f1, f2))`` of its operands."""
    results: list[T] = []
    for node in _postorder(tree.root):
        if isinstance(node, Leaf):
            results.append(leaf)
        else:
            right = results.pop()
            left = results.pop()
            results.append(combine(left, right, (node.g, node.f1, node.f2)))
    return results[0]


def generate_graph(tree: ParseTree) -> Structure:
    """Apply the operators leaves-to-root and return the generated graph."""
    leaf = Structure(1, tree.t, (0,), (1,) if tree.t else (0,))
    return fold(tree, leaf, lambda left, right, op: compose(left, right, *op))


# --- text format --------------------------------------------------------
#
# header line "t=<width>", then an S-expression:
#   tree := "(v)" | "(o" MAT MAT MAT tree tree ")"
# MAT is t bit-rows of length t separated by ';' (row i = image of
# label i under the map).

def _format_matrix(r: Relabeling) -> str:
    return ";".join(
        "".join("1" if (row >> j) & 1 else "0" for j in range(r.t)) for row in r.rows)


def format_parse_tree(tree: ParseTree) -> str:
    # Assemble iteratively; recursion would overflow on long caterpillars.
    parts: list[str] = []
    stack: list[object] = [tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append("(v)")
        else:
            mats = " ".join(_format_matrix(m) for m in (item.g, item.f1, item.f2))
            parts.append(f"(o {mats} ")
            stack.extend([")", item.right, " ", item.left])
    return f"t={tree.t}\n" + "".join(parts) + "\n"


def _parse_matrix(token: str, t: int) -> Relabeling:
    rows = token.split(";")
    if len(rows) != t or any(len(r) != t or set(r) - {"0", "1"} for r in rows):
        raise RwmsoError(f"bad {t}x{t} matrix {token!r}")
    return Relabeling(tuple(
        sum(1 << j for j, ch in enumerate(row) if ch == "1") for row in rows))


def parse_tree_from_text(text: str) -> ParseTree:
    lines = text.strip().splitlines()
    if not lines or not lines[0].strip().startswith("t="):
        raise RwmsoError("missing 't=<width>' header line")
    try:
        t = int(lines[0].strip()[2:])
    except ValueError:
        raise RwmsoError("bad width in header") from None
    if t < 1:
        raise RwmsoError("width must be at least 1")
    body = " ".join(lines[1:])
    tokens = body.replace("(", " ( ").replace(")", " ) ").split()

    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise RwmsoError(f"expected {expected or 'token'!r}, got {tok!r}")
        pos += 1
        return tok

    # Explicit stack instead of recursion: caterpillar trees get deep.
    def parse_node() -> PNode:
        ops: list[tuple[Relabeling, Relabeling, Relabeling]] = []
        children: list[list[PNode]] = []
        while True:
            take("(")
            tok = take()
            if tok == "v":
                take(")")
                node: PNode = Leaf()
                while True:
                    if not ops:
                        return node
                    children[-1].append(node)
                    if len(children[-1]) < 2:
                        break
                    g, f1, f2 = ops.pop()
                    left, right = children.pop()
                    take(")")
                    node = Node(g, f1, f2, left, right)
            elif tok == "o":
                mats = []
                while peek() not in ("(", None):
                    mats.append(take())
                if len(mats) != 3:
                    raise RwmsoError(f"expected three matrices, got {len(mats)}")
                ops.append(tuple(_parse_matrix(m, t) for m in mats))
                children.append([])
            else:
                raise RwmsoError(f"expected 'v' or 'o', got {tok!r}")

    root = parse_node()
    if pos != len(tokens):
        raise RwmsoError(f"trailing input after tree: {tokens[pos]!r}")
    return ParseTree(t, root)


# --- standard families --------------------------------------------------

def _pad(rows: tuple[int, ...], t: int) -> Relabeling:
    return Relabeling(rows + (0,) * (t - len(rows)))


def family_tree(family: str, n: int, t: int | None = None) -> ParseTree:
    """Parse tree generating the named graph family member on n vertices.

    The natural width is 1 for all families except cycles (width 2); a
    larger ``t`` pads the matrices, leaving the generated graph unchanged.
    """
    if family not in FAMILIES:
        raise RwmsoError(f"unknown family {family!r}; choose from {FAMILIES}")
    if n < 1:
        raise RwmsoError("n must be at least 1")
    if family == "cycle" and n < 3:
        raise RwmsoError("cycles need n >= 3")
    native = 2 if family == "cycle" else 1
    if t is None:
        t = native
    if t < native:
        raise RwmsoError(f"family {family!r} needs width >= {native}")

    one = _pad((1,), t)      # every label to {1}
    zero = Relabeling.zero(t)
    ident = Relabeling.identity(t)

    def chain(ops) -> PNode:
        node: PNode = Leaf()
        for g, f1, f2 in ops:
            node = Node(g, f1, f2, node, Leaf())
        return node

    if family == "complete":
        root = chain([(one, one, one)] * (n - 1))
    elif family == "star":
        # invariant: only the center keeps label {1}
        root = chain([(one, ident, zero)] * (n - 1))
    elif family == "path":
        # invariant: only the growing end keeps label {1}
        root = chain([(one, zero, one)] * (n - 1))
    elif family == "cycle":
        # invariant: start {1}, active end {2}, interior unlabeled
        to_end = _pad((2,), t)           # new vertex becomes the end
        keep_start = _pad((1, 0), t)     # retire the end, keep the start
        attach_start = (ident, ident, to_end)
        attach_end = (_pad((2,), t), keep_start, to_end)
        close = (_pad((3,), t), zero, zero)
        root = chain([attach_start] + [attach_end] * (n - 3) + [close])
    elif family == "cograph-union":
        root = _balanced(n, (zero, ident, ident))
    else:  # cograph-join
        root = _balanced(n, (one, one, one))
    return ParseTree(t, root)


def _balanced(n: int, op) -> PNode:
    if n == 1:
        return Leaf()
    half = n // 2
    g, f1, f2 = op
    return Node(g, f1, f2, _balanced(n - half, op), _balanced(half, op))
