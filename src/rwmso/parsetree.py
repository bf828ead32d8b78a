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
from .structures import Relabeling, Structure, _unchecked, compose

T = TypeVar("T")
CompositionOp = tuple[Relabeling, Relabeling, Relabeling]

FAMILIES = ("path", "cycle", "complete", "cograph-union", "cograph-join", "star")
LEAF = -1


@dataclass(frozen=True)
class ParseTree:
    """An operator table and the nodes in post-order.

    ``ops`` holds the distinct (g, f1, f2) operators in the order ``code``
    first uses them.  ``code`` has one int per node: LEAF (-1) for a leaf,
    else the node's index into ``ops``; its two subtrees are the two that
    end just before it, left then right.  So equal trees compare equal.
    """

    t: int
    ops: tuple[CompositionOp, ...]
    code: tuple[int, ...]

    def __post_init__(self):
        if self.t < 1:
            raise RwmsoError("width must be at least 1")
        if any([getattr(r, "t", None) for r in op] != [self.t] * 3 for op in self.ops):
            raise RwmsoError(f"an operator is three relabelings of width {self.t}")
        if len(set(self.ops)) != len(self.ops):
            raise RwmsoError("operators must be distinct")
        subtrees = used = 0   # subtrees finished so far, operators used so far
        for c in self.code:
            if c == LEAF:
                subtrees += 1
            elif type(c) is not int or not 0 <= c <= used or c >= len(self.ops):
                raise RwmsoError(f"operator index {c!r} out of range or first-use order")
            elif subtrees < 2:
                raise RwmsoError("an inner node has fewer than two children")
            else:
                used += c == used
                subtrees -= 1
        if subtrees != 1 or used != len(self.ops):
            raise RwmsoError(f"code builds {subtrees} trees with {used} of "
                             f"{len(self.ops)} operators, not one tree using all")

    def size(self) -> int:
        """Total node count |T|."""
        return len(self.code)


def fold(tree: ParseTree, leaf: T,
         combine_for: Callable[[CompositionOp], Callable[[T, T], T]]) -> T:
    """Evaluate the tree leaves-to-root, in post-order: every leaf is
    ``leaf``, every inner node ``step(left, right)`` of its operands, where
    ``step = combine_for(op)`` is made once per operator of the table."""
    steps = [combine_for(op) for op in tree.ops]
    results: list[T] = []
    push, pop = results.append, results.pop
    for c in tree.code:
        if c < 0:   # LEAF
            push(leaf)
        else:
            right = pop()
            results[-1] = steps[c](results[-1], right)
    return results[0]


def leaf_vertex(t: int) -> Structure:
    """The structure every leaf creates: one vertex with label {1}."""
    if t < 1:
        raise RwmsoError("leaf vertices carry label 1; need t >= 1")
    return Structure(1, t, (0,), (1,))


def generate_graph(tree: ParseTree) -> Structure:
    """Apply the operators leaves-to-root and return the generated graph."""
    return fold(tree, leaf_vertex(tree.t),
                lambda op: lambda left, right: compose(left, right, *op))


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
    heads = [f"(o {' '.join(_format_matrix(m) for m in op)} " for op in tree.ops]
    # Read backwards, the code meets a node, its right subtree, then its
    # left one: the text comes out back to front, ")" right " " left head.
    parts: list[str] = []
    open_ops: list[int] = []   # inner nodes still missing a child
    missing: list[int] = []    # and how many children each misses
    for c in reversed(tree.code):
        if c != LEAF:
            parts.append(")")
            open_ops.append(c)
            missing.append(2)
            continue
        parts.append("(v)")
        while missing:         # a finished subtree is a child of the top node
            missing[-1] -= 1
            if missing[-1]:
                parts.append(" ")
                break
            missing.pop()
            parts.append(heads[open_ops.pop()])
    return f"t={tree.t}\n" + "".join(reversed(parts)) + "\n"


def _parse_matrix(token: str, t: int) -> Relabeling:
    rows = token.split(";")
    if len(rows) != t or any(len(r) != t or set(r) - {"0", "1"} for r in rows):
        raise RwmsoError(f"bad {t}x{t} matrix {token!r}")
    return Relabeling(tuple(
        sum(1 << j for j, ch in enumerate(row) if ch == "1") for row in rows))


def _read_chunk(chunk: str, t: int, heads: dict[CompositionOp, int]) -> int:
    """What a chunk of text between two "(" is: an inner node's head, as
    the number of its operator in ``heads`` (added if new), or -k for a
    leaf "v" followed by k ")"s: its own, then one per subtree it ends."""
    words = chunk.replace(")", " ) ").split()
    if words[:1] == ["o"] and ")" not in words:
        if len(words) != 4:
            raise RwmsoError(f"expected three matrices, got {len(words) - 1}")
        return heads.setdefault(tuple(_parse_matrix(m, t) for m in words[1:]), len(heads))
    if words[:2] != ["v", ")"] or words.count(")") != len(words) - 1:
        raise RwmsoError(f"expected '(v)' or '(o M M M', got {'(' + chunk.strip()!r}")
    return 1 - len(words)


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
    # Split at "(", each chunk is one node, read once per distinct text.
    # The scan then appends each node to the code where it ends, keeping
    # ints only: the open inner nodes as 2 * head + (left child done).
    chunks = iter(" ".join(lines[1:]).split("("))
    first = next(chunks)
    if first.strip():
        raise RwmsoError(f"expected '(', got {first.split()[0]!r}")
    kinds: dict[str, int] = {}
    heads: dict[CompositionOp, int] = {}
    index: dict[int, int] = {}   # head -> its operator's index, from its first close
    code: list[int] = []
    stack: list[int] = []
    for chunk in chunks:
        kind = kinds.get(chunk)
        if kind is None:
            kind = kinds[chunk] = _read_chunk(chunk, t, heads)
        if kind >= 0:
            stack.append(kind << 1)
            continue
        code.append(LEAF)
        closes = -1 - kind
        while stack and stack[-1] & 1:   # a right child ends its parent
            if not closes:
                raise RwmsoError("expected ')'")
            closes -= 1
            code.append(index.setdefault(stack.pop() >> 1, len(index)))
        if closes:
            raise RwmsoError("unexpected ')'")
        if not stack:
            break
        stack[-1] |= 1
    else:
        raise RwmsoError("unexpected end of tree")
    if next(chunks, None) is not None:
        raise RwmsoError("trailing input after tree")
    ops = list(heads)   # distinct; index numbers them by post-order first use
    return _unchecked(ParseTree, t, tuple(ops[h] for h in index), tuple(code))


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
    t = native if t is None else t
    if t < native:
        raise RwmsoError(f"family {family!r} needs width >= {native}")

    one = _pad((1,), t)      # every label to {1}
    zero = Relabeling.zero(t)
    ident = Relabeling.identity(t)
    if family.startswith("cograph"):
        code: list[int] = []
        _balanced(n, code)
        op = (zero, ident, ident) if family == "cograph-union" else (one, one, one)
        return _unchecked(ParseTree, t, (op,) if n > 1 else (), tuple(code))
    if family == "cycle":
        # invariant: start {1}, active end {2}, interior unlabeled
        to_end = _pad((2,), t)           # new vertex becomes the end
        keep_start = _pad((1, 0), t)     # retire the end, keep the start
        runs = [((ident, ident, to_end), 1),
                ((_pad((2,), t), keep_start, to_end), n - 3),
                ((_pad((3,), t), zero, zero), 1)]
    else:
        # star: only the center keeps label {1}; path: only the growing end
        runs = [({"complete": (one, one, one), "star": (one, ident, zero),
                  "path": (one, zero, one)}[family], n - 1)]
    # a left-deep caterpillar: each run adds count leaves, bottom up
    runs = [(op, count) for op, count in runs if count]
    code = [LEAF]
    for k, (_, count) in enumerate(runs):
        code += (LEAF, k) * count
    return _unchecked(ParseTree, t, tuple(op for op, _ in runs), tuple(code))


def _balanced(n: int, code: list[int]):
    """Append the post-order of a balanced tree on n leaves, one operator."""
    if n == 1:
        code.append(LEAF)
        return
    half = n // 2
    _balanced(n - half, code)
    _balanced(half, code)
    code.append(0)
