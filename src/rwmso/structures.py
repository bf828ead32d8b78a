"""t-labeled graphs as relational structures, and their labeling algebra.

A structure has universe {0..n-1}, a symmetric edge relation and t unary
label relations.  Labels are stored as one t-bit row per element, so all
labeling operations are GF(2) bitset arithmetic (see gf2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import gf2
from .errors import RwmsoError, WidthMismatchError


@dataclass(frozen=True)
class Structure:
    """Graph over vocabulary {E, L1..Lt}; universe is 0..n-1.

    adj[u] has bit v set iff {u,v} is an edge; labels[u] has bit i-1 set
    iff u carries label i.
    """

    n: int
    t: int
    adj: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or self.t < 0:
            raise RwmsoError("negative size")
        if len(self.adj) != self.n or len(self.labels) != self.n:
            raise RwmsoError("row count does not match universe size")
        adj = self.adj
        for u, row in enumerate(adj):
            if row >> self.n:
                raise RwmsoError(f"adjacency row {u} references missing vertices")
            if (row >> u) & 1:
                raise RwmsoError(f"loop at vertex {u}")
            # walk the set bits: linear in the edges, not in n^2
            while row:
                low = row & -row
                if not (adj[low.bit_length() - 1] >> u) & 1:
                    raise RwmsoError("adjacency not symmetric")
                row ^= low
        if any(lab >> self.t for lab in self.labels):
            raise RwmsoError("label row wider than t")

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if (self.adj[u] >> v) & 1]

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def _unchecked(cls: type, *values):
    """A Structure or ParseTree from field values known to be valid.

    Library code that derives one from validated input (the composition,
    induced substructures, the parse-tree text reader and the families)
    builds it here and skips ``__post_init__``; user input goes through
    ``cls(...)``, which validates.
    """
    obj = object.__new__(cls)
    # set the fields in the generated __init__'s order, so the instance
    # keeps the compact attribute layout (a materialised __dict__ doubles it)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


def build_structure(n: int, edges: Iterable[tuple[int, int]] = (), t: int = 1,
                    labels: Sequence[int] | None = None) -> Structure:
    """Convenience constructor from an edge list and optional label rows."""
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise RwmsoError(f"loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if labels is None:
        labels = [0] * n
    return Structure(n, t, tuple(adj), tuple(labels))


@dataclass(frozen=True)
class Relabeling:
    """Linear map on GF(2)^t; rows[i] is the image of label i+1."""

    rows: tuple[int, ...]

    def __post_init__(self):
        t = len(self.rows)
        if any(r >> t for r in self.rows):
            raise RwmsoError("relabeling row wider than t")

    @property
    def t(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(t: int) -> "Relabeling":
        return Relabeling(gf2.identity(t))

    @staticmethod
    def zero(t: int) -> "Relabeling":
        return Relabeling((0,) * t)


def _check_width(*widths: int) -> int:
    if len(set(widths)) > 1:
        raise WidthMismatchError(f"label widths differ: {widths}")
    return widths[0]


def compose(g1: Structure, g2: Structure, g: Relabeling, f1: Relabeling,
            f2: Relabeling) -> Structure:
    """Join g1 with g(g2), then relabel the two parts by f1 and f2.

    Cross edges: {u,v} iff lab1(u) . (lab2(v) x T_g) = 1.  Not commutative.
    """
    vtm = gf2.vec_times_matrix
    rows, rows1, rows2 = g.rows, f1.rows, f2.rows
    t = g1.t
    if not t == g2.t == len(rows) == len(rows1) == len(rows2):
        _check_width(g1.t, g2.t, g.t, f1.t, f2.t)
    n1 = g1.n
    labels2 = [vtm(lab, rows) for lab in g2.labels]
    adj = list(g1.adj)
    col = [0] * g2.n  # per g2 vertex, the bitmask of g1 vertices joined to it
    for u, lab1 in enumerate(g1.labels):
        row = 0
        for v, lab2 in enumerate(labels2):
            if (lab1 & lab2).bit_count() & 1:
                row |= 1 << v
                col[v] |= 1 << u
        adj[u] |= row << n1
    adj.extend(row << n1 | c for row, c in zip(g2.adj, col))
    labels = tuple([vtm(lab, rows1) for lab in g1.labels]
                   + [vtm(lab, rows2) for lab in g2.labels])
    return _unchecked(Structure, n1 + g2.n, t, tuple(adj), labels)


@dataclass(frozen=True)
class OrderedStructure:
    """Induced structure on the entries of a vector, remembering order.

    Positions that name the same element fall into one class; classes are
    renamed 0..k-1 in order of first occurrence, which makes equality of
    ordered structures plain structural equality.  set_traces[j] is the
    bitmask (over class ids) of the j-th chosen set intersected with the
    vector's entries.
    """

    structure: Structure
    positions: tuple[int, ...]
    set_traces: tuple[int, ...]

    def encode(self) -> str:
        s = self.structure
        adj = ",".join(format(s.adj[u], f"0{max(s.n, 1)}b")[::-1] for u in range(s.n))
        lab = ",".join(format(s.labels[u], f"0{max(s.t, 1)}b")[::-1] for u in range(s.n))
        pos = ",".join(str(i) for i in self.positions)
        tr = ",".join(str(mask) for mask in self.set_traces)
        return f"k={s.n};adj={adj};lab={lab};pos={pos};tr={tr}"


def _as_masks(a_n: int, sets: Sequence[Iterable[int] | int]) -> list[int]:
    masks = []
    for s in sets:
        if isinstance(s, int):
            mask = s
        else:
            mask = 0
            for e in s:
                mask |= 1 << e
        if mask >> a_n:
            raise RwmsoError("set entry outside universe")
        masks.append(mask)
    return masks


def ordered_induced(a: Structure, c: Sequence[int],
                    sets: Sequence[Iterable[int] | int] = ()) -> OrderedStructure:
    """Ordered structure induced by the vector c with traces of the sets.

    Sets may be given as iterables of element ids or as bitmasks.
    """
    masks = _as_masks(a.n, sets)
    n, adj_rows = a.n, a.adj
    seen: dict[int, int] = {}
    elems: list[int] = []
    positions = []
    for e in c:
        cls = seen.get(e)
        if cls is None:
            if not 0 <= e < n:
                raise RwmsoError(f"element {e} outside universe")
            cls = seen[e] = len(elems)
            elems.append(e)
        positions.append(cls)
    k = len(elems)
    adj = []
    for e in elems:
        row_e = adj_rows[e]
        row = 0
        for j, e2 in enumerate(elems):
            if (row_e >> e2) & 1:
                row |= 1 << j
        adj.append(row)
    labels = tuple(map(a.labels.__getitem__, elems))
    traces = []
    for mask in masks:
        tr = 0
        for j, e in enumerate(elems):
            if (mask >> e) & 1:
                tr |= 1 << j
        traces.append(tr)
    struct = _unchecked(Structure, k, a.t, tuple(adj), labels)
    return OrderedStructure(struct, tuple(positions), tuple(traces))


# --- graph text format -------------------------------------------------
#
# header "p graph <n> <m> <t>", then "v <id> <t-bit label string>" lines
# (optional; labels default to all-zero) and "e <u> <v>" lines.  Lines
# starting with "c" are comments.

def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise RwmsoError(f"line {lineno}: expected an integer, got {token!r}") from None


@dataclass(frozen=True)
class GraphText:
    """Graph text checked line by line, with no row built yet: a caller
    can refuse a large header n before build() makes n rows."""

    n: int
    t: int
    edges: dict[tuple[int, int], int]   # (min, max) -> line
    labels: dict[int, tuple[int, int]]  # vertex -> (label, line)

    def build(self) -> Structure:
        labels = [self.labels[u][0] if u in self.labels else 0 for u in range(self.n)]
        return build_structure(self.n, self.edges, self.t, labels)


def read_graph(text: str) -> GraphText:
    n = m = t = header = None
    labels: dict[int, tuple[int, int]] = {}
    edges: dict[tuple[int, int], int] = {}  # (min, max) -> line
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise RwmsoError(f"line {lineno}: duplicate header")
            if len(parts) != 5 or parts[1] != "graph":
                raise RwmsoError(f"line {lineno}: expected 'p graph <n> <m> <t>'")
            n, m, t = (_int(tok, lineno) for tok in parts[2:])
            header = lineno
            if n < 0 or t < 0:
                raise RwmsoError(f"line {lineno}: negative size (n={n}, t={t})")
            if m < 0:
                raise RwmsoError(f"line {lineno}: negative edge count {m}")
        elif parts[0] == "v":
            if n is None:
                raise RwmsoError(f"line {lineno}: vertex line before header")
            if len(parts) != 3:
                raise RwmsoError(f"line {lineno}: expected 'v <id> <bits>'")
            u = _int(parts[1], lineno)
            bits = parts[2]
            if not 0 <= u < n:
                raise RwmsoError(f"line {lineno}: vertex {u} out of range")
            if len(bits) != t or set(bits) - {"0", "1"}:
                raise RwmsoError(f"line {lineno}: label must be {t} bits")
            if u in labels:
                raise RwmsoError(
                    f"line {lineno}: vertex {u} repeats the label on line {labels[u][1]}")
            labels[u] = (sum(1 << i for i, ch in enumerate(bits) if ch == "1"), lineno)
        elif parts[0] == "e":
            if n is None:
                raise RwmsoError(f"line {lineno}: edge line before header")
            if len(parts) != 3:
                raise RwmsoError(f"line {lineno}: expected 'e <u> <v>'")
            u, v = _int(parts[1], lineno), _int(parts[2], lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise RwmsoError(f"line {lineno}: edge endpoint out of range")
            if u == v:
                raise RwmsoError(f"line {lineno}: loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in edges:
                raise RwmsoError(
                    f"line {lineno}: edge {u} {v} repeats the edge on line {edges[key]}")
            edges[key] = lineno
        else:
            raise RwmsoError(f"line {lineno}: unknown line type {parts[0]!r}")
    if n is None:
        raise RwmsoError("missing 'p graph' header")
    if len(edges) != m:
        raise RwmsoError(f"line {header}: header declares {m} edges, found {len(edges)}")
    return GraphText(n, t, edges, labels)


def parse_graph(text: str) -> Structure:
    return read_graph(text).build()


def format_graph(g: Structure) -> str:
    lines = [f"p graph {g.n} {g.num_edges()} {g.t}"]
    for u in range(g.n):
        if g.labels[u]:
            bits = "".join("1" if (g.labels[u] >> i) & 1 else "0" for i in range(g.t))
            lines.append(f"v {u} {bits}")
    for u, v in g.edges():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"
