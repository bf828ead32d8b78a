"""The graph text format, read into and written from a Structure.

Header "p graph <n> <m> <t>", then "v <id> <t-bit label string>" lines
(optional; labels default to all-zero) and "e <u> <v>" lines.  Lines
starting with "c" are comments.  Check and optimize read parse trees,
not graphs, so ``import rwmso`` loads this module on first use.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import RwmsoError
from .structures import Structure, build_structure


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise RwmsoError(f"line {lineno}: expected an integer, got {token!r}") from None


class GraphText(NamedTuple):
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
