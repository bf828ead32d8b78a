"""Cut-rank and exact rankwidth.

exact_rankwidth is a dynamic program over the 2^n vertex sets and their
splits (about 3^n steps), so it is meant for small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import gf2
from .errors import RwmsoError, ScaleGuardError
from .structures import Structure

MAX_EXACT_N = 8


@dataclass
class BranchDecomposition:
    """Unrooted subcubic tree with leaves mapped bijectively to vertices.

    Nodes are 0..num_nodes-1; edges is a list of node pairs; leaf_map
    sends each graph vertex to its leaf node.
    """

    num_nodes: int
    edges: list[tuple[int, int]]
    leaf_map: dict[int, int]


def cut_rank(g: Structure, y: Iterable[int]) -> int:
    """GF(2) rank of the adjacency submatrix between Y and its complement."""
    mask = 0
    for u in y:
        if not 0 <= u < g.n:
            raise RwmsoError(f"vertex {u} outside universe")
        mask |= 1 << u
    comp = ((1 << g.n) - 1) & ~mask
    rows = []
    m = mask
    while m:
        u = (m & -m).bit_length() - 1
        rows.append(g.adj[u] & comp)
        m &= m - 1
    return gf2.rank(rows)


def exact_rankwidth(g: Structure, force: bool = False) -> tuple[int, BranchDecomposition]:
    """Minimum width over all branch-decompositions, with a witness.

    A dynamic program over vertex sets in increasing order, so both halves
    of a set come first: width[s], the narrowest rooted tree on the leaves
    of s, is the max of s's cut rank and the least max over its two halves
    (kept in half[s]).  Every tree is leaf 0 joined by one edge to a rooted
    tree on the rest.  About 3^n steps; guarded to n <= 8 unless forced.
    """
    if g.n > MAX_EXACT_N and not force:
        raise ScaleGuardError(
            f"exact rankwidth takes ~3^n steps; n = {g.n} exceeds {MAX_EXACT_N}")
    if g.n <= 1:
        # no cut exists; width 0 by convention
        return 0, BranchDecomposition(g.n, [], {v: v for v in range(g.n)})

    n, full = g.n, (1 << g.n) - 1
    width, half = [0] * full, [0] * full
    for s in range(1, full):
        # splits (a, s ^ a) with a holding the lowest vertex of s, once each
        low = s & -s
        rest = b = s ^ low
        best = n if rest else 0
        while b:
            b = (b - 1) & rest
            w = max(width[low | b], width[s ^ low ^ b])
            if w < best:
                best, half[s] = w, low | b
        width[s] = max(best, cut_rank(g, [u for u in range(n) if s >> u & 1]))

    # read the tree back: each entry is a set and the node it hangs from;
    # vertex v is leaf node v, a larger set a new inner node
    edges, num_nodes = [], n
    stack = [(full ^ 1, 0)]
    while stack:
        s, parent = stack.pop()
        if s & (s - 1):
            node, num_nodes = num_nodes, num_nodes + 1
            stack += (half[s], node), (s ^ half[s], node)
        else:
            node = s.bit_length() - 1
        edges.append((parent, node))
    return width[full ^ 1], BranchDecomposition(num_nodes, edges, {v: v for v in range(n)})
