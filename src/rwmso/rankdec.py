"""Cut-rank and an exact-rankwidth oracle.

The oracle enumerates every leaf-labeled subcubic tree (there are
(2n-5)!! of them), so it is only meant for verification on tiny graphs.
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


def _side_masks(d: BranchDecomposition) -> list[int]:
    """Per tree edge, the bitmask of graph vertices on the child side."""
    adj: dict[int, list[int]] = {i: [] for i in range(d.num_nodes)}
    for a, b in d.edges:
        adj[a].append(b)
        adj[b].append(a)
    leaf_of = {node: v for v, node in d.leaf_map.items()}
    masks = []
    for a, b in d.edges:
        # vertices on b's side of the edge (a, b)
        mask = 0
        stack = [(b, a)]
        while stack:
            node, parent = stack.pop()
            if node in leaf_of:
                mask |= 1 << leaf_of[node]
            stack.extend((nxt, node) for nxt in adj[node] if nxt != parent)
        masks.append(mask)
    return masks


def _subcubic_trees(n: int):
    """Yield every leaf-labeled subcubic tree on leaves 0..n-1.

    Trees are grown by inserting leaf k into each edge of every tree on
    the first k leaves; each tree is reported as (num_nodes, edges) with
    leaf i being node i.
    """
    if n == 1:
        yield 1, []
        return
    trees = [(n, [(0, 1)])]
    for k in range(2, n):
        grown = []
        for num_nodes, edges in trees:
            for i, (a, b) in enumerate(edges):
                mid = num_nodes
                new_edges = edges[:i] + edges[i + 1:] + [(a, mid), (mid, b), (mid, k)]
                grown.append((num_nodes + 1, new_edges))
        trees = grown
    yield from trees


def exact_rankwidth(g: Structure, force: bool = False) -> tuple[int, BranchDecomposition]:
    """Minimum width over all branch-decompositions, with a witness.

    Exhaustive search; guarded to n <= 8 unless forced.
    """
    if g.n > MAX_EXACT_N and not force:
        raise ScaleGuardError(
            f"exact rankwidth is exhaustive; n = {g.n} exceeds {MAX_EXACT_N}")
    if g.n <= 1:
        # no cut exists; width 0 by convention
        leaf_map = {0: 0} if g.n == 1 else {}
        return 0, BranchDecomposition(g.n, [], leaf_map)

    rank_memo: dict[int, int] = {}
    full = (1 << g.n) - 1

    def masked_rank(mask: int) -> int:
        key = min(mask, full & ~mask)
        r = rank_memo.get(key)
        if r is None:
            r = cut_rank(g, [u for u in range(g.n) if (key >> u) & 1])
            rank_memo[key] = r
        return r

    best_width = g.n + 1
    best = None
    for num_nodes, edges in _subcubic_trees(g.n):
        d = BranchDecomposition(num_nodes, edges, {v: v for v in range(g.n)})
        width = 0
        for mask in _side_masks(d):
            width = max(width, masked_rank(mask))
            if width >= best_width:
                break
        if width < best_width:
            best_width = width
            best = d
    return best_width, best
