"""Traced runs: spans around the public functions of each layer.

The tracer replaces functions at the module attributes the callers look
them up through, records one span per call in memory (name, start, end,
parent span, op id) and puts every original back when the run ends.
Nothing inside ``src/`` changes.  A span's self time is its duration
minus the durations of its direct children, so the self times of all
spans add up to the traced ops' wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

# (module under rwmso, attribute) wrapped at the call sites the CLI uses.
TARGETS = (
    ("cli", "parse_tree_from_text"),
    ("cli", "parse_formula"),
    ("cli", "char_tree_from_parse_tree"),
    ("cli", "game_on_tree"),
    ("cli", "solve_linemso"),
    ("chartree", "tree_cross_product"),
    ("chartree", "rename_combine"),
    ("chartree", "compose"),
    ("chartree", "ordered_induced"),
    ("linemso", "tree_cross_product"),
    ("linemso", "reduced_char_tree_direct"),
    ("linemso", "game_on_tree"),
)
OP = "op"
INTERN = "RCForest.intern"
NAMES = (OP,) + tuple(f"{mod}.{attr}" for mod, attr in TARGETS) + (INTERN,)


class Tracer:
    def __init__(self, rwmso):
        self.rwmso = rwmso
        self.game_stats = rwmso.GameStats()
        self.kind = array("B")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._op_id = -1
        self.new_nodes = 0

    def _wrap(self, name: str, fn):
        kind = NAMES.index(name)
        kinds, parents, ops = self.kind.append, self.parent.append, self.op.append
        starts, ends, end = self.start.append, self.end.append, self.end
        open_ = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(end)
            kinds(kind)
            parents(open_[-1])
            ops(self._op_id)
            ends(0.0)
            open_.append(idx)
            starts(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()

        return traced

    def _with_stats(self, fn):
        def game_on_tree(*args, **kwargs):
            if len(args) < 5 and "stats" not in kwargs:
                kwargs["stats"] = self.game_stats
            return fn(*args, **kwargs)
        return game_on_tree

    def _counting_new(self, fn):
        def intern(forest, *args, **kwargs):
            before = len(forest)
            out = fn(forest, *args, **kwargs)
            if len(forest) != before:
                self.new_nodes += 1
            return out
        return intern

    def op_main(self, main):
        """``main`` as one op: a root span with a fresh op id."""
        traced = self._wrap(OP, main)

        def op(argv):
            self._op_id += 1
            return traced(argv)
        return op

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for mod, attr in TARGETS:
                module = importlib.import_module(f"rwmso.{mod}")
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                if attr == "game_on_tree":
                    fn = self._with_stats(fn)
                setattr(module, attr, self._wrap(f"{mod}.{attr}", fn))
            forest = self.rwmso.RCForest
            saved.append((forest, "intern", forest.intern))
            forest.intern = self._wrap(INTERN, self._counting_new(forest.intern))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: call count, total time and self time."""
        n = len(self.end)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        count = [0] * len(NAMES)
        total = [0.0] * len(NAMES)
        own = [0.0] * len(NAMES)
        for i, k in enumerate(self.kind):
            d = end[i] - start[i]
            count[k] += 1
            total[k] += d
            own[k] += d - child[i]
        return (dict(zip(NAMES, count)), dict(zip(NAMES, total)),
                dict(zip(NAMES, own)))

    def counts(self) -> dict[str, int]:
        """Work counts; they must repeat exactly for the same inputs."""
        count, _, _ = self.totals()
        return _counts(count, self)

    def write(self, stem: Path) -> None:
        """Write the spans: ``stem.json`` describes the columns of ``stem.bin``."""
        columns = [("kind", self.kind), ("parent", self.parent), ("op", self.op),
                   ("start", self.start), ("end", self.end)]
        header = {"spans": len(self.end), "names": list(NAMES),
                  "byteorder": sys.byteorder,
                  "columns": [[name, col.typecode, col.itemsize] for name, col in columns]}
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)


def _counts(count: dict[str, int], tracer: Tracer) -> dict[str, int]:
    return {
        "chartree.cross_product_calls": (count["chartree.tree_cross_product"]
                                         + count["linemso.tree_cross_product"]),
        "chartree.memo_misses": count["chartree.rename_combine"],
        "chartree.intern_calls": count[INTERN],
        "chartree.interned_nodes": tracer.new_nodes,
        "games.evaluations": tracer.game_stats.evaluations,
        "linemso.pair_products": count["linemso.tree_cross_product"],
        "linemso.root_states": count["linemso.game_on_tree"],
    }


# Per-layer metric -> unit; "s" metrics are seconds summed over the ops.
UNITS = {
    "cli.self_s": "s",
    "parsetree.parse_s": "s",
    "parsetree.nodes_per_s": "1/s",
    "logic.parse_formula_s": "s",
    "chartree.fold_self_s": "s",
    "chartree.rename_combine_s": "s",
    "chartree.intern_s": "s",
    "chartree.cross_product_calls": "count",
    "chartree.memo_misses": "count",
    "chartree.misses_per_parse_node": "count/node",
    "chartree.intern_calls": "count",
    "chartree.interned_nodes": "count",
    "chartree.intern_hit_ratio": "ratio",
    "structures.compose_s": "s",
    "structures.ordered_induced_s": "s",
    "games.game_s": "s",
    "games.evaluations": "count",
    "linemso.dp_self_s": "s",
    "linemso.pair_products": "count",
    "linemso.leaf_direct_s": "s",
    "linemso.root_states": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, parse_nodes: int, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of a traced pass over ops with ``parse_nodes`` nodes.

    Times are self times except where a layer has no wrapped children
    (parse, formula parse, intern, compose, ordered_induced, game).
    """
    count, total, own = tracer.totals()
    c = _counts(count, tracer)
    parse_s = total["cli.parse_tree_from_text"]
    calls = c["chartree.intern_calls"]
    return {
        "cli.self_s": own[OP],
        "parsetree.parse_s": parse_s,
        "parsetree.nodes_per_s": parse_nodes / parse_s if parse_s else 0.0,
        "logic.parse_formula_s": total["cli.parse_formula"],
        "chartree.fold_self_s": (own["cli.char_tree_from_parse_tree"]
                                 + own["chartree.tree_cross_product"]
                                 + own["linemso.tree_cross_product"]),
        "chartree.rename_combine_s": own["chartree.rename_combine"],
        "chartree.intern_s": total[INTERN],
        "chartree.cross_product_calls": c["chartree.cross_product_calls"],
        "chartree.memo_misses": c["chartree.memo_misses"],
        "chartree.misses_per_parse_node": c["chartree.memo_misses"] / parse_nodes,
        "chartree.intern_calls": calls,
        "chartree.interned_nodes": c["chartree.interned_nodes"],
        "chartree.intern_hit_ratio": (calls - c["chartree.interned_nodes"]) / calls
        if calls else 0.0,
        "structures.compose_s": total["chartree.compose"],
        "structures.ordered_induced_s": total["chartree.ordered_induced"],
        "games.game_s": total["cli.game_on_tree"] + total["linemso.game_on_tree"],
        "games.evaluations": c["games.evaluations"],
        "linemso.dp_self_s": own["cli.solve_linemso"],
        "linemso.pair_products": c["linemso.pair_products"],
        "linemso.leaf_direct_s": own["linemso.reduced_char_tree_direct"],
        "linemso.root_states": c["linemso.root_states"],
        "trace.overhead_s": overhead_s,
    }
