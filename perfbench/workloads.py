"""Benchmark workloads: seeded inputs, the op list, and answer checks.

A workload is a list of groups.  Each group names a graph family, a band
of sizes and the sentences (``check``) or problems (``optimize``) asked
of it.  The seed draws one size per group from its band, so the inputs
change with the seed while the work per round stays close to constant.  One
round runs every op once, in a seeded order; a run is a fixed number of
rounds, so every run of a workload times the same ops the same number
of times.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

QR3 = ("two-colorable", "independent-set-meets-all-edges", "has-triangle")
QR2 = ("has-dominating-vertex", "complete", "label1-dominates", "edgeless")
DP = tuple(oracle.PROBLEMS)
LONG = ((3840, 4095), (4096, 4351))

# Every input is generated at width t=2 (cycles need it; the others are
# padded), as in the ROADMAP's fold measurements.
WIDTH = 2


@dataclass(frozen=True)
class Workload:
    command: str                                   # "check" or "optimize"
    groups: tuple[tuple[str, tuple[int, int], tuple[str, ...]], ...]
    round_s: float   # nominal round time on a 2-core host, Python 3.11


# A run is a few rounds of 24-32 ops.  Percentiles are taken by rank over
# all of a run's op times, so check-deep's few dear cycle ops sit above its
# tail and weigh only in ops_per_s.  Round times include the reference
# kernel that run.py times after each op (~0.02 s).
WORKLOADS = {
    # 24 path ops (~0.3 s each at any n, ~3.8k rename_combine calls) and
    # one cycle op (~3 s, ~27k calls).  The cycle's cost moves by up to a
    # fifth between sizes in 32-256, so its size is fixed.
    "check-deep": Workload("check", tuple(
        ("path", (32 + 28 * i, 59 + 28 * i), QR3) for i in range(8)
    ) + (("cycle", (128, 128), ("two-colorable",)),), 11.2),
    # Two sizes near n=4k of each family (~0.13-0.18 s per op).
    "check-long": Workload("check", tuple(
        (family, band, QR2) for band in LONG
        for family in ("path", "cycle", "star", "cograph-join")
    ), 5.6),
    # Paths of n 32-87 (0.25-0.45 s per op; the cost grows with n, so the
    # bands are narrow) and a cycle of fixed size: cycle DP cost grows
    # steeply with n here (n=6 ~0.2 s, n=9 ~0.6 s).
    "optimize-dp": Workload("optimize", tuple(
        ("path", (32 + 8 * i, 39 + 8 * i), DP) for i in range(7)
    ) + (("cycle", (8, 8), DP),), 10.4),
}


@dataclass(frozen=True)
class Op:
    command: str
    family: str
    n: int
    key: str          # sentence or problem name
    argv: tuple[str, ...]

    @property
    def parse_nodes(self) -> int:
        """Nodes of the op's parse tree: a binary tree with n leaves."""
        return 2 * self.n - 1


def rounds(name: str, seconds: float) -> int:
    """Rounds nearest to ``seconds`` at the nominal round time; at least 1."""
    return max(1, round(seconds / WORKLOADS[name].round_s))


def prepare(name: str, seed: int, workdir: Path, rwmso) -> list[Op]:
    """Generate and write the seeded parse-tree files; return one round."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    texts = {entry.name: entry.text for entry in rwmso.CATALOG}
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for family, (lo, hi), keys in spec.groups:
        n = rng.randint(lo, hi)
        path = workdir / f"{family}-{n}.pt"
        path.write_text(rwmso.format_parse_tree(rwmso.family_tree(family, n, WIDTH)))
        for key in keys:
            if spec.command == "check":
                argv = ("check", "--parse-tree", str(path), "--formula", texts[key],
                        "--json")
            else:
                formula, direction, _ = oracle.PROBLEMS[key]
                argv = ("optimize", "--parse-tree", str(path), "--formula", formula,
                        "--weights", "1", "--direction", direction, "--json")
            ops.append(Op(spec.command, family, n, key, argv))
    return ops


def order(ops: list[Op], seed: int, round_index: int) -> list[Op]:
    """The ops of one round in the seed's order for that round."""
    shuffled = list(ops)
    random.Random(f"{seed}:{round_index}").shuffle(shuffled)
    return shuffled


def verify(op: Op, code, stdout: str) -> bool:
    """Whether the CLI's exit code and ``--json`` record give the right answer."""
    lines = stdout.strip().splitlines()
    if code not in (0, 1) or not lines:
        return False
    try:
        report = json.loads(lines[-1])
    except ValueError:
        return False
    answer = report.get("answer")
    if op.command == "check":
        expected = oracle.expected_truth(op.key, op.family, op.n)
        return answer is expected and code == (0 if expected else 1)
    witness = report.get("witness")
    if code != 0 or not isinstance(witness, list) or len(witness) != 1:
        return False
    chosen = set(witness[0])
    return (answer == oracle.expected_optimum(op.key, op.family, op.n)
            and len(chosen) == answer
            and oracle.feasible(op.key, op.family, op.n, chosen))
