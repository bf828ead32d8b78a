"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``.

The closed forms in ``oracle.py`` are checked against brute-force
``rwmso.evaluate`` on every family member with n <= 8, and the tracer
against its own invariants.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import rwmso  # noqa: E402
import rwmso.cli  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAMILIES = ("path", "cycle", "star", "cograph-join")
SMALL = [(family, n) for family in FAMILIES for n in range(1, 9)
         if family != "cycle" or n >= 3]


def graph(family: str, n: int):
    return rwmso.generate_graph(rwmso.family_tree(family, n, workloads.WIDTH))


@pytest.mark.parametrize("family,n", SMALL)
def test_edges_match_the_generated_graph(family, n):
    edges = sorted(tuple(sorted(e)) for e in oracle.edges(family, n))
    assert edges == graph(family, n).edges()


@pytest.mark.parametrize("family,n", SMALL)
def test_sentence_closed_forms_match_brute_force(family, n):
    texts = {entry.name: entry.text for entry in rwmso.CATALOG}
    g = graph(family, n)
    for name in oracle.SENTENCES:
        phi = rwmso.parse_formula(texts[name], workloads.WIDTH)
        assert oracle.expected_truth(name, family, n) == rwmso.evaluate(g, phi), name


@pytest.mark.parametrize("family,n", [(f, n) for f, n in SMALL if f in ("path", "cycle")])
def test_problem_closed_forms_and_feasibility_match_brute_force(family, n):
    g = graph(family, n)
    for name, (text, direction, _) in oracle.PROBLEMS.items():
        phi = rwmso.parse_formula(text, workloads.WIDTH)
        sizes = []
        for k in range(n + 1):
            for subset in itertools.combinations(range(n), k):
                chosen = set(subset)
                holds = rwmso.evaluate(g, phi, rwmso.Assignment(sets={"X": frozenset(chosen)}))
                assert oracle.feasible(name, family, n, chosen) == holds, (name, chosen)
                if holds:
                    sizes.append(k)
        best = max(sizes) if direction == "max" else min(sizes)
        assert oracle.expected_optimum(name, family, n) == best, name


def _op(command, family, n, key):
    return workloads.Op(command, family, n, key, ())


def test_verify_rejects_wrong_answers_and_witnesses():
    check = _op("check", "cycle", 6, "two-colorable")
    assert workloads.verify(check, 0, 'true\n{"answer": true}\n')
    assert not workloads.verify(check, 1, 'false\n{"answer": false}\n')
    assert not workloads.verify(check, 1, 'true\n{"answer": true}\n')
    assert not workloads.verify(check, 2, "")
    mis = _op("optimize", "path", 5, "max-independent-set")
    assert workloads.verify(mis, 0, json.dumps({"answer": 3, "witness": [[0, 2, 4]]}))
    assert not workloads.verify(mis, 0, json.dumps({"answer": 3, "witness": [[0, 1, 4]]}))
    assert not workloads.verify(mis, 0, json.dumps({"answer": 2, "witness": [[0, 2]]}))


def test_inputs_depend_only_on_the_seed(tmp_path):
    first = workloads.prepare("optimize-dp", 7, tmp_path / "a", rwmso)
    again = workloads.prepare("optimize-dp", 7, tmp_path / "b", rwmso)
    other = workloads.prepare("optimize-dp", 8, tmp_path / "c", rwmso)
    assert [(op.family, op.n, op.key) for op in first] == \
        [(op.family, op.n, op.key) for op in again]
    assert [op.n for op in first] != [op.n for op in other]
    assert workloads.order(first, 7, 1) == workloads.order(first, 7, 1)
    for name in workloads.WORKLOADS:
        assert workloads.rounds(name, 0) == 1


def _small_ops(tmp_path):
    ops = []
    for command, family, n, key in (("check", "cycle", 8, "two-colorable"),
                                    ("check", "path", 8, "has-triangle"),
                                    ("optimize", "path", 8, "min-dominating-set")):
        path = tmp_path / f"{family}-{n}.pt"
        path.write_text(rwmso.format_parse_tree(rwmso.family_tree(family, n, 2)))
        if command == "check":
            text = {e.name: e.text for e in rwmso.CATALOG}[key]
            argv = ("check", "--parse-tree", str(path), "--formula", text, "--json")
        else:
            text, direction, _ = oracle.PROBLEMS[key]
            argv = ("optimize", "--parse-tree", str(path), "--formula", text,
                    "--weights", "1", "--direction", direction, "--json")
        ops.append(workloads.Op(command, family, n, key, argv))
    return ops


def test_tracer_counts_repeat_and_originals_are_restored(tmp_path):
    ops = _small_ops(tmp_path)
    originals = {(mod, attr): getattr(sys.modules[f"rwmso.{mod}"], attr)
                 for mod, attr in tracing.TARGETS}
    intern = rwmso.RCForest.intern
    counts, tracers = [], []
    for _ in range(2):
        tracer = tracing.Tracer(rwmso)
        with tracer.installed():
            results = [run.run_op(tracer.op_main(rwmso.cli.main), op) for op in ops]
        assert all(ok for _, ok in results)
        counts.append(tracer.counts())
        tracers.append((tracer, results))
    assert counts[0] == counts[1]
    assert counts[0]["chartree.memo_misses"] > 0
    assert counts[0]["linemso.pair_products"] > 0
    assert counts[0]["games.evaluations"] > 0
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[f"rwmso.{mod}"], attr) is fn
    assert rwmso.RCForest.intern is intern

    tracer, results = tracers[0]
    metrics = tracing.layer_metrics(tracer, sum(op.parse_nodes for op in ops), 0.0)
    assert set(metrics) == set(tracing.UNITS)
    count, total, own = tracer.totals()
    assert count[tracing.OP] == len(ops)
    assert set(tracer.op) == set(range(len(ops)))
    # self times partition the traced ops' wall time
    assert sum(own.values()) == pytest.approx(total[tracing.OP], rel=1e-9)
    assert total[tracing.OP] <= sum(t for t, _ in results)

    tracer.write(tmp_path / "trace")
    header = json.loads((tmp_path / "trace.json").read_text())
    size = sum(itemsize for _, _, itemsize in header["columns"])
    assert (tmp_path / "trace.bin").stat().st_size == size * header["spans"]


def test_tail_leaves_ten_samples_above():
    assert run.tail([float(i) for i in range(30)]) == (19.0, pytest.approx(200 / 3), 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, pytest.approx(100 / 3), 2)


def test_scaled_divides_by_the_kernel_times_around_each_sample():
    ref = run.REFERENCE_S
    assert run.scaled([1.0, 3.0], [ref, ref, 3 * ref]) == pytest.approx([1.0, 1.5])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "check-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
