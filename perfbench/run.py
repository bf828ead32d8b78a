"""Benchmark of the rwmso command line, run from outside in one process.

    python3 perfbench/run.py --workload check-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, a table

Each op is what a user runs, ``rwmso check|optimize ... --json`` on a
parse-tree file, called as ``rwmso.cli.main(argv)`` by one closed-loop
client with stdout captured, and its answer is checked against the
closed forms in ``oracle.py``.  A set-up imports ``rwmso`` from ``src/``
and writes the seeded inputs under ``.perfbench/``; ``setup_s`` is the
median of ``SETUPS`` set-ups in the run, each of which imports the
program's modules, and the pure-Python modules they pull in, afresh.  The
interpreter's start and the benchmark's own imports are not in it.

``--trace 0`` runs ``workloads.rounds`` rounds with tracing off and prints
the end-to-end metrics.  Host speed: on cores shared with other machines'
work, the speed of the same code changes by a third from run to run and
within a run from second to second.  So a fixed pure-Python kernel
(``reference``) is timed before the first op and after every op, and each
op's time, and each set-up's, is scaled by ``REFERENCE_S`` over the mean
of the two kernel times around it: the figures are seconds on a host
where the kernel takes ``REFERENCE_S``.  The unscaled figures are printed
beside them.

``--trace 1`` runs each op of one round untraced and then twice traced
(``tracing.py``): it prints the per-layer metrics of the first traced run,
checks that both traced runs give the same counts, and writes the spans
to ``.perfbench/trace-<workload>.{json,bin}``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any op
failed or gave a wrong answer, and 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUPS = 5
REFERENCE_S = 0.020   # near the kernel's median time on a calm 2-core host, Python 3.11.7
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
         "latency_tail_s": "s", "peak_rss_mb": "MB"}


def setup(name: str, seed: int):
    """Import the program from this checkout's ``src/`` and write the inputs.

    Done ``SETUPS`` times: each set-up after the first drops the modules the
    first one added, all but compiled extensions, so that it imports them
    again.  Returns the module, one round of ops and the median set-up
    time, unscaled and scaled.
    """
    sys.path.insert(0, str(ROOT / "src"))
    loaded = set(sys.modules)
    added: list[str] = []
    times, kernel = [], [reference()]
    for _ in range(SETUPS):
        for module in added:
            del sys.modules[module]
        start = time.perf_counter()
        import rwmso
        import rwmso.cli  # noqa: F401
        ops = workloads.prepare(name, seed, WORK / name, rwmso)
        times.append(time.perf_counter() - start)
        kernel.append(reference())
        added = [m for m in set(sys.modules) - loaded
                 if str(getattr(sys.modules[m], "__file__", "")).endswith(".py")]
    return rwmso, ops, (statistics.median(times),
                        statistics.median(scaled(times, kernel)))


def reference() -> float:
    """Wall time of a fixed kernel (list, sort, dict and str work), GC off."""
    gc.disable()
    start = time.perf_counter()
    rows = sorted((i * 7919 % 10007, i % 13, str(i)) for i in range(20000))
    index = {}
    for a, b, c in rows:
        index.setdefault((a % 251, b), []).append(c)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def scaled(times: list[float], kernel: list[float]) -> list[float]:
    """``times[i]`` scaled by the kernel times just before and after it."""
    return [t * 2 * REFERENCE_S / (before + after)
            for t, before, after in zip(times, kernel, kernel[1:])]


def run_op(main, op) -> tuple[float, bool]:
    """Run one op through ``main``; its wall time and whether it was right."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed op, not a failed run
            code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    ok = workloads.verify(op, code, out.getvalue())
    if not ok:
        print(f"wrong or failed op {op.family} n={op.n} {op.key}: exit {code!r}, "
              f"stdout {out.getvalue()[-200:]!r}, stderr {err.getvalue()[-200:]!r}",
              file=sys.stderr)
    return elapsed, ok


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value, percentile and samples above of the highest rank with ten above.

    With fewer than eleven samples this is the minimum.
    """
    ranked = sorted(samples)
    idx = max(0, len(ranked) - 11)
    return ranked[idx], 100.0 * (idx + 1) / len(ranked), len(ranked) - idx - 1


def untraced(name: str, seed: int, seconds: float, rwmso, ops, setup_s: tuple[float, float]):
    n_rounds = workloads.rounds(name, seconds)
    sequence = [op for r in range(n_rounds) for op in workloads.order(ops, seed, r)]
    main = rwmso.cli.main
    kernel, results = [reference()], []
    start = time.perf_counter()
    for op in sequence:
        results.append(run_op(main, op))
        kernel.append(reference())
    window = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = [t for t, _ in results]
    times = scaled(raw, kernel)
    good = sum(ok for _, ok in results)
    failed = len(results) - good
    tail_s, tail_pct, above = tail(times)
    metrics = {"setup_s": setup_s[1], "ops_per_s": good / sum(times),
               "latency_p50_s": statistics.median(times),
               "latency_tail_s": tail_s, "peak_rss_mb": peak_rss_mb}
    print(f"workload {name}  seed {seed}  {len(ops)} ops x {n_rounds} rounds  "
          f"window {window:.3f} s  kernel {min(kernel) * 1e3:.2f}-"
          f"{max(kernel) * 1e3:.2f} ms, median {statistics.median(kernel) * 1e3:.2f}")
    notes = {"setup_s": f"median of {SETUPS} imports and input generations; "
                        f"unscaled {setup_s[0]:.4g}",
             "ops_per_s": f"correct ops / their summed time; unscaled {good / sum(raw):.4g}",
             "latency_p50_s": f"{len(times)} samples; unscaled {statistics.median(raw):.4g}",
             "latency_tail_s": f"p{tail_pct:.1f} of {len(times)} samples, {above} above; "
                               f"unscaled {tail(raw)[0]:.4g}"}
    for key, value in metrics.items():
        print(f"  {key:<16} {value:>12.6g} {UNITS[key]:<4} {notes.get(key, '')}")
    print(f"  {'error_rate':<16} {failed / len(results):>12.6g}      "
          f"{failed} of {len(results)} ops failed or wrong")
    return len(results), failed, True, {
        k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def traced(name: str, seed: int, rwmso, ops):
    """One round; each op runs untraced, then traced twice, back to back."""
    sequence = workloads.order(ops, seed, 0)
    main = rwmso.cli.main
    tracers = (tracing.Tracer(rwmso), tracing.Tracer(rwmso))
    plain, traced_runs = [], ([], [])
    for op in sequence:
        plain.append(run_op(main, op))
        for tracer, results in zip(tracers, traced_runs):
            with tracer.installed():
                results.append(run_op(tracer.op_main(main), op))
    first, second = tracers
    overhead = sum(t for t, _ in traced_runs[0]) - sum(t for t, _ in plain)
    metrics = tracing.layer_metrics(first, sum(op.parse_nodes for op in sequence),
                                    overhead)
    first.write(WORK / f"trace-{name}")
    counts_a, counts_b = first.counts(), second.counts()
    repeat = counts_a == counts_b
    results = plain + traced_runs[0] + traced_runs[1]
    failed = sum(not ok for _, ok in results)
    print(f"workload {name}  seed {seed}  traced ops {len(sequence)} x 2, "
          f"{len(first.end)} spans  counts repeat: {repeat}")
    for key, value in metrics.items():
        print(f"  {key:<32} {value:>14.6g} {tracing.UNITS[key]}")
    if not repeat:
        print(f"counts differ between traced passes: {counts_a} vs {counts_b}",
              file=sys.stderr)
    return len(results), failed, repeat, {
        k: {"value": v, "unit": tracing.UNITS[k]} for k, v in metrics.items()}


def run_all(args) -> int:
    """Each workload in a fresh process; print every workload's metric lines."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        rwmso, ops, setup_s = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        attempted, failed, correct, metrics = traced(args.workload, args.seed, rwmso, ops)
    else:
        attempted, failed, correct, metrics = untraced(
            args.workload, args.seed, args.seconds, rwmso, ops, setup_s)
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
