"""Compare two result sets written by ``run.py --out``.

Usage::

    python3 perfbench/run.py compare A.jsonl B.jsonl

A is the baseline.  Run the two sides alternately (A, B, A, B, ...), so
record i of A and record i of B form a pair.  For every workload and
metric this prints each side's median and quartiles, the share of
pairs B won, and a verdict:

* ``regression``: B's median is worse than A's by more than the bound;
* ``improved``: B won at least nine tenths of the pairs and the medians
  differ by more than A's quartile distance;
* ``unresolved``: a side's quartile distance, as a share of its median,
  is wider than the bound, and not every B run beats every A run;
* ``within bound`` otherwise.

Bounds come from ``BENCHMARK.json`` for its ``end_to_end`` metrics and
from :data:`WORKLOAD_BOUNDS` for the figures only some workloads have.
Per-layer counts (traced records) are compared as exact deltas.  A
file that holds traced and untraced runs of a workload also gets the
tracing overhead: the traced end-to-end medians over the untraced ones.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

# figures that are not in every workload, so not in BENCHMARK.json's
# end_to_end list: the same kind of bound, kept here
WORKLOAD_BOUNDS = {
    "max_suite_s": 0.1,
    "perst_suite_s": 0.1,
    "seqset_suite_s": 0.1,
    "read_p95_ms": 0.25,
    "write_p50_ms": 0.15,
    "write_p95_ms": 0.25,
    "store_bytes": 0.25,
    "recovery_s": 0.25,
}


def _load(path: str) -> dict:
    groups = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                groups[(record["workload"], record["trace"])].append(record)
    return groups


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _verdict(a: list, b: list, bound: float, higher: bool) -> tuple:
    a_q1, a_med, a_q3 = _quartiles(a)
    b_q1, b_med, b_q3 = _quartiles(b)
    sign = -1.0 if higher else 1.0
    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if sign * (y - x) < 0) / len(pairs) if pairs else 0.0
    worse = sign * (b_med - a_med) / a_med if a_med else 0.0
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0,
                 (b_q3 - b_q1) / b_med if b_med else 0.0)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if worse > bound and spread <= bound:
        verdict = "regression"
    elif won >= 0.9 and abs(b_med - a_med) > (a_q3 - a_q1):
        verdict = "improved"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return (a_q1, a_med, a_q3), (b_q1, b_med, b_q3), won, verdict


def _overhead(label: str, groups: dict) -> None:
    for workload, traced in sorted(groups):
        if traced or (workload, 1) not in groups:
            continue
        plain, with_trace = groups[(workload, 0)], groups[(workload, 1)]
        ratios = []
        for name in sorted(plain[0]["end_to_end"]):
            untraced = statistics.median(r["end_to_end"][name] for r in plain)
            traced_value = statistics.median(r["end_to_end"][name] for r in with_trace)
            if untraced:
                ratios.append(f"{name} {traced_value / untraced:.2f}x")
        print(f"{label} {workload}: tracing overhead (traced / untraced median):"
              f" {', '.join(ratios)}")


def _is_count(name: str) -> bool:
    return not name.endswith(("_s", "_ratio", "_per_row_returned"))


def main(argv: list, benchmark: dict) -> int:
    if len(argv) != 2:
        print("usage: perfbench/run.py compare A.jsonl B.jsonl")
        return 2
    bounds = dict(WORKLOAD_BOUNDS)
    bounds.update({m["name"]: m["bound"] for m in benchmark["end_to_end"]})
    higher = {
        m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]
        if m["better"] == "higher"
    }
    left, right = _load(argv[0]), _load(argv[1])
    for label, groups in (("A", left), ("B", right)):
        _overhead(label, groups)
    regressions = 0
    for key in sorted(set(left) & set(right)):
        workload, traced = key
        a_runs, b_runs = left[key], right[key]
        print(f"== {workload} ({'traced' if traced else 'untraced'}):"
              f" {len(a_runs)} A runs, {len(b_runs)} B runs")
        for side, runs in (("A", a_runs), ("B", b_runs)):
            failed = {r["failed"] / r["attempted"] for r in runs}
            ok = all(r["correct"] for r in runs)
            print(f"   {side}: failed share {sorted(failed)}, checks {'pass' if ok else 'FAIL'}")
        names = sorted(set(a_runs[0]["metrics"]) & set(b_runs[0]["metrics"]))
        for name in names:
            a = [r["metrics"][name] for r in a_runs]
            b = [r["metrics"][name] for r in b_runs]
            if traced and _is_count(name):
                exact = "" if len(set(a)) == 1 and len(set(b)) == 1 else " (varies)"
                print(f"   {name:40s} A {statistics.median(a):14.4f}"
                      f"  B {statistics.median(b):14.4f}"
                      f"  delta {statistics.median(b) - statistics.median(a):+.4f}{exact}")
                continue
            bound = bounds.get(name)
            (aq1, am, aq3), (bq1, bm, bq3), won, verdict = _verdict(
                a, b, bound if bound is not None else float("inf"), name in higher
            )
            if bound is None:
                verdict = "no bound"
            regressions += verdict == "regression"
            print(f"   {name:40s} A {am:12.4f} [{aq1:.4f}, {aq3:.4f}]"
                  f"  B {bm:12.4f} [{bq1:.4f}, {bq3:.4f}]"
                  f"  B won {won:4.0%}  {verdict}")
    return 1 if regressions else 0
