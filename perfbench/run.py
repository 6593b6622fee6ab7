"""One command for the benchmark: run a workload, or compare result sets.

Run from the repository root::

    python3 perfbench/run.py --workload tpsm-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload wire-mixed --seed 1 --seconds 25 --trace 1 \\
        --out results/A.jsonl
    python3 perfbench/run.py compare results/A.jsonl results/B.jsonl

A run prints every metric of its workload by name with its unit, one per
line, then, as its last line, one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``metrics`` holds the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  ``--out`` appends the full
record of the run, every metric included, for ``compare``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"

UNITS = {
    "setup_s": "s",
    "max_suite_s": "s",
    "perst_suite_s": "s",
    "auto_suite_s": "s",
    "seqset_suite_s": "s",
    "auto_geomean_ms": "ms",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "ops_per_s": "1/s",
    "store_bytes": "B",
    "recovery_s": "s",
    "peak_rss_mb": "MB",
    "speed_factor": "x",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "_per_row_returned")):
        return "ratio"
    if name.startswith(("wal.bytes", "protocol.bytes")) or name == "checkpoint.bytes":
        return "B"
    return "count"


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the statement order and the write script")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=None,
                        help="generate other data than DS1 (default: DS1)")
    parser.add_argument("--out", help="append the full record as JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no engine sources under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import tpsm, wire

    if args.workload not in tpsm.WORKLOADS and args.workload != wire.NAME:
        known = sorted(tpsm.WORKLOADS) + [wire.NAME]
        return _fail(f"unknown workload {args.workload!r}; expected one of {known}")
    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}.jsonl" if args.trace else None
    if args.workload == wire.NAME:
        report = wire.run(args.seed, args.seconds, bool(args.trace),
                          data_seed=args.data_seed, work=WORK, spans_path=spans_path)
    else:
        report = tpsm.run(args.workload, args.seed, args.seconds, bool(args.trace),
                          data_seed=args.data_seed, spans_path=spans_path)

    for line in report["checks"] + report["failures"]:
        print(f"check  {line}")
    figures = report["layers"] if args.trace else report["metrics"]
    for name in sorted(figures):
        print(f"{name:42s} {figures[name]:16.6f} {unit_of(name)}")
    spec = _benchmark()
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in names if name not in figures]
    if missing:
        return _fail(f"workload {args.workload} does not measure {missing}")
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "correct": report["correct"],
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": figures, "end_to_end": report["metrics"],
        }
        with open(args.out, "a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": figures[name], "unit": unit_of(name)} for name in names
        },
    }))
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        sys.path.insert(0, str(ROOT))
        from perfbench import compare

        return compare.main(argv[1:], _benchmark())
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
