"""Start ``repro serve`` in this process, traced or not.

Usage (the workload starts it; the engine sources must be importable)::

    python3 perfbench/launch_server.py --db DIR [--trace 1 --dump FILE --spans FILE]

With ``--trace 1`` the server gets the same spans as the in-process
traced run (see ``perfbench/trace.py``), and SIGUSR1 makes it write what
it collected since the previous SIGUSR1 to ``--dump`` (engine counters,
the per-layer rollup, event-loop timings) and the span trees to
``--spans``, then start collecting afresh.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/launch_server.py")
    parser.add_argument("--db", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump")
    parser.add_argument("--spans")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.cli import main as repro_main

    if args.trace:
        _arm_tracing(args.dump, args.spans)
    return repro_main(["serve", "--db", args.db, "--port", "0"])


def _arm_tracing(dump_path: str, spans_path: str) -> None:
    from perfbench import trace
    from repro.server import core

    recorder = trace.LoopRecorder()
    roots: list = []
    patches = trace.Patches()
    state = {"db": None, "seq": 0}
    init = core.ReproServer.__dict__["__init__"]

    def traced_init(self, stratum, *args, **kwargs):
        init(self, stratum, *args, **kwargs)
        tracer = stratum.db.tracer
        trace.install(tracer, patches)
        trace.install_server(tracer, recorder, roots, patches)
        tracer.enabled = True
        state["db"] = stratum.db

    core.ReproServer.__init__ = traced_init

    def dump(_signum, _frame) -> None:
        db = state["db"]
        state["seq"] += 1
        payload = {
            "seq": state["seq"],
            "stats": db.stats.snapshot(),
            "obs": db.obs.flat(),
            "spans": trace.rollup(roots),
            "loop": {name: list(v) for name, v in recorder.totals.items()},
            "values": dict(recorder.values),
        }
        trace.write_spans(roots, spans_path)
        roots.clear()
        recorder.reset()
        tmp = dump_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as out:
            json.dump(payload, out, default=str)
        os.replace(tmp, dump_path)

    signal.signal(signal.SIGUSR1, dump)


if __name__ == "__main__":
    sys.exit(main())
