"""Per-layer attribution for the traced run.

The engine's tracer already opens spans for the statement, the temporal
transform, constant periods, the MAX loop, PERST, SEQ-SET and routine
calls.  :func:`install` adds spans, from outside the engine, around the
public entry points of the layers that have none: the parser, strategy
selection, the planner, the executor, sequenced modifications, MVCC
write claims, WAL commits and checkpoints.  They are opened on the same
tracer, so they nest exactly inside the engine's spans.  A function a
module imported by name is replaced in that module too, since that is
where its callers look it up.

Code that runs on another thread than the engine's (the server's event
loop) must not touch the tracer; :class:`LoopRecorder` times it instead.

:func:`rollup` turns the collected span trees into self time (a span's
duration minus its children's) and span counts per layer.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

from repro.server import core, protocol, session
from repro.sqlengine import checkpoint, engine, parser, planner
from repro.sqlengine.engine import Database
from repro.sqlengine.mvcc import MvccManager
from repro.sqlengine.wal import DurabilityManager
from repro.temporal import heuristic, modifications, stratum

# engine span name (or added span name) → layer
LAYERS = {
    "bench.op": "bench",
    "statement": "stratum",
    "stratum.nonsequenced": "stratum",
    "stratum.transform": "stratum.transform",
    "stratum.constant_periods": "constant_periods",
    "stratum.max.execute": "max.loop",
    "stratum.max.loop": "max.loop",
    "stratum.max.period": "max.loop",
    "stratum.perst.execute": "perst.execute",
    "stratum.seqset.execute": "seqset.execute",
    "routine": "routines",
    "parser": "parser",
    "heuristic": "heuristic",
    "planner": "planner",
    "executor": "executor",
    "modifications": "modifications",
    "mvcc.claim": "mvcc.claim",
    "wal.commit": "wal.commit",
    "checkpoint": "checkpoint",
    "server.session": "server.session",
}

# (owner, attribute, span name): every lookup site of each entry point
ENGINE_TARGETS = [
    (parser, "parse_statement", "parser"),
    (stratum, "parse_statement", "parser"),
    (engine, "parse_statement", "parser"),
    (session, "parse_statement", "parser"),
    (heuristic, "choose_strategy", "heuristic"),
    (planner, "build_select_plan", "planner"),
    (planner, "build_dml_plan", "planner"),
    (Database, "execute_ast", "executor"),
    (modifications, "execute_sequenced_modification", "modifications"),
    (MvccManager, "claim", "mvcc.claim"),
    (DurabilityManager, "commit_buffered", "wal.commit"),
    (checkpoint, "write_checkpoint", "checkpoint"),
]


class Patches:
    """Attribute replacements, undone in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: list = []

    def replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def install(tracer, patches: Patches) -> None:
    """Open a span named after the layer around every engine entry point."""
    for owner, attr, span_name in ENGINE_TARGETS:
        original = owner.__dict__[attr]

        def wrapper(*args, _original=original, _name=span_name, **kwargs):
            with tracer.span(_name):
                return _original(*args, **kwargs)

        patches.replace(owner, attr, functools.wraps(original)(wrapper))


class LoopRecorder:
    """Self time and counts for spans on a thread the tracer must not
    see.  One stack per thread; an async span stays open across its
    awaits, which is exact while one request is in flight at a time."""

    def __init__(self) -> None:
        self._local = threading.local()
        # name → [total seconds, self seconds, count]
        self.totals: dict = defaultdict(lambda: [0.0, 0.0, 0])
        self.values: dict = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> list:
        frame = [time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def leave(self, name: str, frame: list) -> None:
        duration = time.perf_counter() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += duration
        entry = self.totals[name]
        entry[0] += duration
        entry[1] += duration - frame[1]
        entry[2] += 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(name, frame)

        return wrapper

    def wrap_async(self, name: str, fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            frame = self.enter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.leave(name, frame)

        return wrapper

    def reset(self) -> None:
        self.totals.clear()
        self.values.clear()


def install_server(tracer, recorder: LoopRecorder, roots: list, patches: Patches) -> None:
    """Server-side spans: the session call on the engine thread becomes
    the root of each request's span tree (collected into ``roots``);
    dispatch, the hand-off to the engine thread and wire encoding on
    the event loop are timed by ``recorder``."""
    run_statement = session.ServerSession.__dict__["run_statement"]

    @functools.wraps(run_statement)
    def traced_run_statement(self, sql):
        with tracer.span("server.session"):
            result = run_statement(self, sql)
        roots.append(tracer.last_root)
        return result

    patches.replace(session.ServerSession, "run_statement", traced_run_statement)

    db_call = core.ReproServer.__dict__["_db"]

    async def timed_db_call(self, fn, *args):
        submitted = time.perf_counter()

        def started(*inner):
            recorder.values["queue_wait_s"] += time.perf_counter() - submitted
            return fn(*inner)

        return await db_call(self, started, *args)

    patches.replace(
        core.ReproServer, "_db", recorder.wrap_async("server.db_call", timed_db_call)
    )
    patches.replace(
        core.ReproServer,
        "_dispatch",
        recorder.wrap_async("server.dispatch", core.ReproServer.__dict__["_dispatch"]),
    )
    encode_frame = protocol.encode_frame

    def counted_encode_frame(message):
        data = encode_frame(message)
        recorder.values["response_bytes"] += len(data)
        recorder.values["responses"] += 1
        return data

    timed_frame = recorder.wrap("protocol.encode", counted_encode_frame)
    timed_result = recorder.wrap("protocol.encode", protocol.encode_result)
    for owner in (protocol, core):
        patches.replace(owner, "encode_frame", timed_frame)
        patches.replace(owner, "encode_result", timed_result)


def rollup(roots: list) -> dict:
    """Layer → ``{"self_s", "spans"}`` over every span of every root,
    plus ``max.periods``: the constant periods the MAX spans covered."""
    layers: dict = defaultdict(lambda: {"self_s": 0.0, "spans": 0})
    periods = 0
    for root in roots:
        if root is None:
            continue
        for span in root.walk():
            layer = layers[LAYERS.get(span.name, span.name)]
            layer["self_s"] += span.seconds - sum(c.seconds for c in span.children)
            layer["spans"] += 1
            if span.name in ("stratum.max.execute", "stratum.max.loop"):
                periods += int(span.attrs.get("slices") or 0)
    out = {name: dict(value) for name, value in layers.items()}
    out["max.periods"] = {"self_s": 0.0, "spans": periods}
    return out


def write_spans(roots: list, path) -> None:
    """Write every collected span tree, one JSON object per line."""
    import json

    with open(path, "w", encoding="utf-8") as out:
        for root in roots:
            if root is not None:
                out.write(json.dumps(root.to_dict(), default=str) + "\n")


def layer_metrics(spans, stats_before, stats_after, obs_before, obs_after, n,
                  regret_s=0.0, seqset_fallbacks=0, rows_returned=0, writes=0,
                  server=None) -> dict:
    """Every per-layer metric, each divided by ``n`` (passes for the
    τPSM workloads, rounds for the wire workload) unless it is a ratio.

    ``spans`` is a :func:`rollup`; the counts are the differences of
    ``db.stats.snapshot()`` and ``db.obs.flat()`` taken before and after
    the measured work; ``server`` holds the wire figures (absent in
    process: all zero)."""
    stats = {key: stats_after[key] - stats_before[key] for key in (
        "rows_scanned", "total_routine_calls", "plans_compiled",
        "plan_cache_hits", "transforms", "transform_cache_hits")}

    def obs(name):
        value, old = obs_after.get(name, 0), obs_before.get(name, 0)
        if isinstance(value, dict):  # a timer: count its events
            return value.get("count", 0) - (old or {}).get("count", 0)
        return value - old

    def self_s(layer):
        return spans.get(layer, {}).get("self_s", 0.0) / n

    def count(layer):
        return spans.get(layer, {}).get("spans", 0) / n

    def ratio(part, whole):
        return part / whole if whole else 0.0

    server = server or {}
    transforms = stats["transforms"]
    cp_spans = spans.get("constant_periods", {}).get("spans", 0)
    plans = stats["plans_compiled"] + stats["plan_cache_hits"]
    return {
        "parser.calls": count("parser"),
        "parser.self_s": self_s("parser"),
        "stratum.self_s": self_s("stratum"),
        "stratum.transform.self_s": self_s("stratum.transform"),
        "stratum.transform.misses": transforms / n,
        "stratum.transform.hit_ratio": ratio(
            stats["transform_cache_hits"], transforms + stats["transform_cache_hits"]),
        "heuristic.self_s": self_s("heuristic"),
        "heuristic.calls": count("heuristic"),
        "heuristic.regret_s": regret_s / n,
        "heuristic.choice.max": obs("heuristic.choice.max") / n,
        "heuristic.choice.perst": obs("heuristic.choice.perst") / n,
        "heuristic.choice.seqset": obs("heuristic.choice.seqset") / n,
        "constant_periods.self_s": self_s("constant_periods"),
        "constant_periods.slices": obs("stratum.slices") / n,
        "constant_periods.cache_hit_ratio": ratio(obs("stratum.cp.cache_hits"), cp_spans),
        "max.loop.self_s": self_s("max.loop"),
        "max.periods": count("max.periods"),
        "perst.execute.self_s": self_s("perst.execute"),
        "seqset.execute.self_s": self_s("seqset.execute"),
        "seqset.fallbacks": seqset_fallbacks / n,
        "planner.self_s": self_s("planner"),
        "planner.plans_compiled": stats["plans_compiled"] / n,
        "planner.plan_cache_hit_ratio": ratio(stats["plan_cache_hits"], plans),
        "executor.self_s": self_s("executor"),
        "executor.rows_scanned": stats["rows_scanned"] / n,
        "executor.rows_scanned_per_row_returned": ratio(
            stats["rows_scanned"], rows_returned),
        "interval_index.hits": obs("engine.interval_index_hits") / n,
        "vectorized.batches": obs("engine.vectorized_batches") / n,
        "routines.calls": stats["total_routine_calls"] / n,
        "routines.self_s": self_s("routines"),
        "modifications.self_s": self_s("modifications"),
        "modifications.rows_rewritten": (
            obs("engine.rows_written.sequenced_rewrite")
            + obs("engine.rows_written.current_rewrite")) / n,
        "txn.commits": obs("wal.commits") / n,
        "mvcc.claims": count("mvcc.claim"),
        "mvcc.claim.self_s": self_s("mvcc.claim"),
        "wal.bytes_per_write": ratio(obs("wal.bytes"), writes),
        "wal.fsyncs": obs("wal.fsyncs") / n,
        "wal.commit.self_s": self_s("wal.commit"),
        "checkpoint.count": obs("checkpoint.writes") / n,
        "checkpoint.self_s": self_s("checkpoint"),
        "checkpoint.bytes": obs("checkpoint.bytes") / n,
        "recovery.records_replayed": server.get("records_replayed", 0),
        "server.session.self_s": self_s("server.session"),
        "server.queue_wait_s": server.get("queue_wait_s", 0.0) / n,
        "server.dispatch.self_s": server.get("dispatch_self_s", 0.0) / n,
        "protocol.encode.self_s": server.get("encode_self_s", 0.0) / n,
        "protocol.bytes_per_response": ratio(
            server.get("response_bytes", 0), server.get("responses", 0)),
        "client.overhead_s": server.get("client_overhead_s", 0.0) / n,
    }
