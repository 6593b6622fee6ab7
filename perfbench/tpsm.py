"""The in-process τPSM workloads (paper Figures 12 and 13).

One closed-loop caller runs every cell of ``data.cells`` once per pass,
in an order shuffled by the seed.  An untimed warm-up pass runs every
statement first.  Passes repeat, whole, for ``seconds`` rounded to the
nearest whole pass (at least one).  Statement times are scaled to the
nominal machine speed measured during their pass (``pace``); setup time
is wall-clock.  Each pass's answers are clipped, coalesced and judged
against the day-by-day reference (and, for the routine-free family, the
pure-Python timeslice evaluation); a wrong answer is a failed operation.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from collections import defaultdict

from repro.sqlengine.errors import SqlError
from repro.taubench import get_query

from perfbench import check, data, pace, trace

# size, and context length in days → the family statements run at it.
# Under SEQ-SET (and AUTO, which picks it) the three-table join takes
# ~7 s at SMALL×365 d, two thirds of a pass, and at LARGE it does not
# finish in minutes; it runs where it takes well under a second.
WORKLOADS = {
    # DS1-SMALL: short statements, fixed per-statement costs dominate
    "tpsm-small": {"size": "SMALL", "contexts": {
        1: ["sel", "join2", "join3"],
        30: ["sel", "join2", "join3"],
        365: ["sel", "join2"],
    }},
    # DS1-LARGE: per-row work dominates
    "tpsm-large": {"size": "LARGE", "contexts": {365: ["sel", "join2"]}},
}

SETUP_REPEATS = 3
PACE_EVERY = 8  # statements between two samples of the machine's speed


def _statement(dataset, cell: data.Cell) -> tuple:
    """(sequenced SQL, conventional SQL, context begin, context end)."""
    begin, end = data.context(dataset, cell.days)
    if cell.query in data.FAMILY:
        body = data.FAMILY[cell.query]
    else:
        body = get_query(cell.query).conventional_sql(dataset)
    return data.sequenced(body, begin, end), body, begin, end


def run(workload: str, seed: int, seconds: float, traced: bool,
        data_seed=None, spans_path=None) -> dict:
    spec = WORKLOADS[workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        source = data.load(spec["size"], data_seed)
        data.register_routines(source.dataset)
        setups.append(time.perf_counter() - started)
    dataset = source.dataset
    stratum = dataset.stratum
    db = stratum.db
    cells = data.cells(spec["contexts"])
    statements = {cell: _statement(dataset, cell) for cell in cells}
    rng = random.Random(seed)

    started = time.perf_counter()
    for cell in rng.sample(cells, len(cells)):
        stratum.execute(statements[cell][0], strategy=cell.strategy)
    warmup_s = time.perf_counter() - started

    tracer = db.tracer
    patches = trace.Patches()
    roots: list = []
    if traced:
        trace.install(tracer, patches)
        tracer.enabled = True
    stats_before = db.stats.snapshot()
    obs_before = db.obs.flat()
    passes = []
    fallbacks = 0
    rows_returned = 0
    measured = time.perf_counter()
    try:
        while True:
            pass_started = time.perf_counter()
            latency: dict = {}
            answers: dict = {}
            samples = []
            for i, cell in enumerate(rng.sample(cells, len(cells))):
                if i % PACE_EVERY == 0:
                    samples.append(pace.sample())
                sql, _body, begin, end = statements[cell]
                stratum.last_fallback = None
                with tracer.span("bench.op"):  # a no-op unless traced
                    t0 = time.perf_counter()
                    try:
                        result = stratum.execute(sql, strategy=cell.strategy)
                    except SqlError as exc:  # a failed operation; go on
                        result = exc
                    latency[cell] = time.perf_counter() - t0
                if traced:
                    roots.append(tracer.last_root)
                    fallbacks += stratum.last_fallback is not None
                if isinstance(result, SqlError):
                    answers[cell] = f"raised {type(result).__name__}: {result}"
                    continue
                rows_returned += sum(len(p.rows) for p in check.parts(result))
                answers[cell] = check.clip_coalesce(result, begin, end)
            scale = pace.factor(samples)
            passes.append(({c: t * scale for c, t in latency.items()}, answers, scale))
            # as many whole passes as fit in `seconds`, to the nearest
            now = time.perf_counter()
            if now - measured + (now - pass_started) / 2 >= seconds:
                break
    finally:
        tracer.enabled = False
        patches.undo()
    stats_after = db.stats.snapshot()
    obs_after = db.obs.flat()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    judged = _judge(stratum, source.tables, statements, passes)
    failures = [(cell, reason) for cell, reason in judged if reason]
    selftest = _selftest(stratum, statements, passes[0][1])

    report = {
        "attempted": len(judged),
        "failed": len(failures),
        "failures": sorted({f"{cell.label}: {reason}" for cell, reason in failures}),
        "correct": selftest is None,
        "checks": [selftest or "the checker rejects a planted wrong answer"],
        "passes": len(passes),
        "metrics": _metrics(passes, setups, warmup_s, peak_rss_mb),
    }
    if traced:
        report["layers"] = _layers(
            passes, roots, stats_before, stats_after, obs_before, obs_after,
            fallbacks, rows_returned,
        )
        if spans_path is not None:
            trace.write_spans(roots, spans_path)
    return report


def _judge(stratum, tables, statements, passes) -> list:
    """(cell, reason or None) for every timed statement of every pass."""
    reference = check.Reference(stratum)
    verdict_cache: dict = {}
    judged = []
    for _latency, answers, _scale in passes:
        groups = defaultdict(dict)
        for cell, answer in answers.items():
            groups[(cell.query, cell.days)][cell] = answer
        for (query, _days), group in groups.items():
            # an operation that raised carries its error text as answer
            answered = {c: a for c, a in group.items() if not isinstance(a, str)}
            judged.extend((c, a) for c, a in group.items() if isinstance(a, str))
            if not answered:
                continue
            _sql, body, begin, end = statements[next(iter(answered))]
            key = (body, begin, frozenset(answered.items()))
            if key not in verdict_cache:
                verdict_cache[key] = _verdicts(
                    reference, tables, query, body, begin, end, answered
                )
            judged.extend(verdict_cache[key].items())
    return judged


def _verdicts(reference, tables, query, body, begin, end, group) -> dict:
    days = data.sample_days(begin, end)
    verdicts = check.check_answers(
        group, days, lambda day: reference.slice(body, day)
    )
    if query in data.FAMILY:
        # the family also answers to the evaluation that shares no code
        # with the engine; the engine's own timeslice must agree with it
        python = check.check_answers(
            group, days, lambda day: check.family_slice(tables, query, day)
        )
        for cell, reason in python.items():
            if reason and not verdicts[cell]:
                verdicts[cell] = "python timeslice " + reason
    return verdicts


def _selftest(stratum, statements, answers):
    """Plant a wrong row into a correct answer; the checker must reject
    it.  Returns None when it does, else what went wrong."""
    reference = check.Reference(stratum)
    for cell, answer in answers.items():
        if cell.query in data.FAMILY or not answer or isinstance(answer, str):
            continue
        _sql, body, begin, end = statements[cell]
        planted = set(answer)
        values, b, e = next(iter(sorted(answer, key=repr)))
        planted.discard((values, b, e))
        planted.add((values + ("planted",), b, e))
        verdicts = check.check_answers(
            {"right": answer, "planted": frozenset(planted)},
            data.sample_days(begin, end),
            lambda day: reference.slice(body, day),
        )
        if verdicts["right"] is None and verdicts["planted"] is not None:
            return None
        if verdicts["right"] is None:
            return f"self-test: planted answer to {cell.label} was accepted"
    return "self-test: no correct non-empty answer to plant into"


def _metrics(passes, setups, warmup_s, peak_rss_mb) -> dict:
    per_pass = defaultdict(list)
    all_latencies = []
    for latency, _answers, _scale in passes:
        by_strategy = defaultdict(list)
        for cell, seconds in latency.items():
            by_strategy[cell.strategy].append(seconds)
        per_pass["max_suite_s"].append(sum(by_strategy[data.MAX]))
        per_pass["perst_suite_s"].append(sum(by_strategy[data.PERST]))
        per_pass["seqset_suite_s"].append(sum(by_strategy[data.SEQSET]))
        per_pass["auto_suite_s"].append(sum(by_strategy[data.AUTO]))
        per_pass["auto_geomean_ms"].append(
            statistics.geometric_mean(v * 1000.0 for v in by_strategy[data.AUTO]))
        all_latencies.extend(latency.values())
    metrics = {name: statistics.median(values) for name, values in per_pass.items()}
    metrics["setup_s"] = statistics.median(setups) + warmup_s
    metrics["read_p50_ms"] = statistics.median(all_latencies) * 1000.0
    metrics["ops_per_s"] = len(all_latencies) / sum(all_latencies)
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["speed_factor"] = statistics.median(scale for _l, _a, scale in passes)
    return metrics


def _layers(passes, roots, stats_before, stats_after, obs_before, obs_after,
            fallbacks, rows_returned) -> dict:
    """Per-layer figures, each per pass."""
    regret = 0.0
    for latency, _answers, _scale in passes:
        groups = defaultdict(dict)
        for cell, seconds in latency.items():
            groups[(cell.query, cell.days)][cell.strategy] = seconds
        for group in groups.values():
            forced = [s for strategy, s in group.items() if strategy is not data.AUTO]
            regret += group[data.AUTO] - min(forced)
    return trace.layer_metrics(
        trace.rollup(roots), stats_before, stats_after, obs_before, obs_after,
        len(passes),
        regret_s=regret,
        seqset_fallbacks=fallbacks,
        rows_returned=rows_returned,
    )
