"""The wire workload: ``repro serve`` on a durable DS1-SMALL store.

One client connection runs a closed loop of rounds.  A round is 15
writes, each followed by a read.  The writes are a fixed mix (6
sequenced UPDATEs, 3 sequenced DELETEs and 3 sequenced INSERTs over
quarter-aligned periods, and 3 current UPDATEs) whose keys, periods and
amounts come from the seed.  The reads are 15 of the 16 τPSM queries at
a 30-day context under the session's default AUTO strategy, in seeded
order.  The WAL runs with the engine's default policy: one fsync per
commit and an automatic checkpoint at 8 MiB.

After the timed rounds the client keeps writing until the server's
next automatic checkpoint, then makes 15 sequenced UPDATEs of hot items
and reads every query once.  The server is then SIGKILLed, so the store
on disk is always one checkpoint plus the same WAL, and ``store_bytes``
and ``recovery_s`` measure the same thing in every run.  The recovered
store must hold exactly what :class:`check.WriteModel` says the
acknowledged writes left, and the last answer to each query must pass
the day-by-day reference check on it.

Request times are scaled to the nominal machine speed the client
measured during the timed rounds (``pace``); setup, store size and
recovery are reported as measured.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.server.client import ReproClient, ServerError
from repro.sqlengine.values import Date
from repro.taubench import ALL_QUERIES
from repro.taubench.io import copy_dataset_into
from repro.temporal.stratum import TemporalStratum

from perfbench import check, data, pace, trace

NAME = "wire-mixed"
HERE = Path(__file__).resolve().parent
CONTEXT_DAYS = 30
SETUP_REPEATS = 3
RECOVERY_REPEATS = 5
PACE_EVERY = 5  # requests pairs between two samples of the machine's speed
STARTUP_TIMEOUT_S = 60.0
ALIGN_WRITE_CAP = 2000  # a checkpoint comes every ~15 rounds of writes
# 14 rounds = 210 reads and 210 writes: at least 10 beyond each p95
MIN_ROUNDS = 14
WARMUP_ROUNDS = 3

# A round: 15 writes, each followed by a read.  Writes touch a fixed hot
# set of items over quarter-aligned periods, and deletes only remove
# what inserts added, so the tables stop growing after a few rounds and
# every round costs the same; the untimed warm-up rounds get them there.
ROUND_MIX = (
    ["seq_update"] * 6 + ["seq_delete"] * 3 + ["seq_insert"] * 3 + ["cur_update"] * 3
)
HOT_ITEMS = 8  # the first 8 items, plus the item the queries probe
INSERT_KEYS = [f"x{k:07d}" for k in range(4)]
# period boundaries: the quarters of the simulated two years, 2010-2011
GRID = [Date.from_ymd(2010 + q // 4, 3 * (q % 4) + 1, 1).ordinal for q in range(9)]
INSERTED_PUB_DATE = Date.from_ymd(2009, 6, 1)
# q8 is left out of the reads: its PERST translation, which AUTO picks,
# returns wrong answers at 30 days on data some write scripts produce
READ_QUERIES = [q for q in ALL_QUERIES if q.name != "q8"]


def _iso(ordinal: int) -> str:
    return Date(ordinal).to_iso()


class Script:
    """The seeded write script: each write is its SQL plus the change it
    makes to a :class:`check.WriteModel`."""

    def __init__(self, seed: int, hot_keys: list) -> None:
        self.rng = random.Random(seed)
        self.hot_keys = hot_keys
        self.serial = 0

    def round(self) -> list:
        kinds = self.rng.sample(ROUND_MIX, len(ROUND_MIX))
        return [self.write(kind) for kind in kinds]

    def _period(self, max_quarters: int) -> tuple:
        start = self.rng.randrange(len(GRID) - 1)
        stop = min(len(GRID) - 1, start + self.rng.randint(1, max_quarters))
        return GRID[start], GRID[stop]

    def write(self, kind: str) -> tuple:
        rng = self.rng
        self.serial += 1
        if kind == "cur_update":
            key, delta = rng.choice(self.hot_keys), rng.randint(1, 9)
            return (
                f"UPDATE item SET number_of_pages = number_of_pages + {delta}"
                f" WHERE id = '{key}'",
                lambda model: model.current_update(key, delta),
            )
        if kind == "seq_insert":
            key = rng.choice(INSERT_KEYS)
            begin, end = self._period(2)
            values = (key, f"Inserted {self.serial}", "p0000000",
                      ("date", INSERTED_PUB_DATE.ordinal), 100 + self.serial % 50,
                      10.5, "databases")
            return (
                f"VALIDTIME [DATE '{_iso(begin)}', DATE '{_iso(end)}'] INSERT INTO item"
                " (id, title, publisher_id, pub_date, number_of_pages, price, subject)"
                f" VALUES ('{key}', '{values[1]}', 'p0000000',"
                f" DATE '{INSERTED_PUB_DATE.to_iso()}', {values[4]}, 10.5, 'databases')",
                lambda model: model.sequenced_insert(values, begin, end),
            )
        if kind == "seq_delete":
            key = rng.choice(INSERT_KEYS)
            begin, end = self._period(4)
            return (
                f"VALIDTIME [DATE '{_iso(begin)}', DATE '{_iso(end)}']"
                f" DELETE FROM item WHERE id = '{key}'",
                lambda model: model.sequenced_delete(key, begin, end),
            )
        key, delta = rng.choice(self.hot_keys), rng.randint(1, 9)
        begin, end = self._period(2)
        return (
            f"VALIDTIME [DATE '{_iso(begin)}', DATE '{_iso(end)}'] UPDATE item"
            f" SET number_of_pages = number_of_pages + {delta} WHERE id = '{key}'",
            lambda model: model.sequenced_update(key, begin, end, delta),
        )


class Server:
    """``perfbench/launch_server.py`` as a child process."""

    def __init__(self, store: Path, traced: bool, work: Path, spans_path) -> None:
        self.dump_path = work / "server-dump.json"
        self.dumps = 0
        if self.dump_path.exists():
            self.dump_path.unlink()
        command = [sys.executable, str(HERE / "launch_server.py"), "--db", str(store)]
        if traced:
            command += ["--trace", "1", "--dump", str(self.dump_path),
                        "--spans", str(spans_path)]
        self._log = open(work / "server.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        self.host, self.port = self._await_listening()

    def _await_listening(self) -> tuple:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on" in line:
                    host, _, port = line.rsplit(None, 1)[-1].rpartition(":")
                    return host, int(port)
            elif self.proc.poll() is not None:
                break
        self.kill()
        raise RuntimeError("the server did not start; see perfbench/.work/server.log")

    def dump(self) -> dict:
        """Ask a traced server for what it collected since the last dump."""
        self.dumps += 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if self.dump_path.exists():
                with open(self.dump_path, encoding="utf-8") as handle:
                    payload = json.load(handle)
                if payload["seq"] == self.dumps:
                    return payload
            time.sleep(0.01)
        raise RuntimeError("the traced server did not answer SIGUSR1")

    def stop(self) -> None:
        """Graceful: the server drains and checkpoints."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def kill(self) -> float:
        """SIGKILL; returns the server's peak resident set in MB."""
        peak_mb = 0.0
        if self.proc.poll() is None:
            self.proc.kill()
            _pid, _status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = -signal.SIGKILL
            peak_mb = usage.ru_maxrss / 1024.0
        self._reap()
        return peak_mb

    def _reap(self) -> None:
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Session:
    """A client, the reads, the script and the model of one setup."""

    def __init__(self, client, reads, context, script, model, store, server) -> None:
        self.client = client
        self.context = context
        self.reads = reads
        self.script = script
        self.model = model
        self.store = store
        self.server = server
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.rows_returned = 0

    async def request(self, sql: str):
        self.attempted += 1
        try:
            result = await self.client.execute(sql)
        except ServerError as exc:
            self.failed += 1
            self.errors.append(f"{sql[:60]}...: {exc}")
            return None
        if isinstance(result, list) or hasattr(result, "rows"):
            self.rows_returned += sum(len(part.rows) for part in check.parts(result))
        return result

    async def write(self, write) -> float:
        sql, apply = write
        failed = self.failed
        started = time.perf_counter()
        await self.request(sql)
        elapsed = time.perf_counter() - started
        if self.failed == failed:  # acknowledged: the model follows
            apply(self.model)
        return elapsed


async def _setup(k: int, seed: int, data_seed, traced: bool, work: Path,
                 spans_path) -> Session:
    source = data.load("SMALL", data_seed)
    store = work / f"store-{k}"
    shutil.rmtree(store, ignore_errors=True)
    durable = TemporalStratum.open(store)
    dataset = copy_dataset_into(durable, source.dataset)
    data.register_routines(dataset)
    durable.close()
    begin, end = data.context(dataset, CONTEXT_DAYS)
    reads = [(q.name, data.sequenced(q.conventional_sql(dataset), begin, end),
              q.conventional_sql(dataset)) for q in READ_QUERIES]
    item_ids = sorted({row[0] for row in source.tables["item"]})
    hot_keys = item_ids[:HOT_ITEMS] + [dataset.probe_item_id]
    model = check.WriteModel(source.tables["item"], dataset.stratum.db.now.ordinal)
    server = Server(store, traced, work, spans_path)
    try:
        client = await ReproClient.connect(server.host, server.port, reconnect=False)
    except OSError:
        server.kill()
        raise
    session = Session(client, reads, (begin, end), Script(seed, hot_keys), model,
                      store, server)
    # warm-up: every statement, until the tables stop growing
    for _ in range(WARMUP_ROUNDS):
        for write, (_name, sql, _conventional) in zip(session.script.round(), reads):
            await session.write(write)
            await session.request(sql)
    return session


async def _close(session: Session, graceful: bool) -> None:
    try:
        await session.client.close()
    except (ConnectionError, OSError):
        pass
    if graceful:
        session.server.stop()
    else:
        session.server.kill()


def _percentile(values: list, share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(share * len(ordered))) - 1)]


def _store_bytes(store: Path) -> int:
    return sum(p.stat().st_size for p in store.iterdir() if p.is_file())


async def _drive(seed, seconds, traced, data_seed, work, spans_path) -> dict:
    setups = []
    session = None
    try:
        for k in range(SETUP_REPEATS):
            if session is not None:
                await _close(session, graceful=True)
                shutil.rmtree(session.store, ignore_errors=True)
            started = time.perf_counter()
            session = await _setup(k, seed, data_seed, traced, work, spans_path)
            setups.append(time.perf_counter() - started)
        server = session.server
        rng = random.Random(seed)
        baseline = server.dump() if traced else None

        write_lat, read_lat, round_reads, samples = [], [], [], []
        rounds = 0
        rows_before = session.rows_returned
        measured = time.perf_counter()
        while True:
            writes = session.script.round()
            reads = rng.sample(session.reads, len(session.reads))
            round_read = 0.0
            for i, (write, (_name, sql, _conventional)) in enumerate(zip(writes, reads)):
                if i % PACE_EVERY == 0:
                    samples.append(pace.sample())
                write_lat.append(await session.write(write))
                started = time.perf_counter()
                await session.request(sql)
                elapsed = time.perf_counter() - started
                read_lat.append(elapsed)
                round_read += elapsed
            round_reads.append(round_read)
            rounds += 1
            if rounds >= MIN_ROUNDS and time.perf_counter() - measured >= seconds:
                break
        wall = time.perf_counter() - measured
        rows_returned = session.rows_returned - rows_before
        layers_dump = server.dump() if traced else None

        # align the kill 15 writes after a checkpoint
        wal = session.store / "wal.log"
        last = wal.stat().st_size
        align_writes = 0
        for align_writes in range(1, ALIGN_WRITE_CAP + 1):
            await session.write(session.script.write(session.script.rng.choice(ROUND_MIX)))
            size = wal.stat().st_size
            if size < last:
                break
            last = size
        # the hot items live over the whole timeline, so every one of
        # these writes rewrites rows: the WAL at the kill is the same size
        for _ in ROUND_MIX:
            await session.write(session.script.write("seq_update"))
        final_answers = {}
        for name, sql, _conventional in session.reads:
            final_answers[name] = await session.request(sql)
        await session.client.close()
        peak_rss_mb = server.kill()
        store_bytes = _store_bytes(session.store)
    finally:
        if session is not None:
            await _close(session, graceful=False)

    return {
        "session": session, "setups": setups, "write_lat": write_lat,
        "read_lat": read_lat, "round_reads": round_reads, "rounds": rounds,
        "wall": wall, "baseline": baseline, "layers_dump": layers_dump,
        "final_answers": final_answers, "peak_rss_mb": peak_rss_mb,
        "store_bytes": store_bytes, "rows_returned": rows_returned,
        "align_writes": align_writes, "scale": pace.factor(samples),
    }


def _recover(store: Path, work: Path) -> tuple:
    """Reopen copies of the killed store; the median time, and the last
    recovered stratum for the checks."""
    times = []
    stratum = None
    for k in range(RECOVERY_REPEATS):
        if stratum is not None:
            stratum.close(checkpoint=False)
        copy = work / f"recovered-{k}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(store, copy)
        started = time.perf_counter()
        stratum = TemporalStratum.open(copy)
        times.append(time.perf_counter() - started)
    return statistics.median(times), stratum


def _check(session: Session, stratum, final_answers: dict) -> tuple:
    """(checks, failures, correct) on the recovered store."""
    checks, failures = [], []
    # the reference moves CURRENT_DATE day by day; on this throwaway
    # copy of the store those changes need not reach the disk
    stratum.db.durability.sync = False
    stored = check.table_histories(stratum.db.catalog.get_table("item"))
    expected = session.model.histories()
    durable_diff = check.diff_histories(expected, stored)
    correct = durable_diff is None
    checks.append(
        "every acknowledged write survived the SIGKILL"
        if correct else f"recovered item history differs from the write model: {durable_diff}"
    )
    reference = check.Reference(stratum)
    begin, end = session.context
    days = data.sample_days(begin, end)
    for name, _sql, conventional in session.reads:
        answer = final_answers.get(name)
        if answer is None:
            continue  # already counted as a failed request
        verdict = check.check_answers(
            {name: check.clip_coalesce(answer, begin, end)}, days,
            lambda day: reference.slice(conventional, day),
        )[name]
        if verdict:
            failures.append(f"final {name}/auto/{CONTEXT_DAYS}d: {verdict}")

    # self-test: a history missing its last change, and a planted row
    planted = dict(expected)
    key = sorted(planted)[0]
    planted[key] = planted[key][:-1]
    model_ok = check.diff_histories(planted, stored) is not None
    name, _sql, conventional = session.reads[0]
    answer = check.clip_coalesce(final_answers[name], begin, end)
    wrong = frozenset(answer | {(("planted",), begin, end)})
    answer_ok = check.check_answers(
        {"planted": wrong}, days, lambda day: reference.slice(conventional, day)
    )["planted"] is not None
    if model_ok and answer_ok:
        checks.append("the checks reject a planted history and a planted answer")
    else:
        correct = False
        checks.append("self-test: a planted history or answer was accepted")
    return checks, failures, correct


def run(seed: int, seconds: float, traced: bool, data_seed=None, work=None,
        spans_path=None) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    out = asyncio.run(_drive(seed, seconds, traced, data_seed, work, spans_path))
    session = out["session"]
    recovery_s, stratum = _recover(session.store, work)
    try:
        checks, failures, correct = _check(session, stratum, out["final_answers"])
        records_replayed = stratum.db.obs.value("recovery.records_replayed")
    finally:
        stratum.close(checkpoint=False)
    for path in work.glob("recovered-*"):
        shutil.rmtree(path, ignore_errors=True)
    shutil.rmtree(session.store, ignore_errors=True)

    scale = out["scale"]
    read_lat = [t * scale for t in out["read_lat"]]
    write_lat = [t * scale for t in out["write_lat"]]
    metrics = {
        "setup_s": statistics.median(out["setups"]),
        "read_p50_ms": statistics.median(read_lat) * 1000.0,
        "read_p95_ms": _percentile(read_lat, 0.95) * 1000.0,
        "write_p50_ms": statistics.median(write_lat) * 1000.0,
        "write_p95_ms": _percentile(write_lat, 0.95) * 1000.0,
        "ops_per_s": (len(read_lat) + len(write_lat)) / (out["wall"] * scale),
        "auto_geomean_ms": statistics.geometric_mean(v * 1000.0 for v in read_lat),
        "auto_suite_s": statistics.median(out["round_reads"]) * scale,
        "store_bytes": float(out["store_bytes"]),
        "recovery_s": recovery_s,
        "peak_rss_mb": out["peak_rss_mb"],
        "speed_factor": scale,
    }
    report = {
        "attempted": session.attempted,
        "failed": session.failed + len(failures),
        "failures": session.errors + failures,
        "correct": correct,
        "checks": checks + [
            f"{out['rounds']} timed rounds; {out['align_writes']} writes to the next checkpoint"
        ],
        "passes": out["rounds"],
        "metrics": metrics,
    }
    if traced:
        report["layers"] = _layers(out, records_replayed)
    return report


def _layers(out: dict, records_replayed: int) -> dict:
    before, after = out["baseline"], out["layers_dump"]
    loop = after["loop"]
    values = after["values"]
    dispatch_total = loop.get("server.dispatch", [0.0, 0.0, 0])[0]
    server = {
        "records_replayed": records_replayed,
        "queue_wait_s": values.get("queue_wait_s", 0.0),
        "dispatch_self_s": loop.get("server.dispatch", [0.0, 0.0, 0])[1],
        "encode_self_s": loop.get("protocol.encode", [0.0, 0.0, 0])[1],
        "response_bytes": values.get("response_bytes", 0),
        "responses": values.get("responses", 0),
        "client_overhead_s": sum(out["read_lat"]) + sum(out["write_lat"]) - dispatch_total,
    }
    return trace.layer_metrics(
        after["spans"], before["stats"], after["stats"], before["obs"], after["obs"],
        out["rounds"],
        rows_returned=out["rows_returned"],
        writes=len(out["write_lat"]),
        server=server,
    )
