"""Output checks that do not trust the engine's own comparison code.

Three independent standards:

* **Snapshot reducibility** (paper §VII-B; Dignös et al., *Snapshot
  Semantics for Temporal Multiset Relations*): a sequenced answer,
  clipped to its context and sliced at a day, must equal the
  conventional query run on that day's timeslice.  :class:`Reference`
  evaluates the conventional side once per (statement, day) and caches
  it.
* **A pure-Python timeslice evaluation** of the routine-free family over
  the generated rows (:func:`family_slice`), sharing no code with the
  engine's evaluator.
* **A write model** (:class:`WriteModel`) that replays the wire
  workload's write script over the generated ``item`` rows and yields
  the per-day facts every acknowledged write must leave behind.

Answers from different strategies are compared only after clipping and
coalescing: MAX and PERST fragment the same answer differently.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Iterable, Optional

from repro.sqlengine.values import Date, Null

FOREVER = Date.MAX_ORDINAL


def norm(value: Any) -> Any:
    """An engine value as a plain hashable Python value."""
    if isinstance(value, Date):
        return ("date", value.ordinal)
    if value is Null:
        return None
    return value


def parts(result: Any) -> list:
    if result is None:
        return []
    return result if isinstance(result, list) else [result]


def temporal_rows(result: Any) -> Iterable[tuple]:
    """``(values, begin, end)`` for every row of a sequenced answer: an
    in-process TemporalResult, a wire ClientResult, or a CALL's list of
    result sets (pooled, as the paper's commutativity check pools them)."""
    for part in parts(result):
        for row in part.rows:
            yield tuple(norm(v) for v in row[:-2]), row[-2].ordinal, row[-1].ordinal


def clip_coalesce(result: Any, begin: int, end: int) -> frozenset:
    """Clip every row to ``[begin, end)`` and merge value-equal rows whose
    periods overlap or meet: the canonical form of a sequenced answer."""
    spans: dict = defaultdict(list)
    for values, b, e in temporal_rows(result):
        b, e = max(b, begin), min(e, end)
        if b < e:
            spans[values].append((b, e))
    out = []
    for values, periods in spans.items():
        periods.sort()
        cur_b, cur_e = periods[0]
        for b, e in periods[1:]:
            if b <= cur_e:
                cur_e = max(cur_e, e)
            else:
                out.append((values, cur_b, cur_e))
                cur_b, cur_e = b, e
        out.append((values, cur_b, cur_e))
    return frozenset(out)


def slice_at(coalesced: frozenset, day: int) -> frozenset:
    return frozenset(v for v, b, e in coalesced if b <= day < e)


def differing_days(left: frozenset, right: frozenset, limit: int = 8) -> list[int]:
    """Days on which two canonical answers disagree: one per elementary
    interval of their combined boundaries, at most ``limit``."""
    points = sorted({p for _, b, e in left | right for p in (b, e)})
    days = []
    for day in points[:-1]:
        if slice_at(left, day) != slice_at(right, day):
            days.append(day)
            if len(days) >= limit:
                break
    return days


class Reference:
    """The conventional statement evaluated on one day's timeslice, by
    setting the database's CURRENT_DATE to that day (current semantics
    = the timeslice, paper §IV-C)."""

    def __init__(self, stratum) -> None:
        self.stratum = stratum
        self._cache: dict = {}

    def slice(self, sql: str, day: int) -> frozenset:
        key = (sql, day)
        if key not in self._cache:
            db = self.stratum.db
            saved = db.now
            db.now = Date(day)
            try:
                result = self.stratum.execute(sql)
            finally:
                db.now = saved
            self._cache[key] = frozenset(
                tuple(norm(v) for v in row)
                for part in parts(result)
                for row in part.rows
            )
        return self._cache[key]


def check_answers(
    answers: dict,
    days: list[int],
    truth,
) -> dict:
    """Judge canonical answers to one statement (key → frozenset).

    Each answer must equal ``truth(day)`` on every sampled day and on
    every day where two answers disagree, so an answer that is wrong
    only between samples is still caught when another strategy gets it
    right.  Returns key → None (correct) or a one-line reason.
    """
    check_days = set(days)
    distinct = list(set(answers.values()))
    for i, left in enumerate(distinct):
        for right in distinct[i + 1:]:
            check_days.update(differing_days(left, right))
    verdicts = {}
    for key, answer in answers.items():
        verdicts[key] = None
        for day in sorted(check_days):
            expected = truth(day)
            got = slice_at(answer, day)
            if got != expected:
                verdicts[key] = (
                    f"on {Date(day).to_iso()}: {len(got - expected)} rows not in"
                    f" the reference, {len(expected - got)} missing"
                )
                break
    return verdicts


# -- the routine-free family, evaluated in plain Python -------------------

_ITEM_ID, _ITEM_PAGES, _ITEM_PRICE = 0, 4, 5
_AUTHOR_LAST_NAME = 2


def _alive(rows: list, day: int) -> list:
    return [r for r in rows if r[-2].ordinal <= day < r[-1].ordinal]


def family_slice(tables: dict, name: str, day: int) -> frozenset:
    """The family statement ``name`` (see ``data.FAMILY``) on the
    timeslice at ``day`` of the generated rows."""
    items = [r for r in _alive(tables["item"], day) if r[_ITEM_PRICE] > 50]
    if name == "sel":
        return frozenset((r[_ITEM_ID], r[_ITEM_PRICE]) for r in items)
    links = defaultdict(list)
    for link in _alive(tables["item_author"], day):
        links[link[0]].append(link[1])
    if name == "join2":
        return frozenset(
            (r[_ITEM_ID], author) for r in items for author in links[r[_ITEM_ID]]
        )
    last_names = defaultdict(list)
    for author in _alive(tables["author"], day):
        last_names[author[0]].append(author[_AUTHOR_LAST_NAME])
    return frozenset(
        (r[_ITEM_ID], last)
        for r in items
        for author in links[r[_ITEM_ID]]
        for last in last_names[author]
    )


# -- the write model --------------------------------------------------------


def with_pages(values: tuple, delta: int) -> tuple:
    return (
        values[:_ITEM_PAGES]
        + (values[_ITEM_PAGES] + delta,)
        + values[_ITEM_PAGES + 1:]
    )


class WriteModel:
    """Per-key ``item`` history under the engine's documented rules.

    Sequenced UPDATE/DELETE act on each row's overlap with the period
    and keep the rest; sequenced INSERT adds a row valid over the
    period; current UPDATE (TUC) ends each row valid at ``now`` at
    ``now`` and adds the changed row valid ``[now, forever)``, or
    changes it in place when it began at ``now``.  Rows are kept as
    ``(values, begin, end)`` with values normalized by :func:`norm`.
    """

    def __init__(self, item_rows: list, now: int) -> None:
        self.now = now
        self.rows: dict = defaultdict(list)
        for row in item_rows:
            self.rows[row[0]].append(
                (tuple(norm(v) for v in row[:-2]), row[-2].ordinal, row[-1].ordinal)
            )

    def _split(self, key: str, begin: int, end: int, change) -> None:
        out = []
        for values, b, e in self.rows[key]:
            lo, hi = max(b, begin), min(e, end)
            if lo >= hi:
                out.append((values, b, e))
                continue
            if change is not None:
                out.append((change(values), lo, hi))
            if b < lo:
                out.append((values, b, lo))
            if hi < e:
                out.append((values, hi, e))
        self.rows[key] = out

    def sequenced_update(self, key: str, begin: int, end: int, delta: int) -> None:
        self._split(key, begin, end, lambda v: with_pages(v, delta))

    def sequenced_delete(self, key: str, begin: int, end: int) -> None:
        self._split(key, begin, end, None)

    def sequenced_insert(self, values: tuple, begin: int, end: int) -> None:
        self.rows[values[0]].append((values, begin, end))

    def current_update(self, key: str, delta: int) -> None:
        now = self.now
        out = []
        for values, b, e in self.rows[key]:
            if not b <= now < e:
                out.append((values, b, e))
            elif b == now:
                out.append((with_pages(values, delta), now, FOREVER))
            else:
                out.append((values, b, now))
                out.append((with_pages(values, delta), now, FOREVER))
        self.rows[key] = out

    def histories(self) -> dict:
        return {key: canonical(rows) for key, rows in self.rows.items() if rows}


def canonical(rows: list) -> tuple:
    """Per-day multiset of a key's rows as maximal runs of equal days:
    ``((begin, end, sorted value counts), ...)``."""
    points = sorted({p for _, b, e in rows for p in (b, e)})
    runs: list = []
    for lo, hi in zip(points, points[1:]):
        live = Counter(v for v, b, e in rows if b <= lo < e)
        if not live:
            continue
        state = tuple(sorted(live.items(), key=repr))
        if runs and runs[-1][1] == lo and runs[-1][2] == state:
            runs[-1] = (runs[-1][0], hi, state)
        else:
            runs.append((lo, hi, state))
    return tuple(runs)


def table_histories(table) -> dict:
    """The engine's stored ``item`` rows in :func:`canonical` form."""
    rows: dict = defaultdict(list)
    for row in table.rows:
        rows[row[0]].append(
            (tuple(norm(v) for v in row[:-2]), row[-2].ordinal, row[-1].ordinal)
        )
    return {key: canonical(r) for key, r in rows.items()}


def diff_histories(expected: dict, actual: dict) -> Optional[str]:
    """None when equal, else the first differing key and day."""
    for key in sorted(set(expected) | set(actual)):
        if expected.get(key) != actual.get(key):
            want = expected.get(key, ())
            got = actual.get(key, ())
            for a, b in zip(want, got):
                if a != b:
                    return f"{key}: history differs from {Date(min(a[0], b[0])).to_iso()}"
            return f"{key}: {len(want)} runs expected, {len(got)} stored"
    return None
