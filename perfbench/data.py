"""Inputs shared by the workloads: the DS1 data, the query cells, the
routine-free family, and the sampled reference days.

The data comes straight from the τBench generator and simulator, so the
benchmark holds its own copy of every generated row: the checks compare
engine answers against it without asking the engine.  With the default
data seeds (42 for the catalog, 7 for the change simulation) the rows
are exactly those ``repro.taubench.build_dataset("DS1", size)`` loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sqlengine.values import Date
from repro.taubench import ALL_QUERIES, schema
from repro.taubench.datasets import Dataset, dataset_spec
from repro.taubench.generator import generate_catalog
from repro.taubench.simulator import TIMELINE_BEGIN, simulate
from repro.temporal.stratum import SlicingStrategy, TemporalStratum

MAX = SlicingStrategy.MAX
PERST = SlicingStrategy.PERST
SEQSET = SlicingStrategy.SEQSET
AUTO = SlicingStrategy.AUTO

CATALOG_SEED = 42  # repro.taubench.datasets uses these two for DS1
CHANGE_SEED = 7

# The routine-free sequenced family: a selection, a two-table join and a
# three-table join.  Each is the SEQ-SET fragment, so AUTO's rule (s)
# sends it to SEQ-SET; the joins show SEQ-SET's per-period IntervalJoin.
FAMILY = {
    "sel": "SELECT i.id, i.price FROM item i WHERE i.price > 50",
    "join2": (
        "SELECT i.id, ia.author_id FROM item i, item_author ia"
        " WHERE i.id = ia.item_id AND i.price > 50"
    ),
    "join3": (
        "SELECT i.id, a.last_name FROM item i, item_author ia, author a"
        " WHERE i.id = ia.item_id AND ia.author_id = a.author_id"
        " AND i.price > 50"
    ),
}


@dataclass
class Source:
    """Generated rows (table name → rows with begin/end Dates) plus the
    dataset the engine loaded from them."""

    tables: dict
    dataset: Dataset


def generate(size: str, data_seed: Optional[int] = None) -> tuple:
    """Generate DS1 rows at ``size``; ``data_seed`` None reproduces DS1."""
    spec = dataset_spec("DS1", size)
    catalog_seed = CATALOG_SEED if data_seed is None else data_seed
    change_seed = CHANGE_SEED if data_seed is None else data_seed + 1
    catalog = generate_catalog(
        spec.num_items, spec.num_authors, spec.num_publishers, seed=catalog_seed
    )
    tables = simulate(
        catalog,
        num_steps=spec.num_steps,
        step_days=spec.step_days,
        total_changes=spec.total_changes,
        distribution=spec.distribution,
        seed=change_seed,
    )
    return spec, catalog, tables


def load(size: str, data_seed: Optional[int] = None) -> Source:
    """Generate the rows and load a copy of them into a fresh stratum,
    with the probe values the τPSM queries are parameterized on chosen
    the way ``repro.taubench.datasets.load_dataset`` chooses them."""
    spec, catalog, tables = generate(size, data_seed)
    stratum = TemporalStratum()
    schema.create_all(stratum)
    for table_name, rows in tables.items():
        stratum.db.insert_rows(table_name, [list(row) for row in rows])
    stratum.db.now = Date(TIMELINE_BEGIN.ordinal + 200)
    first_item = catalog.items[0][0]
    cold_author_id = next(
        link[1] for link in catalog.item_author if link[0] == first_item
    )
    cold_author = next(a for a in catalog.authors if a[0] == cold_author_id)
    dataset = Dataset(
        spec=spec,
        stratum=stratum,
        probe_author_id=catalog.authors[0][0],
        probe_author_first_name=catalog.authors[0][1],
        probe_item_id=catalog.items[len(catalog.items) // 2][0],
        cold_item_id=first_item,
        cold_author_id=cold_author_id,
        cold_author_first_name=cold_author[1],
        cold_author_last_name=cold_author[2],
        probe_publisher_id=catalog.publishers[0][0],
    )
    return Source(tables=tables, dataset=dataset)


def register_routines(dataset: Dataset) -> None:
    for query in ALL_QUERIES:
        query.install(dataset)


def context(dataset: Dataset, days: int) -> tuple[int, int]:
    period = dataset.context(days)
    return period.begin, period.end


def sequenced(body: str, begin: int, end: int) -> str:
    return (
        f"VALIDTIME [DATE '{Date(begin).to_iso()}', DATE '{Date(end).to_iso()}'] "
        + body
    )


def sample_days(begin: int, end: int) -> list[int]:
    """The days the reference is evaluated on: about a dozen spread
    evenly over the context, always including its first and last day."""
    length = end - begin
    stride = max(1, -(-length // 13))
    days = list(range(begin, end, stride))
    if days[-1] != end - 1:
        days.append(end - 1)
    return days


@dataclass(frozen=True)
class Cell:
    """One timed statement: a query (τPSM name or family key) under one
    strategy at one context length."""

    query: str
    strategy: SlicingStrategy
    days: int

    @property
    def label(self) -> str:
        return f"{self.query}/{self.strategy.value}/{self.days}d"


def cells(contexts: dict) -> list[Cell]:
    """At every context length (days → family statements): the τPSM
    queries under MAX, PERST (where applicable) and AUTO, and the family
    statements under MAX, PERST, SEQSET and AUTO."""
    out = []
    for days, family in contexts.items():
        for query in ALL_QUERIES:
            for strategy in (MAX, PERST, AUTO):
                if strategy is PERST and not query.perst_applicable:
                    continue
                out.append(Cell(query.name, strategy, days))
        for name in family:
            for strategy in (MAX, PERST, SEQSET, AUTO):
                out.append(Cell(name, strategy, days))
    return out
