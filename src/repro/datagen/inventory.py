"""The Retail / Inventory workload (paper Section 5, "Inventory Data").

The paper built this data set from University-of-Washington schema-matching
corpus schemas: the *Colin Bleckner* schema (one combined item table, a
single low-cardinality attribute ``ItemType``, plus an added
``StockStatus``) as the source, and one of *Ryan Eyers*, *Aaron Day* or
*Barrett Arney* (separate book / music tables) as the target, populated with
data scraped from commercial web sites.  Offline we re-create the schemas
from the paper's description and populate them from the deterministic corpus
in :mod:`repro.datagen.text`: the experiments depend on the schemas and on
how each category shapes its values, not on the scraped records themselves.

Experiment knobs, exactly as Section 5 uses them:

* ``gamma`` — cardinality expansion of ``ItemType``: with γ=4 music items
  are randomly labelled CD1/CD2 and books Book1/Book2 (Section 5, "Inventory
  Data");
* :func:`add_correlated_attributes` — 3 extra low-cardinality attributes
  sharing ItemType's domain with tunable correlation ρ (Section 5.3);
* :func:`pad_workload` — n non-categorical noise attributes per table from
  the unrelated real-estate domain plus n/4 categorical ones (Section 5.5);
* ``n_source`` — sample-size control (Section 5.6).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ReproError
from ..relational.instance import Database, Relation
from ..relational.schema import Attribute
from ..relational.types import DataType
from . import text
from .ground_truth import GroundTruth
from .realestate import PAD_KINDS, realestate_column

__all__ = ["RetailConfig", "RetailWorkload", "make_retail_workload",
           "add_correlated_attributes", "pad_workload", "TARGET_LAYOUTS",
           "gamma_labels"]

#: Attribute names of each target schema: a mapping from semantic roles to
#: per-schema attribute names, reflecting that the UW corpus schemas were
#: written by different students with different naming conventions.
TARGET_LAYOUTS: dict[str, dict[str, dict[str, str]]] = {
    "ryan": {
        "book": {"table": "books", "id": "book_id", "title": "title",
                 "creator": "author", "code": "isbn", "price": "price",
                 "extra": "format"},
        "music": {"table": "cds", "id": "cd_id", "title": "album",
                  "creator": "artist", "code": "asin", "price": "price",
                  "extra": "label"},
    },
    "aaron": {
        "book": {"table": "book", "id": "id", "title": "name",
                 "creator": "writer", "code": "isbn10", "price": "list_price",
                 "extra": "binding"},
        "music": {"table": "music", "id": "id", "title": "album_title",
                  "creator": "performer", "code": "asin", "price": "cost",
                  "extra": "record_label"},
    },
    "barrett": {
        "book": {"table": "bookitem", "id": "bid", "title": "booktitle",
                 "creator": "authorname", "code": "bookcode",
                 "price": "amount", "extra": "covertype"},
        "music": {"table": "musicitem", "id": "mid", "title": "albumname",
                  "creator": "artistname", "code": "itemcode",
                  "price": "amount", "extra": "recordlabel"},
    },
}


@dataclasses.dataclass(frozen=True)
class RetailConfig:
    """Parameters of the retail workload generator.

    Parameters
    ----------
    target:
        Which target schema to use: ``"ryan"``, ``"aaron"`` or ``"barrett"``.
    n_source:
        Rows in the combined source inventory table (Section 5.6 sweeps
        this from tens to 1600).
    n_target:
        Rows per target table.
    gamma:
        Cardinality of ``ItemType`` (even, >= 2).  γ=2 gives the labels
        ``Book`` and ``CD``; γ=4 gives Book1/Book2/CD1/CD2, and so on.
    seed:
        Master seed; every column stream derives from it.
    """

    target: str = "ryan"
    n_source: int = 1000
    n_target: int = 400
    gamma: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.target not in TARGET_LAYOUTS:
            raise ReproError(
                f"unknown target {self.target!r}; expected one of "
                f"{sorted(TARGET_LAYOUTS)}")
        if self.gamma < 2 or self.gamma % 2 != 0:
            raise ReproError(f"gamma must be even and >= 2, got {self.gamma}")
        if self.n_source < 0 or self.n_target <= 0:
            raise ReproError("row counts must be positive")


@dataclasses.dataclass
class RetailWorkload:
    """A generated source/target pair plus its ground truth."""

    source: Database
    target: Database
    ground_truth: GroundTruth
    config: RetailConfig
    book_values: frozenset
    music_values: frozenset

    @property
    def source_table(self) -> str:
        return self.source.relations[0].name


def gamma_labels(gamma: int) -> tuple[list[str], list[str]]:
    """The ItemType label sets (books, music) for a given γ."""
    return text.gamma_label_pair(gamma, "Book", "CD")


def _book_row(rng: np.random.Generator) -> dict:
    return {
        "title": text.book_title(rng),
        "creator": text.person_name(rng),
        "code": text.isbn(rng),
        "price": round(float(rng.lognormal(2.8, 0.35)), 2),
        "extra": text.book_format(rng),
    }


def _music_row(rng: np.random.Generator) -> dict:
    creator = (text.band_name(rng) if rng.random() < 0.5
               else text.person_name(rng))
    return {
        "title": text.album_title(rng),
        "creator": creator,
        "code": text.asin(rng),
        "price": round(float(rng.lognormal(2.6, 0.25)), 2),
        "extra": text.record_label(rng),
    }


def _make_source(config: RetailConfig, rng: np.random.Generator) -> Relation:
    books, music = gamma_labels(config.gamma)
    n = config.n_source
    columns: dict[str, list] = {
        "ItemID": list(range(1, n + 1)),
        "Name": [], "Creator": [], "ItemType": [], "StockStatus": [],
        "Code": [], "ListPrice": [], "Qty": [],
    }
    stock_levels = ["Low", "Normal", "High"]
    for _ in range(n):
        is_book = rng.random() < 0.5
        row = _book_row(rng) if is_book else _music_row(rng)
        labels = books if is_book else music
        columns["Name"].append(row["title"])
        columns["Creator"].append(row["creator"])
        columns["ItemType"].append(labels[int(rng.integers(len(labels)))])
        columns["StockStatus"].append(
            stock_levels[int(rng.integers(len(stock_levels)))])
        columns["Code"].append(row["code"])
        columns["ListPrice"].append(row["price"])
        columns["Qty"].append(int(rng.poisson(6)))
    return Relation.infer_schema("items", columns)


def _make_target_table(kind: str, layout: dict[str, str], n: int,
                       rng: np.random.Generator) -> Relation:
    make_row = _book_row if kind == "book" else _music_row
    columns: dict[str, list] = {layout["id"]: list(range(1, n + 1))}
    for role in ("title", "creator", "code", "price", "extra"):
        columns[layout[role]] = []
    for _ in range(n):
        row = make_row(rng)
        for role in ("title", "creator", "code", "price", "extra"):
            columns[layout[role]].append(row[role])
    return Relation.infer_schema(layout["table"], columns)


def _ground_truth(config: RetailConfig, book_values: frozenset,
                  music_values: frozenset) -> GroundTruth:
    truth = GroundTruth()
    layouts = TARGET_LAYOUTS[config.target]
    for kind, values in (("book", book_values), ("music", music_values)):
        layout = layouts[kind]
        for source_attr, role in (
                ("ItemID", "id"), ("Name", "title"), ("Creator", "creator"),
                ("Code", "code"), ("ListPrice", "price")):
            truth.add("items", source_attr, layout["table"], layout[role],
                      "ItemType", values)
    return truth


def make_retail_workload(target: str = "ryan", *, n_source: int = 1000,
                         n_target: int = 400, gamma: int = 4,
                         seed: int = 0) -> RetailWorkload:
    """Generate the Retail data set of Section 5.

    The source database holds the combined ``items`` table; the target
    database holds the two separated tables of the chosen student schema.
    Target instances are generated independently of the source (the paper's
    source and target records were scraped separately): matchers see the
    same *populations*, not the same rows.
    """
    config = RetailConfig(target=target, n_source=n_source,
                          n_target=n_target, gamma=gamma, seed=seed)
    master = np.random.default_rng(config.seed)
    source_rng, book_rng, music_rng = master.spawn(3)
    source = Database.from_relations(
        "retail_src", [_make_source(config, source_rng)])
    layouts = TARGET_LAYOUTS[config.target]
    target_db = Database.from_relations("retail_tgt", [
        _make_target_table("book", layouts["book"], config.n_target, book_rng),
        _make_target_table("music", layouts["music"], config.n_target,
                           music_rng),
    ])
    books, music = gamma_labels(config.gamma)
    book_values, music_values = frozenset(books), frozenset(music)
    return RetailWorkload(
        source=source, target=target_db,
        ground_truth=_ground_truth(config, book_values, music_values),
        config=config, book_values=book_values, music_values=music_values)


def add_correlated_attributes(workload: RetailWorkload, count: int,
                              rho: float, *, seed: int = 1234) -> RetailWorkload:
    """Add *count* low-cardinality attributes correlated with ``ItemType``
    at level ρ (Section 5.3).

    Each new attribute copies the row's ItemType value with probability ρ
    and otherwise draws uniformly from ItemType's domain — ρ=0 gives
    independent categorical noise, ρ=1 gives exact chameleons.  Matches
    conditioned on these attributes are errors by definition (the ground
    truth is unchanged).
    """
    if not 0.0 <= rho <= 1.0:
        raise ReproError(f"rho must be within [0,1], got {rho}")
    rng = np.random.default_rng(seed)
    items = workload.source.relation(workload.source_table)
    item_types = items.column("ItemType")
    domain = sorted(set(item_types))
    relation = items
    for i in range(1, count + 1):
        values = [
            v if rng.random() < rho else domain[int(rng.integers(len(domain)))]
            for v in item_types
        ]
        relation = relation.extend(Attribute(f"OldType{i}", DataType.STRING),
                                   values)
    source = Database.from_relations(workload.source.name, [relation])
    return dataclasses.replace(workload, source=source)


def pad_workload(workload: RetailWorkload, n: int, *, seed: int = 5678) -> RetailWorkload:
    """Grow every table by *n* noise attributes (Section 5.5).

    Non-categorical padding comes from the unrelated real-estate domain;
    additionally every table that has a categorical attribute receives
    ``n // 4`` categorical attributes drawn from the same domain as its
    existing categorical attribute (ItemType for the source, the
    format/label column for the targets).
    """
    if n < 0:
        raise ReproError(f"pad count must be >= 0, got {n}")
    rng = np.random.default_rng(seed)

    def pad_relation(relation: Relation, prefix: str,
                     cat_domain: list | None) -> Relation:
        rows = len(relation)
        for i in range(1, n + 1):
            kind = PAD_KINDS[(i - 1) % len(PAD_KINDS)]
            values = realestate_column(kind, rows, rng)
            dtype = DataType.FLOAT if kind == "listing" else (
                DataType.INTEGER if kind == "sqft" else DataType.TEXT)
            relation = relation.extend(
                Attribute(f"{prefix}{i}", dtype), values)
        if cat_domain:
            for i in range(1, n // 4 + 1):
                values = [cat_domain[int(rng.integers(len(cat_domain)))]
                          for _ in range(rows)]
                relation = relation.extend(
                    Attribute(f"{prefix}cat{i}", DataType.STRING), values)
        return relation

    items = workload.source.relation(workload.source_table)
    item_domain = sorted(set(items.column("ItemType")))
    source = Database.from_relations(
        workload.source.name, [pad_relation(items, "extra", item_domain)])

    layouts = TARGET_LAYOUTS[workload.config.target]
    extra_attr = {layouts[k]["table"]: layouts[k]["extra"]
                  for k in ("book", "music")}
    padded_targets = []
    for relation in workload.target:
        domain = sorted(set(relation.column(extra_attr[relation.name])))
        padded_targets.append(pad_relation(relation, "aux", domain))
    target = Database.from_relations(workload.target.name, padded_targets)
    return dataclasses.replace(workload, source=source, target=target)
