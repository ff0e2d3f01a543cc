"""Unrelated real-estate table used as schema-padding noise (Section 5.5),
plus a full contextual-matching workload over the same domain.

"The extra non-categorical attributes are populated with random data from an
unrelated real estate table."  We synthesize that table: street addresses,
cities, agent names, square footage, listing prices — a population disjoint
from the retail domain so padded attributes provide realistic *noise*, not
accidental signal.

:func:`make_realestate_workload` additionally promotes the domain to a
first-class workload for the scenario registry: a combined ``listings``
table with a ``PropertyKind`` categorical (``House`` / ``Condo``, γ
expandable) as the source, and separated ``houses`` / ``condo_units``
target tables whose populations differ per kind — houses are larger and
costlier, condo addresses carry unit numbers — so the correct matches are
contextual on ``PropertyKind``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ReproError
from ..relational.instance import Database, Relation
from .ground_truth import GroundTruth
from .text import gamma_label_pair, person_name

__all__ = ["realestate_column",
           "RealEstateConfig", "RealEstateWorkload",
           "make_realestate_workload", "property_kind_labels"]

_STREETS = [
    "maple", "oak", "cedar", "elm", "willow", "birch", "chestnut",
    "sycamore", "juniper", "magnolia", "poplar", "hawthorn", "linden",
]
_STREET_KINDS = ["st", "ave", "blvd", "ln", "dr", "ct", "rd"]
_CITIES = [
    "springfield", "riverton", "fairview", "lakewood", "georgetown",
    "clinton", "salem", "madison", "arlington", "ashland", "dover",
    "milton", "newport", "oxford", "burlington",
]
_PROPERTY_TYPES = ["single family", "condo", "townhouse", "duplex", "loft"]


def _address(rng: np.random.Generator) -> str:
    number = int(rng.integers(1, 9900))
    street = _STREETS[int(rng.integers(len(_STREETS)))]
    kind = _STREET_KINDS[int(rng.integers(len(_STREET_KINDS)))]
    return f"{number} {street} {kind}"


def realestate_column(kind: str, n: int, rng: np.random.Generator) -> list:
    """One column of real-estate noise data.

    ``kind`` chooses the population: ``address``, ``city``, ``agent``,
    ``sqft``, ``listing`` (price) or ``property`` (type).
    """
    if kind == "address":
        return [_address(rng) for _ in range(n)]
    if kind == "city":
        return [_CITIES[int(rng.integers(len(_CITIES)))] for _ in range(n)]
    if kind == "agent":
        return [person_name(rng) for _ in range(n)]
    if kind == "sqft":
        return [int(v) for v in rng.normal(1850, 650, size=n).clip(350)]
    if kind == "listing":
        return [round(float(v), 2)
                for v in rng.lognormal(12.5, 0.4, size=n)]
    if kind == "property":
        return [_PROPERTY_TYPES[int(rng.integers(len(_PROPERTY_TYPES)))]
                for _ in range(n)]
    raise ValueError(f"unknown real-estate column kind {kind!r}")


#: Round-robin order used when padding schemas with noise attributes.
PAD_KINDS = ["address", "city", "agent", "sqft", "listing"]


# ---------------------------------------------------------------------------
# Contextual workload over the real-estate domain
# ---------------------------------------------------------------------------

def property_kind_labels(gamma: int) -> tuple[list[str], list[str]]:
    """The PropertyKind label sets (houses, condos) for a given γ."""
    return gamma_label_pair(gamma, "House", "Condo")


@dataclasses.dataclass(frozen=True)
class RealEstateConfig:
    """Parameters of the real-estate workload generator (γ even, >= 2)."""

    n_source: int = 1000
    n_target: int = 400
    gamma: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.gamma < 2 or self.gamma % 2 != 0:
            raise ReproError(f"gamma must be even and >= 2, got {self.gamma}")
        if self.n_source < 0 or self.n_target <= 0:
            raise ReproError("row counts must be positive")


@dataclasses.dataclass
class RealEstateWorkload:
    """A generated listings/MLS pair plus its ground truth."""

    source: Database
    target: Database
    ground_truth: GroundTruth
    config: RealEstateConfig
    house_values: frozenset
    condo_values: frozenset


def _house_row(rng: np.random.Generator) -> dict:
    return {
        "address": _address(rng),
        "sqft": max(int(rng.normal(2300, 550)), 700),
        "price": round(float(rng.lognormal(12.9, 0.3)), 2),
        "agent": person_name(rng),
    }


def _condo_row(rng: np.random.Generator) -> dict:
    unit = int(rng.integers(1, 60))
    return {
        "address": f"unit {unit}, {_address(rng)}",
        "sqft": max(int(rng.normal(950, 220)), 300),
        "price": round(float(rng.lognormal(12.1, 0.25)), 2),
        "agent": person_name(rng),
    }


def _make_listing_source(config: RealEstateConfig,
                         rng: np.random.Generator) -> Relation:
    houses, condos = property_kind_labels(config.gamma)
    columns: dict[str, list] = {
        "ListingID": list(range(1, config.n_source + 1)),
        "Address": [], "PropertyKind": [], "SquareFeet": [],
        "AskingPrice": [], "ListedBy": [],
    }
    for _ in range(config.n_source):
        is_house = rng.random() < 0.5
        row = _house_row(rng) if is_house else _condo_row(rng)
        labels = houses if is_house else condos
        columns["Address"].append(row["address"])
        columns["PropertyKind"].append(
            labels[int(rng.integers(len(labels)))])
        columns["SquareFeet"].append(row["sqft"])
        columns["AskingPrice"].append(row["price"])
        columns["ListedBy"].append(row["agent"])
    return Relation.infer_schema("listings", columns)


#: Attribute names of the two MLS-export tables, keyed by semantic role.
WORKLOAD_TARGET_LAYOUT = {
    "house": {"table": "houses", "id": "house_id",
              "address": "street_address", "sqft": "floor_area",
              "price": "list_price", "agent": "realtor"},
    "condo": {"table": "condo_units", "id": "unit_id",
              "address": "address_line", "sqft": "interior_sqft",
              "price": "asking", "agent": "listing_agent"},
}


def _make_workload_target(kind: str, n: int,
                          rng: np.random.Generator) -> Relation:
    layout = WORKLOAD_TARGET_LAYOUT[kind]
    make_row = _house_row if kind == "house" else _condo_row
    columns: dict[str, list] = {layout["id"]: list(range(1, n + 1))}
    for role in ("address", "sqft", "price", "agent"):
        columns[layout[role]] = []
    for _ in range(n):
        row = make_row(rng)
        for role in ("address", "sqft", "price", "agent"):
            columns[layout[role]].append(row[role])
    return Relation.infer_schema(layout["table"], columns)


def _workload_truth(house_values: frozenset,
                    condo_values: frozenset) -> GroundTruth:
    truth = GroundTruth()
    for kind, values in (("house", house_values), ("condo", condo_values)):
        layout = WORKLOAD_TARGET_LAYOUT[kind]
        for source_attr, role in (
                ("ListingID", "id"), ("Address", "address"),
                ("SquareFeet", "sqft"), ("AskingPrice", "price"),
                ("ListedBy", "agent")):
            truth.add("listings", source_attr, layout["table"],
                      layout[role], "PropertyKind", values)
    return truth


def make_realestate_workload(*, n_source: int = 1000, n_target: int = 400,
                             gamma: int = 2,
                             seed: int = 0) -> RealEstateWorkload:
    """Generate the real-estate workload (independent target instances,
    per-kind populations)."""
    config = RealEstateConfig(n_source=n_source, n_target=n_target,
                              gamma=gamma, seed=seed)
    master = np.random.default_rng(config.seed)
    source_rng, houses_rng, condos_rng = master.spawn(3)
    source = Database.from_relations(
        "realestate_src", [_make_listing_source(config, source_rng)])
    target = Database.from_relations("realestate_tgt", [
        _make_workload_target("house", config.n_target, houses_rng),
        _make_workload_target("condo", config.n_target, condos_rng),
    ])
    houses, condos = property_kind_labels(config.gamma)
    house_values, condo_values = frozenset(houses), frozenset(condos)
    return RealEstateWorkload(
        source=source, target=target,
        ground_truth=_workload_truth(house_values, condo_values),
        config=config, house_values=house_values,
        condo_values=condo_values)
