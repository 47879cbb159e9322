"""Annual cost accounting for expansion plans.

All comparisons between grid concepts run on annual cost (EUR/a). Catalog
positions are annual rates; one-off investments are converted with the
standard annuity formula. Concept-level overhead (impedance protection,
directional fault indicators for closed-ring operation) is charged grid-wide
once any ring is operated closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from gridforge.grid_model import Grid
from gridforge.topology import feeder_bays

CONCEPTS = ("radial", "closed_ring", "switching_station")

COST_CATEGORIES = ("cables", "switching_stations", "communication_links", "protection")

#: measure kind -> cost category; kinds missing here are free of charge
_CATEGORY_BY_KIND = {
    "AddTrail": "cables",
    "AddParallel": "cables",
    "ReplaceLine": "cables",
    "RenewSwitchingStation": "switching_stations",
    "RemoveSwitchingStation": "switching_stations",
    "AutomateStation": "communication_links",
}


def annualize(c_total: float, interest_rate: float, lifetime: float) -> float:
    """Annuity of a one-off investment.

    Args:
        c_total: investment sum (EUR).
        interest_rate: calculatory interest rate in percent per year.
        lifetime: depreciation period m in years.

    Returns:
        Annual cost (EUR/a). With zero interest this is the straight-line
        ``c_total / m`` limit.

    Raises:
        ValueError: lifetime below one year or negative interest rate.
    """
    if lifetime < 1:
        raise ValueError(f"lifetime must be >= 1 year, got {lifetime}")
    if interest_rate < 0:
        raise ValueError(f"interest rate must be >= 0, got {interest_rate}")
    rate = interest_rate / 100.0
    if rate == 0.0:  # includes rates that underflow the division
        return c_total / lifetime
    # q - 1 via expm1/log1p: stays accurate (and non-zero) for tiny rates,
    # where the naive power expression collapses to q == 1.0
    growth = math.expm1(lifetime * math.log1p(rate))
    return c_total * rate + c_total * rate / growth


@dataclass(frozen=True)
class CostModel:
    """Annual rates of the expansion catalog (EUR/a unless noted)."""

    interest_rate: float = 5.0  # %/a, used when positions come as investments
    cable_per_km: float = 7000.0  # EUR/(km a), new trail, parallel or replacement
    switching_station: float = 35900.0  # EUR/a for renewing the station
    communication_link: float = 1200.0  # EUR/a per automated station
    directional_indicator_per_station: float = 30.0  # EUR/a, closed-ring overhead
    impedance_protection_per_feeder: float = 400.0  # EUR/a, closed-ring overhead


@dataclass(frozen=True)
class CostBreakdown:
    categories: dict[str, float] = field(
        default_factory=lambda: {c: 0.0 for c in COST_CATEGORIES})

    @property
    def total(self) -> float:
        return sum(self.categories.values())

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        merged = {c: 0.0 for c in COST_CATEGORIES}
        for source in (self.categories, other.categories):
            for category, value in source.items():
                merged[category] = merged.get(category, 0.0) + value
        return CostBreakdown(merged)

    def scaled(self, factor: float) -> "CostBreakdown":
        return CostBreakdown({c: v * factor for c, v in self.categories.items()})


def measure_cost(grid: Grid, measure, cost_model: CostModel) -> float:
    """Annual cost of a single measure, recomputed from its content."""
    kind = measure.kind
    if kind in ("AddTrail",):
        return measure.length_km * cost_model.cable_per_km
    if kind in ("AddParallel", "ReplaceLine"):
        line = grid.lines_by_id.get(measure.target)
        length = line.length if line is not None else (measure.length_km or 0.0)
        return length * cost_model.cable_per_km
    if kind == "RenewSwitchingStation":
        return cost_model.switching_station
    if kind == "AutomateStation":
        return cost_model.communication_link
    # SetSectioningPoint, CloseRing, RemoveSwitchingStation: switching and
    # dismantling are free in the catalog
    return 0.0


def plan_cost(grid: Grid, measures: Iterable, cost_model: CostModel) -> CostBreakdown:
    """Total annual cost of a measure set, broken down by category.

    ``grid`` is the grid the measures refer to (line lengths for parallels
    and replacements are taken from it).
    """
    categories = {c: 0.0 for c in COST_CATEGORIES}
    for measure in measures:
        category = _CATEGORY_BY_KIND.get(measure.kind)
        if category is None:
            continue
        categories[category] += measure_cost(grid, measure, cost_model)
    return CostBreakdown(categories)


def concept_overhead(grid: Grid, concept: str, cost_model: CostModel) -> CostBreakdown:
    """Grid-wide surcharge of a concept, independent of chosen measures.

    Closed-ring operation needs impedance protection per feeder bay at the
    primary substation plus directional short-circuit indicators in every
    secondary substation; a closed-ring plan carries this surcharge whether
    or not the optimizer ends up closing a ring. The radial and
    switching-station concepts carry none.
    """
    if concept not in CONCEPTS:
        raise ValueError(f"unknown concept {concept!r}")
    breakdown = CostBreakdown()
    if concept == "closed_ring":
        n_feeders = feeder_bays(grid)
        n_stations = sum(1 for b in grid.buses if b.kind == "secondary_substation")
        breakdown.categories["protection"] = (
            n_feeders * cost_model.impedance_protection_per_feeder
            + n_stations * cost_model.directional_indicator_per_station)
    return breakdown
