"""Annuities, measure prices and the concept surcharges.

A measure carries its price from where the planner makes it; the plans of
the example area and both trade-off areas are checked against each kind's
catalog rule, recomputed from the measure and the planned grid.

The annuity oracle simulates the loan: the correct yearly payment is the
one that amortizes the debt to exactly zero after the depreciation period,
found by bisection without touching the closed-form formula.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

import gridforge.fixtures as fx
from gridforge.economics import (
    CONCEPTS,
    COST_CATEGORIES,
    CostBreakdown,
    CostModel,
    annualize,
    concept_overhead,
    plan_cost,
)
from gridforge.pipeline import run_area
from gridforge.planner import MEASURE_KINDS, Measure
from gridforge.principles import principles_from_dict


# --------------------------------------------------------------------------
# oracle: amortization by debt simulation


def annuity_by_amortization(c_total: float, interest_pct: float, years: int) -> float:
    """Yearly payment driving the compounding debt to zero, via bisection."""

    def residual_debt(payment: float) -> float:
        debt = c_total
        for _ in range(years):
            debt = debt * (1.0 + interest_pct / 100.0) - payment
        return debt

    lo, hi = 0.0, c_total * (1.0 + interest_pct / 100.0)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if residual_debt(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_annualize_single_year_is_exact():
    assert annualize(1000.0, 10.0, 1.0) == 1100.0


def test_annualize_matches_amortization_oracle():
    grid = itertools.product(
        (1.0, 740.0, 35000.0, 123456.78),
        (0.5, 2.0, 5.0, 7.3, 10.0),
        (1, 2, 5, 10, 35, 40, 80),
    )
    for c, i, m in grid:
        expected = annuity_by_amortization(c, i, m)
        assert annualize(c, i, m) == pytest.approx(expected, rel=1e-9)


def test_annualize_zero_interest_is_straight_line():
    assert annualize(7000.0, 0.0, 35.0) == pytest.approx(200.0)
    # and the formula approaches that limit continuously
    assert annualize(7000.0, 1e-9, 35.0) == pytest.approx(200.0, rel=1e-6)


def test_annualize_input_validation():
    with pytest.raises(ValueError, match="lifetime"):
        annualize(1000.0, 5.0, 0.5)
    with pytest.raises(ValueError, match="interest"):
        annualize(1000.0, -1.0, 10.0)


@given(c=st.floats(1.0, 1e7), i=st.floats(0.0, 15.0), m=st.integers(1, 60))
def test_annuity_bounds(c, i, m):
    a = annualize(c, i, m)
    assert a >= c / m - 1e-9 * c  # repay at least the principal share
    assert a <= c * (1.0 + i / 100.0) + 1e-9 * c  # never worse than one year


@given(c=st.floats(1.0, 1e6), m=st.integers(1, 60),
       i1=st.floats(0.0, 10.0), i2=st.floats(0.0, 10.0))
def test_annuity_grows_with_interest(c, m, i1, i2):
    lo, hi = sorted((i1, i2))
    assert annualize(c, lo, m) <= annualize(c, hi, m) + 1e-9 * c


# --------------------------------------------------------------------------
# default rates


def test_station_renewal_equals_over_five_km_of_cable():
    model = CostModel()
    ratio = model.switching_station / model.cable_per_km
    assert ratio == pytest.approx(35900.0 / 7000.0)
    assert 5.128 < ratio < 5.129
    assert ratio > 5.0


# --------------------------------------------------------------------------
# per-measure prices


@pytest.fixture(scope="module")
def planned_areas():
    """(principles, report) of the example area and both trade-off areas."""
    tradeoff = principles_from_dict(fx.tradeoff_principles_dict())
    example = principles_from_dict(fx.example_principles_dict())
    return [
        (example, run_area(fx.example_area(), example)),
        (tradeoff, run_area(fx.station_tradeoff_area(), tradeoff)),
        (tradeoff, run_area(fx.mesh_tradeoff_area(), tradeoff)),
    ]


def catalog_price(measure: Measure, grid, model: CostModel) -> float:
    """A measure's annual price by its kind's catalog rule."""
    if measure.kind == "AddTrail":
        return measure.length_km * model.cable_per_km
    if measure.kind in ("ReplaceLine", "AddParallel"):
        return grid.lines_by_id[measure.target].length * model.cable_per_km
    if measure.kind == "AutomateStation":
        return model.communication_link
    if measure.kind == "RenewSwitchingStation":
        return model.switching_station
    return 0.0


def test_every_planned_measure_is_priced_by_its_kind(planned_areas):
    categories = {"AddTrail": "cables", "ReplaceLine": "cables", "AddParallel": "cables",
                  "AutomateStation": "communication_links",
                  "RenewSwitchingStation": "switching_stations"}
    kinds = set()
    for principles, report in planned_areas:
        model = principles.cost_model
        for plans in report.plans.values():
            for plan in plans:
                if plan.cost is None:
                    continue
                want = {c: 0.0 for c in COST_CATEGORIES}
                for m in plan.measures:
                    kinds.add(m.kind)
                    price = catalog_price(m, plan.grid, model)
                    assert m.cost_per_year == price, (report.area, plan.concept, m)
                    if m.kind in categories:
                        want[categories[m.kind]] += price
                if plan.concept == "closed_ring":
                    want["protection"] += concept_overhead(
                        plan.grid, "closed_ring", model).categories["protection"]
                assert plan.cost.categories == want, (report.area, plan.concept)
    assert kinds == set(MEASURE_KINDS)  # every rule was exercised


def test_measure_validation():
    with pytest.raises(ValueError, match="unknown measure kind"):
        Measure("PaintItBlack", "s1")
    with pytest.raises(ValueError, match="cost"):
        Measure("AddTrail", "a", to_station="b", cost_per_year=-1.0)
    with pytest.raises(ValueError, match="distinct"):
        Measure("AddTrail", "a", to_station="a")


# --------------------------------------------------------------------------
# plan totals


def test_plan_cost_fills_categories():
    measures = [
        Measure("AddTrail", "s1", to_station="s4", length_km=2.0, cost_per_year=14000.0),
        Measure("ReplaceLine", "f2", line_type="NA2XS2Y 3x1x300", cost_per_year=6650.0),
        Measure("AutomateStation", "s2", cost_per_year=1200.0),
        Measure("AutomateStation", "s5", cost_per_year=1200.0),
        Measure("RenewSwitchingStation", "ss", cost_per_year=35900.0),
        Measure("RemoveSwitchingStation", "ss"),
        Measure("SetSectioningPoint", "tie@s3", closed=True),
    ]
    breakdown = plan_cost(measures)
    assert breakdown.categories["cables"] == pytest.approx((2.0 + 0.95) * 7000.0)
    assert breakdown.categories["communication_links"] == pytest.approx(2400.0)
    assert breakdown.categories["switching_stations"] == pytest.approx(35900.0)
    assert breakdown.categories["protection"] == 0.0
    assert breakdown.total == pytest.approx(sum(breakdown.categories.values()))


def test_plan_cost_is_additive():
    first = [Measure("AddTrail", "s1", to_station="s4", length_km=2.0, cost_per_year=14000.0)]
    second = [Measure("AutomateStation", "s2", cost_per_year=1200.0)]
    combined = plan_cost(first + second)
    split = plan_cost(first) + plan_cost(second)
    assert combined.categories == split.categories


def test_breakdown_arithmetic():
    a = CostBreakdown({"cables": 100.0})
    b = CostBreakdown({"cables": 50.0, "protection": 30.0})
    merged = a + b
    assert merged.categories["cables"] == 150.0
    assert merged.categories["protection"] == 30.0
    assert set(merged.categories) == set(COST_CATEGORIES)


# --------------------------------------------------------------------------
# concept surcharges


def test_concept_overhead_only_for_closed_ring():
    grid = fx.open_ring_demo()
    model = CostModel()
    assert concept_overhead(grid, "radial", model).total == 0.0
    assert concept_overhead(grid, "switching_station", model).total == 0.0
    ring = concept_overhead(grid, "closed_ring", model)
    # two feeder bays with impedance protection, six stations with indicators
    assert ring.categories["protection"] == pytest.approx(2 * 400.0 + 6 * 30.0)
    assert ring.total == pytest.approx(980.0)


def test_concept_overhead_on_the_planning_area():
    overhead = concept_overhead(fx.example_area(), "closed_ring", CostModel())
    assert overhead.total == pytest.approx(7 * 400.0 + 25 * 30.0)


def test_concept_overhead_rejects_unknown_concept():
    with pytest.raises(ValueError, match="unknown concept"):
        concept_overhead(fx.open_ring_demo(), "spider_web", CostModel())


def test_concepts_tuple_is_the_public_contract():
    assert CONCEPTS == ("radial", "closed_ring", "switching_station")
