"""Parsing tests for the planning-principles file."""

import json

import pytest

from gridforge import fixtures as fx
from gridforge.economics import CostModel, annualize
from gridforge.grid_model import SchemaError, default_scenarios
from gridforge.planner import PlannerParams
from gridforge.principles import (
    default_principles,
    load_principles,
    principles_from_dict,
)
from gridforge.reliability import ReliabilityParams


def test_an_empty_document_yields_the_defaults():
    pr = principles_from_dict({})
    assert pr == default_principles()
    assert pr.scenarios == default_scenarios()
    assert pr.cost_model == CostModel()
    assert pr.reliability == ReliabilityParams()
    assert pr.planner == PlannerParams()


def test_the_example_principles_parse_end_to_end():
    pr = principles_from_dict(fx.example_principles_dict())
    assert [s.name for s in pr.scenarios] == ["peak_load", "peak_generation"]
    assert all(s.v_max == 1.06 and s.v_min == 0.96 for s in pr.scenarios)
    assert all(s.v_min_cont == 0.90 and s.v_max_cont == 1.10 for s in pr.scenarios)
    assert pr.cost_model == CostModel()  # the example spells the defaults out
    assert pr.reliability == ReliabilityParams()
    assert pr.planner.seed == 17
    assert pr.planner.n_topologies == 5
    assert pr.planner.cable_catalog == (fx.CABLE_150.name, fx.CABLE_300.name)


def test_voltage_bands_are_injected_into_every_scenario():
    pr = principles_from_dict({"voltage_bands": {"normal": [0.93, 1.08],
                                                 "loading_max": 80.0}})
    for s in pr.scenarios:
        assert (s.v_min, s.v_max) == (0.93, 1.08)
        assert (s.v_min_cont, s.v_max_cont) == (0.90, 1.10)  # untouched default
        assert s.loading_max == 80.0


@pytest.mark.parametrize("bands, message", [
    ({"normal": [1.04, 0.96]}, "min must be below max"),
    ({"normal": [0.96]}, "a .min, max. pair"),
    ({"normal": 0.96}, "a .min, max. pair"),
    ({"normal": [0.96, "high"]}, "a number"),
    ({"typo_band": [0.9, 1.1]}, "unexpected field"),
], ids=["inverted", "too-short", "not-a-list", "non-numeric", "unknown-key"])
def test_malformed_voltage_bands_are_rejected(bands, message):
    with pytest.raises(SchemaError, match=message):
        principles_from_dict({"voltage_bands": bands})


def test_explicit_scenarios_replace_the_defaults():
    doc = {
        "voltage_bands": {"normal": [0.95, 1.05]},
        "scenarios": [
            {"name": "icy_evening", "scale_load": 1.2, "scale_pv": 0.0,
             "scale_wind": 0.1, "v_min": 0.94},
            {"name": "mild_noon", "scale_load": 0.4, "scale_pv": 1.0,
             "scale_wind": 0.6},
        ],
    }
    scenarios = principles_from_dict(doc).scenarios
    assert [s.name for s in scenarios] == ["icy_evening", "mild_noon"]
    icy, mild = scenarios
    assert icy.scale_load == 1.2
    assert icy.v_min == 0.94  # per-scenario override wins
    assert mild.v_min == 0.95  # the band fills the gap
    assert mild.v_max == icy.v_max == 1.05


@pytest.mark.parametrize("scenarios, message", [
    ([], "at least one scenario"),
    ([{"scale_load": 1.0, "scale_pv": 0.0, "scale_wind": 0.0}], "missing required field"),
    ([{"name": "a", "scale_pv": 0.0, "scale_wind": 0.0}], "missing required field"),
    ([{"name": "a", "scale_load": 1.0, "scale_pv": 0.0, "scale_wind": 0.0},
      {"name": "a", "scale_load": 0.5, "scale_pv": 0.0, "scale_wind": 0.0}],
     "duplicate scenario"),
    ([{"name": "a", "scale_load": 1.0, "scale_pv": 0.0, "scale_wind": 0.0,
       "season": "winter"}], "unexpected field"),
    ([{"name": "a", "scale_load": True, "scale_pv": 0.0, "scale_wind": 0.0}],
     "a number"),
    ("peak", "an array"),
], ids=["empty", "nameless", "missing-scale", "duplicate-name",
        "unknown-key", "bool-scale", "not-a-list"])
def test_malformed_scenarios_are_rejected(scenarios, message):
    with pytest.raises(SchemaError, match=message):
        principles_from_dict({"scenarios": scenarios})


def test_cost_entries_accept_plain_annual_rates():
    pr = principles_from_dict({"cost_model": {"cable_per_km": 8100,
                                              "interest_rate": 3.5}})
    assert pr.cost_model.cable_per_km == 8100.0
    assert pr.cost_model.interest_rate == 3.5
    assert pr.cost_model.switching_station == CostModel().switching_station


def test_cost_entries_annualize_investment_objects():
    doc = {"cost_model": {"interest_rate": 5.0,
                          "switching_station": {"total": 35000.0, "lifetime": 40}}}
    pr = principles_from_dict(doc)
    assert pr.cost_model.switching_station == pytest.approx(
        annualize(35000.0, 5.0, 40), rel=1e-12)
    # the annualized figure is an annuity, so it exceeds straight-line depreciation
    assert pr.cost_model.switching_station > 35000.0 / 40


@pytest.mark.parametrize("cost_model, message", [
    ({"interest_rate": -1.0}, "must be >= 0"),
    ({"cable_per_km": -5.0}, "must be >= 0"),
    ({"cable_per_km": {"total": 1000.0}}, "need total and lifetime"),
    ({"cable_per_km": {"total": 1000.0, "lifetime": 0.5}}, "must be >= 1 year"),
    ({"cable_per_km": {"total": 1000.0, "lifetime": 10, "note": "x"}}, "unexpected field"),
    ({"cable_per_km": "cheap"}, "a number or an investment object"),
    ({"helicopter_per_hour": 900.0}, "unexpected field"),
], ids=["negative-interest", "negative-rate", "half-investment",
        "short-lifetime", "investment-extra-key", "non-numeric", "unknown-key"])
def test_malformed_cost_models_are_rejected(cost_model, message):
    with pytest.raises(SchemaError, match=message):
        principles_from_dict({"cost_model": cost_model})


def test_failure_rates_merge_with_the_built_in_table():
    doc = {"reliability_params": {"failure_rate": {"cable:paper": 0.08},
                                  "e_out_max": 99.0}}
    pr = principles_from_dict(doc)
    assert pr.reliability.failure_rate["cable:paper"] == 0.08
    assert pr.reliability.failure_rate["cable"] == ReliabilityParams().failure_rate["cable"]
    assert pr.reliability.e_out_max == 99.0
    assert pr.reliability.t_locate == ReliabilityParams().t_locate


@pytest.mark.parametrize("reliability, message", [
    ({"failure_rate": {"cable": -0.1}}, "must be >= 0"),
    ({"failure_rate": 0.02}, "an object"),
    ({"mean_time_to_coffee": 1.0}, "unexpected field"),
], ids=["negative-rate", "not-a-table", "unknown-key"])
def test_malformed_reliability_params_are_rejected(reliability, message):
    with pytest.raises(SchemaError, match=message):
        principles_from_dict({"reliability_params": reliability})


def test_planner_params_parse_with_partial_overrides():
    doc = {"planner_params": {"seed": 99, "cable_catalog": ["A", "B"],
                              "perturbation": 0.2}}
    pr = principles_from_dict(doc)
    assert pr.planner.seed == 99
    assert pr.planner.cable_catalog == ("A", "B")
    assert pr.planner.perturbation == 0.2
    assert pr.planner.max_evaluations == PlannerParams().max_evaluations


@pytest.mark.parametrize("planner, message", [
    ({"n_topologies": 0}, "n_topologies"),  # dataclass validation surfaces as schema error
    ({"n_topologies": 2.5}, "an integer"),
    ({"cable_catalog": "A"}, "an array"),
    ({"cable_catalog": [1, 2]}, "a string"),
    ({"budget": 10}, "unexpected field"),
], ids=["zero-topologies", "float-count", "catalog-not-a-list",
        "catalog-non-string", "unknown-key"])
def test_malformed_planner_params_are_rejected(planner, message):
    with pytest.raises(SchemaError, match=message):
        principles_from_dict({"planner_params": planner})


_SCENARIO = {"name": "peak", "scale_load": 1.0, "scale_pv": 0.0, "scale_wind": 0.0}


@pytest.mark.parametrize("doc, path", [
    ({"planner_params": {"max_evaluations": 0}}, "$.planner_params"),
    ({"planner_params": {"restarts": -1}}, "$.planner_params"),
    ({"planner_params": {"non_improving_limit": -3}}, "$.planner_params"),
    ({"planner_params": {"dismantle_threshold_km": -1}}, "$.planner_params"),
    ({"reliability_params": {"t_locate": -1}}, "$.reliability_params.t_locate"),
    ({"reliability_params": {"t_onsite": -0.5}}, "$.reliability_params.t_onsite"),
    ({"reliability_params": {"t_remote": -0.01}}, "$.reliability_params.t_remote"),
    ({"reliability_params": {"e_out_max": -5}}, "$.reliability_params.e_out_max"),
    ({"voltage_bands": {"loading_max": -10}}, "$.voltage_bands.loading_max"),
    ({"scenarios": [{**_SCENARIO, "loading_max": 0}]}, "$.scenarios[0].loading_max"),
], ids=["max_evaluations", "restarts", "non_improving_limit", "dismantle_threshold_km",
        "t_locate", "t_onsite", "t_remote", "e_out_max", "loading_max",
        "scenario-loading_max"])
def test_values_out_of_range_are_rejected(doc, path, request):
    key = request.node.callspec.id.split("-")[-1]
    with pytest.raises(SchemaError, match=key) as info:
        principles_from_dict(doc)
    assert info.value.path == path


def test_the_edges_of_each_range_are_legal():
    pr = principles_from_dict({
        "planner_params": {"max_evaluations": 1, "restarts": 0, "non_improving_limit": 1,
                           "dismantle_threshold_km": 0},
        "reliability_params": {"t_locate": 0, "t_onsite": 0, "t_remote": 0, "e_out_max": 0},
        "voltage_bands": {"loading_max": 0.1},
    })
    assert (pr.planner.max_evaluations, pr.planner.restarts) == (1, 0)
    assert pr.reliability.e_out_max == 0.0
    assert all(s.loading_max == 0.1 for s in pr.scenarios)


def test_top_level_schema_checks():
    with pytest.raises(SchemaError, match="an object"):
        principles_from_dict(["voltage_bands"])
    with pytest.raises(SchemaError, match="unexpected field"):
        principles_from_dict({"voltage_band": {}})


def test_load_principles_round_trips_a_file(tmp_path):
    path = tmp_path / "principles.json"
    path.write_text(json.dumps(fx.example_principles_dict()), encoding="utf-8")
    assert load_principles(path) == principles_from_dict(fx.example_principles_dict())


def test_load_principles_rejects_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_principles(path)
