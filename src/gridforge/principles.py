"""Planning principles: the configuration bundle steering a planning run.

One JSON file carries the operating scenarios with their limits, the cost
model, the reliability parameters and the search parameters. Every key is
optional — omitted sections fall back to the built-in defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from gridforge.economics import CostModel, annualize
from gridforge.grid_model import Scenario, SchemaError, default_scenarios
from gridforge.planner import PlannerParams
from gridforge.reliability import ReliabilityParams


@dataclass(frozen=True)
class PlanningPrinciples:
    scenarios: tuple[Scenario, ...]
    cost_model: CostModel
    reliability: ReliabilityParams
    planner: PlannerParams


def default_principles() -> PlanningPrinciples:
    return PlanningPrinciples(
        scenarios=default_scenarios(),
        cost_model=CostModel(),
        reliability=ReliabilityParams(),
        planner=PlannerParams(),
    )


def _require(value, types, path: str, what: str):
    if isinstance(value, bool) or not isinstance(value, types):
        raise SchemaError(path, f"expected {what}")
    return value


def _number(doc: dict, key: str, path: str, default: float) -> float:
    if key not in doc:
        return default
    return float(_require(doc[key], (int, float), f"{path}.{key}", "a number"))


def _integer(doc: dict, key: str, path: str, default: int) -> int:
    if key not in doc:
        return default
    return int(_require(doc[key], int, f"{path}.{key}", "an integer"))


def _band(doc: dict, key: str, path: str, default: tuple[float, float]) -> tuple[float, float]:
    if key not in doc:
        return default
    raw = _require(doc[key], list, f"{path}.{key}", "a [min, max] pair")
    if len(raw) != 2:
        raise SchemaError(f"{path}.{key}", "expected a [min, max] pair")
    low = float(_require(raw[0], (int, float), f"{path}.{key}[0]", "a number"))
    high = float(_require(raw[1], (int, float), f"{path}.{key}[1]", "a number"))
    if low >= high:
        raise SchemaError(f"{path}.{key}", f"min must be below max, got [{low}, {high}]")
    return low, high


def _loading_max(doc: dict, path: str, default: float) -> float:
    value = _number(doc, "loading_max", path, default)
    if value <= 0:
        raise SchemaError(f"{path}.loading_max", "must be > 0")
    return value


def _parse_scenarios(doc: dict[str, Any]) -> tuple[Scenario, ...]:
    bands = doc.get("voltage_bands", {})
    _require(bands, dict, "$.voltage_bands", "an object")
    for key in bands:
        if key not in ("normal", "contingency", "loading_max"):
            raise SchemaError(f"$.voltage_bands.{key}", "unexpected field")
    v_min, v_max = _band(bands, "normal", "$.voltage_bands", (0.96, 1.04))
    v_min_cont, v_max_cont = _band(bands, "contingency", "$.voltage_bands", (0.90, 1.10))
    loading_max = _loading_max(bands, "$.voltage_bands", 100.0)
    limits = dict(v_min=v_min, v_max=v_max, v_min_cont=v_min_cont,
                  v_max_cont=v_max_cont, loading_max=loading_max)

    if "scenarios" not in doc:
        return tuple(replace(s, **limits) for s in default_scenarios())

    raw = _require(doc["scenarios"], list, "$.scenarios", "an array")
    if not raw:
        raise SchemaError("$.scenarios", "at least one scenario is required")
    scenarios = []
    seen = set()
    for i, entry in enumerate(raw):
        path = f"$.scenarios[{i}]"
        _require(entry, dict, path, "an object")
        fields = dict(limits)
        if "name" not in entry:
            raise SchemaError(f"{path}.name", "missing required field")
        name = _require(entry["name"], str, f"{path}.name", "a string")
        if name in seen:
            raise SchemaError(f"{path}.name", f"duplicate scenario {name!r}")
        seen.add(name)
        for key in entry:
            if key == "name":
                continue
            if key not in ("scale_load", "scale_pv", "scale_wind", *fields):
                raise SchemaError(f"{path}.{key}", "unexpected field")
        for key in ("scale_load", "scale_pv", "scale_wind"):
            if key not in entry:
                raise SchemaError(f"{path}.{key}", "missing required field")
            fields[key] = float(_require(entry[key], (int, float), f"{path}.{key}", "a number"))
        for key in limits:
            if key == "loading_max":
                fields[key] = _loading_max(entry, path, fields[key])
            elif key in entry:
                fields[key] = float(_require(entry[key], (int, float), f"{path}.{key}", "a number"))
        scenarios.append(Scenario(name=name, **fields))
    return tuple(scenarios)


def _parse_cost_model(doc: dict[str, Any]) -> CostModel:
    raw = doc.get("cost_model", {})
    _require(raw, dict, "$.cost_model", "an object")
    interest = _number(raw, "interest_rate", "$.cost_model", 5.0)
    if interest < 0:
        raise SchemaError("$.cost_model.interest_rate", "must be >= 0")

    rate_keys = ("cable_per_km", "switching_station", "communication_link",
                 "directional_indicator_per_station", "impedance_protection_per_feeder")
    for key in raw:
        if key != "interest_rate" and key not in rate_keys:
            raise SchemaError(f"$.cost_model.{key}", "unexpected field")

    values: dict[str, float] = {"interest_rate": interest}
    for key in rate_keys:
        if key not in raw:
            continue
        entry = raw[key]
        path = f"$.cost_model.{key}"
        if isinstance(entry, dict):
            # one-off investment: {"total": EUR, "lifetime": years}
            for sub in entry:
                if sub not in ("total", "lifetime"):
                    raise SchemaError(f"{path}.{sub}", "unexpected field")
            if "total" not in entry or "lifetime" not in entry:
                raise SchemaError(path, "investment entries need total and lifetime")
            total = float(_require(entry["total"], (int, float), f"{path}.total", "a number"))
            lifetime = float(_require(entry["lifetime"], (int, float),
                                      f"{path}.lifetime", "a number"))
            if lifetime < 1:
                raise SchemaError(f"{path}.lifetime", "must be >= 1 year")
            values[key] = annualize(total, interest, lifetime)
        else:
            values[key] = float(_require(entry, (int, float), path, "a number or an investment object"))
        if values[key] < 0:
            raise SchemaError(path, "must be >= 0")
    return CostModel(**values)


def _parse_reliability(doc: dict[str, Any]) -> ReliabilityParams:
    raw = doc.get("reliability_params", {})
    _require(raw, dict, "$.reliability_params", "an object")
    defaults = ReliabilityParams()
    for key in raw:
        if key not in ("failure_rate", "t_locate", "t_onsite", "t_remote", "e_out_max"):
            raise SchemaError(f"$.reliability_params.{key}", "unexpected field")
    rates = dict(defaults.failure_rate)
    if "failure_rate" in raw:
        table = _require(raw["failure_rate"], dict, "$.reliability_params.failure_rate",
                         "an object")
        for name, value in table.items():
            value = float(_require(value, (int, float),
                                   f"$.reliability_params.failure_rate.{name}", "a number"))
            if value < 0:
                raise SchemaError(f"$.reliability_params.failure_rate.{name}", "must be >= 0")
            rates[name] = value
    limits = {}
    for key in ("t_locate", "t_onsite", "t_remote", "e_out_max"):
        limits[key] = _number(raw, key, "$.reliability_params", getattr(defaults, key))
        if limits[key] < 0:
            raise SchemaError(f"$.reliability_params.{key}", "must be >= 0")
    return ReliabilityParams(failure_rate=rates, **limits)


def _parse_planner(doc: dict[str, Any]) -> PlannerParams:
    raw = doc.get("planner_params", {})
    _require(raw, dict, "$.planner_params", "an object")
    defaults = PlannerParams()
    known = ("n_topologies", "dismantle_threshold_km", "trail_factor",
             "max_evaluations", "perturbation", "non_improving_limit",
             "restarts", "seed", "cable_catalog")
    for key in raw:
        if key not in known:
            raise SchemaError(f"$.planner_params.{key}", "unexpected field")
    catalog: tuple[str, ...] = defaults.cable_catalog
    if "cable_catalog" in raw:
        entries = _require(raw["cable_catalog"], list, "$.planner_params.cable_catalog",
                           "an array of line type names")
        catalog = tuple(
            _require(e, str, f"$.planner_params.cable_catalog[{i}]", "a string")
            for i, e in enumerate(entries))
    path = "$.planner_params"
    try:
        return PlannerParams(
            n_topologies=_integer(raw, "n_topologies", path, defaults.n_topologies),
            dismantle_threshold_km=_number(raw, "dismantle_threshold_km", path,
                                           defaults.dismantle_threshold_km),
            trail_factor=_number(raw, "trail_factor", path, defaults.trail_factor),
            max_evaluations=_integer(raw, "max_evaluations", path, defaults.max_evaluations),
            perturbation=_number(raw, "perturbation", path, defaults.perturbation),
            non_improving_limit=_integer(raw, "non_improving_limit", path,
                                         defaults.non_improving_limit),
            restarts=_integer(raw, "restarts", path, defaults.restarts),
            seed=_integer(raw, "seed", path, defaults.seed),
            cable_catalog=catalog,
        )
    except ValueError as exc:
        raise SchemaError("$.planner_params", str(exc)) from None


def principles_from_dict(doc: dict[str, Any]) -> PlanningPrinciples:
    _require(doc, dict, "$", "an object")
    for key in doc:
        if key not in ("scenarios", "voltage_bands", "cost_model",
                       "reliability_params", "planner_params"):
            raise SchemaError(f"$.{key}", "unexpected field")
    return PlanningPrinciples(
        scenarios=_parse_scenarios(doc),
        cost_model=_parse_cost_model(doc),
        reliability=_parse_reliability(doc),
        planner=_parse_planner(doc),
    )


def load_principles(path: str | Path) -> PlanningPrinciples:
    """Read a planning-principles JSON file.

    Raises:
        SchemaError: malformed JSON or schema violations.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None
    return principles_from_dict(doc)
