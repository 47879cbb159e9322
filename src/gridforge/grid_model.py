"""Grid data model: buses, lines, switches, transformers and scenarios.

The model is deliberately small: a balanced MV grid is described by buses
with coordinates, series-impedance lines, switches that sit between a bus
and a line end, two-winding transformers acting as ideal sources on their
MV busbar, and lumped injections (loads, PV, wind) at stations.

All element types are frozen dataclasses; grid-level operations are pure
functions that return new ``Grid`` objects instead of mutating.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Any, Iterable

BUS_KINDS = ("primary_substation", "secondary_substation", "switching_station", "junction")
STATION_KINDS = ("secondary_substation", "switching_station")
CONSTRUCTIONS = ("cable", "overhead")
LINE_ORIGINS = ("existing", "new_trail", "parallel")
SWITCH_KINDS = ("load_break", "circuit_breaker")
INJECTION_CATEGORIES = ("load", "pv", "wind")
SCENARIO_NAMES = ("peak_load", "peak_generation")

#: Default power factors by injection category (loads draw reactive power,
#: generators are operated at unity unless configured otherwise).
DEFAULT_P_FACTOR = {"load": 0.97, "pv": 1.0, "wind": 1.0}


class SchemaError(ValueError):
    """Raised when a grid or principles file violates the JSON schema.

    ``path`` names the offending location, e.g. ``$.lines[3].length``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class Bus:
    id: str
    kind: str
    x: float  # m
    y: float  # m
    vn: float  # kV
    requires_contingency_supply: bool = False


@dataclass(frozen=True)
class LineType:
    name: str
    r_per_km: float  # ohm/km
    x_per_km: float  # ohm/km
    i_max: float  # kA
    construction: str  # cable | overhead
    insulation: str | None = None


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    length: float  # km
    line_type: str
    in_service: bool = True
    origin: str = "existing"


@dataclass(frozen=True)
class Switch:
    id: str
    bus: str
    line: str
    closed: bool
    kind: str = "load_break"
    remote_controlled: bool = False


@dataclass(frozen=True)
class Transformer:
    id: str
    hv_bus: str
    lv_bus: str
    sn: float  # MVA
    setpoint_by_scenario: dict[str, float] = field(default_factory=dict)

    def __hash__(self):  # dict field blocks the generated hash
        return hash((self.id, self.hv_bus, self.lv_bus, self.sn))


@dataclass(frozen=True)
class Injection:
    id: str
    bus: str
    sn: float  # MVA
    category: str  # load | pv | wind
    p_factor: float = 1.0


@dataclass(frozen=True)
class ExternalSource:
    id: str
    bus: str


@dataclass(frozen=True)
class Scenario:
    """A worst-case operating point plus the limits checked under it."""

    name: str
    scale_load: float
    scale_pv: float
    scale_wind: float
    v_min: float = 0.96  # pu, normal operation
    v_max: float = 1.04
    v_min_cont: float = 0.90  # pu, contingency operation
    v_max_cont: float = 1.10
    loading_max: float = 100.0  # percent


def default_scenarios() -> tuple[Scenario, Scenario]:
    """The two planning scenarios: peak load and peak generation."""
    return (
        Scenario("peak_load", scale_load=1.0, scale_pv=0.0, scale_wind=0.0),
        Scenario("peak_generation", scale_load=0.3, scale_pv=0.8, scale_wind=1.0),
    )


@dataclass(eq=True)
class Grid:
    """Immutable-by-convention container for one MV grid area.

    Element tuples preserve file order; use :func:`validate_grid` to check
    referential integrity before running anything on a freshly built grid.
    """

    buses: tuple[Bus, ...] = ()
    line_types: tuple[LineType, ...] = ()
    lines: tuple[Line, ...] = ()
    switches: tuple[Switch, ...] = ()
    transformers: tuple[Transformer, ...] = ()
    injections: tuple[Injection, ...] = ()
    external_sources: tuple[ExternalSource, ...] = ()
    meta: dict[str, Any] = field(default_factory=dict)

    # -- lookups (caches live in __dict__, not part of equality) ----------

    @cached_property
    def buses_by_id(self) -> dict[str, Bus]:
        return {b.id: b for b in self.buses}

    @cached_property
    def lines_by_id(self) -> dict[str, Line]:
        return {l.id: l for l in self.lines}

    @cached_property
    def line_types_by_name(self) -> dict[str, LineType]:
        return {t.name: t for t in self.line_types}

    @cached_property
    def switches_by_id(self) -> dict[str, Switch]:
        return {s.id: s for s in self.switches}

    @cached_property
    def switches_by_line(self) -> dict[str, tuple[Switch, ...]]:
        out: dict[str, list[Switch]] = {}
        for s in self.switches:
            out.setdefault(s.line, []).append(s)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def switch_ids_by_line(self) -> dict[str, tuple[str, ...]]:
        return {k: tuple(s.id for s in v) for k, v in self.switches_by_line.items()}

    @cached_property
    def transformer_neighbours(self) -> dict[str, tuple[str, ...]]:
        """Buses coupled to each bus by a transformer (HV <-> LV side)."""
        out: dict[str, list[str]] = {}
        for t in self.transformers:
            out.setdefault(t.hv_bus, []).append(t.lv_bus)
            out.setdefault(t.lv_bus, []).append(t.hv_bus)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def switch_at(self) -> dict[tuple[str, str], Switch]:
        """Switch by (bus id, line id) connection point."""
        return {(s.bus, s.line): s for s in self.switches}

    @cached_property
    def lines_at_bus(self) -> dict[str, tuple[Line, ...]]:
        out: dict[str, list[Line]] = {b.id: [] for b in self.buses}
        for l in self.lines:
            out.setdefault(l.from_bus, []).append(l)
            out.setdefault(l.to_bus, []).append(l)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def injections_at_bus(self) -> dict[str, tuple[Injection, ...]]:
        out: dict[str, list[Injection]] = {}
        for inj in self.injections:
            out.setdefault(inj.bus, []).append(inj)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def source_buses(self) -> frozenset[str]:
        return frozenset(s.bus for s in self.external_sources)

    @cached_property
    def slack_buses(self) -> frozenset[str]:
        """MV busbars held at the scenario setpoint (transformer LV sides)."""
        return frozenset(t.lv_bus for t in self.transformers)

    @cached_property
    def structure_key(self) -> tuple:
        """Everything but cable choices and switch positions: line ids, ends
        and service flags, where the switches sit, the buses, transformers,
        sources and injections, and the line type catalog. Grids with equal
        keys differ at most in the type and length of each line and in
        which switches are closed."""
        lines, switches = self.lines, self.switches
        return (
            tuple(l.id for l in lines), tuple(l.from_bus for l in lines),
            tuple(l.to_bus for l in lines), tuple(l.in_service for l in lines),
            tuple(s.id for s in switches), tuple(s.bus for s in switches),
            tuple(s.line for s in switches),
            self.buses, self.transformers, self.external_sources, self.injections,
            self.line_types)

    def stations(self) -> list[Bus]:
        return [b for b in self.buses if b.kind in STATION_KINDS]

    def replace(self, **changes) -> "Grid":
        return replace(self, **changes)


@dataclass(frozen=True)
class GridFault:
    """One integrity violation found by :func:`validate_grid`."""

    element: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.element}: {self.rule}: {self.message}"


def validate_grid(grid: Grid) -> list[GridFault]:
    """Check referential and physical integrity of a grid.

    Returns a list of faults; an empty list means the grid is usable by
    every other operation in the package.
    """
    faults: list[GridFault] = []

    def fault(element: str, rule: str, message: str) -> None:
        faults.append(GridFault(element, rule, message))

    for container_name in ("buses", "line_types", "lines", "switches",
                           "transformers", "injections", "external_sources"):
        seen: set[str] = set()
        for el in getattr(grid, container_name):
            key = el.name if isinstance(el, LineType) else el.id
            if key in seen:
                fault(key, "duplicate_id", f"duplicate id in {container_name}")
            seen.add(key)

    bus_ids = {b.id for b in grid.buses}
    type_names = {t.name for t in grid.line_types}
    line_ids = {l.id for l in grid.lines}

    for b in grid.buses:
        if b.kind not in BUS_KINDS:
            fault(b.id, "bad_kind", f"unknown bus kind {b.kind!r}")
        if b.vn <= 0:
            fault(b.id, "non_positive_vn", f"vn must be > 0, got {b.vn}")

    for t in grid.line_types:
        if t.i_max <= 0:
            fault(t.name, "non_positive_ampacity", f"i_max must be > 0, got {t.i_max}")
        if t.r_per_km < 0 or t.x_per_km < 0:
            fault(t.name, "negative_impedance", "r_per_km and x_per_km must be >= 0")
        if t.construction not in CONSTRUCTIONS:
            fault(t.name, "bad_construction", f"unknown construction {t.construction!r}")

    for l in grid.lines:
        if l.length <= 0:
            fault(l.id, "non_positive_length", f"length must be > 0 km, got {l.length}")
        for end in (l.from_bus, l.to_bus):
            if end not in bus_ids:
                fault(l.id, "dangling_bus", f"line references missing bus {end!r}")
        if l.from_bus == l.to_bus:
            fault(l.id, "self_loop", "line connects a bus to itself")
        if l.line_type not in type_names:
            fault(l.id, "dangling_line_type", f"unknown line type {l.line_type!r}")
        if l.origin not in LINE_ORIGINS:
            fault(l.id, "bad_origin", f"unknown origin {l.origin!r}")

    for s in grid.switches:
        if s.bus not in bus_ids:
            fault(s.id, "dangling_bus", f"switch references missing bus {s.bus!r}")
        if s.line not in line_ids:
            fault(s.id, "dangling_line", f"switch references missing line {s.line!r}")
        elif s.bus in bus_ids:
            line = grid.lines_by_id[s.line]
            if s.bus not in (line.from_bus, line.to_bus):
                fault(s.id, "switch_off_line", f"switch bus {s.bus!r} is not an end of line {s.line!r}")
        if s.kind not in SWITCH_KINDS:
            fault(s.id, "bad_kind", f"unknown switch kind {s.kind!r}")
        elif s.kind == "circuit_breaker" and s.bus in bus_ids:
            kind = grid.buses_by_id[s.bus].kind
            if kind not in ("primary_substation", "switching_station"):
                fault(s.id, "breaker_location", "circuit breakers only at primary substations or switching stations")

    source_buses = grid.source_buses
    for t in grid.transformers:
        for end in (t.hv_bus, t.lv_bus):
            if end not in bus_ids:
                fault(t.id, "dangling_bus", f"transformer references missing bus {end!r}")
        if t.sn <= 0:
            fault(t.id, "non_positive_sn", f"sn must be > 0 MVA, got {t.sn}")
        missing = [n for n in SCENARIO_NAMES if n not in t.setpoint_by_scenario]
        if missing:
            fault(t.id, "missing_setpoint", f"no setpoint for scenario(s) {', '.join(missing)}")
        if t.hv_bus in bus_ids and t.hv_bus not in source_buses:
            fault(t.id, "unsourced_hv_side", f"no external source at HV bus {t.hv_bus!r}")

    for inj in grid.injections:
        if inj.bus not in bus_ids:
            fault(inj.id, "dangling_bus", f"injection references missing bus {inj.bus!r}")
        if inj.sn < 0:
            fault(inj.id, "negative_sn", f"sn must be >= 0 MVA, got {inj.sn}")
        if not 0.0 < inj.p_factor <= 1.0:
            fault(inj.id, "bad_p_factor", f"p_factor must be in (0, 1], got {inj.p_factor}")
        if inj.category not in INJECTION_CATEGORIES:
            fault(inj.id, "bad_category", f"unknown category {inj.category!r}")

    if not grid.external_sources:
        fault("grid", "no_source", "grid has no external source")
    for src in grid.external_sources:
        if src.bus not in bus_ids:
            fault(src.id, "dangling_bus", f"source references missing bus {src.bus!r}")

    return faults


@dataclass(frozen=True)
class ScenarioInjections:
    """Aggregated bus injections for one scenario (consumption positive)."""

    p_mw: dict[str, float]
    q_mvar: dict[str, float]
    setpoints: dict[str, float]  # per transformer id, pu


def apply_scenario(grid: Grid, scenario: Scenario) -> ScenarioInjections:
    """Scale injections by the scenario factors and pick setpoints.

    Loads contribute ``+sn * p_factor * scale_load`` MW, generation enters
    negatively with its category's scale factor. Reactive power follows the
    power factor with the same sign convention.

    Raises:
        ValueError: scale factor outside [0, 1], or a transformer without a
            setpoint for this scenario.
    """
    for name in ("scale_load", "scale_pv", "scale_wind"):
        value = getattr(scenario, name)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"scenario {scenario.name!r}: {name} must be in [0, 1], got {value}")

    scale = {"load": scenario.scale_load, "pv": scenario.scale_pv, "wind": scenario.scale_wind}
    sign = {"load": 1.0, "pv": -1.0, "wind": -1.0}
    p: dict[str, float] = {}
    q: dict[str, float] = {}
    for inj in grid.injections:
        s = scale[inj.category] * inj.sn
        if s == 0.0:
            continue
        p_inj = sign[inj.category] * s * inj.p_factor
        q_inj = sign[inj.category] * s * math.sqrt(max(0.0, 1.0 - inj.p_factor ** 2))
        p[inj.bus] = p.get(inj.bus, 0.0) + p_inj
        q[inj.bus] = q.get(inj.bus, 0.0) + q_inj

    setpoints: dict[str, float] = {}
    for t in grid.transformers:
        try:
            setpoints[t.id] = t.setpoint_by_scenario[scenario.name]
        except KeyError:
            raise ValueError(
                f"transformer {t.id!r} has no setpoint for scenario {scenario.name!r}"
            ) from None
    return ScenarioInjections(p_mw=p, q_mvar=q, setpoints=setpoints)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

_TOP_LEVEL = ("buses", "line_types", "lines", "switches", "transformers",
              "injections", "external_sources")

# field name -> (required, type check, extra constraint)
_FIELD_TYPES: dict[type, dict[str, tuple[bool, type | tuple[type, ...]]]] = {
    Bus: {"id": (True, str), "kind": (True, str), "x": (True, (int, float)),
          "y": (True, (int, float)), "vn": (True, (int, float)),
          "requires_contingency_supply": (False, bool)},
    LineType: {"name": (True, str), "r_per_km": (True, (int, float)),
               "x_per_km": (True, (int, float)), "i_max": (True, (int, float)),
               "construction": (True, str), "insulation": (False, (str, type(None)))},
    Line: {"id": (True, str), "from_bus": (True, str), "to_bus": (True, str),
           "length": (True, (int, float)), "line_type": (True, str),
           "in_service": (False, bool), "origin": (False, str)},
    Switch: {"id": (True, str), "bus": (True, str), "line": (True, str),
             "closed": (True, bool), "kind": (False, str),
             "remote_controlled": (False, bool)},
    Transformer: {"id": (True, str), "hv_bus": (True, str), "lv_bus": (True, str),
                  "sn": (True, (int, float)), "setpoint_by_scenario": (True, dict)},
    Injection: {"id": (True, str), "bus": (True, str), "sn": (True, (int, float)),
                "category": (True, str), "p_factor": (False, (int, float))},
    ExternalSource: {"id": (True, str), "bus": (True, str)},
}


def _parse_element(cls: type, raw: Any, path: str):
    if not isinstance(raw, dict):
        raise SchemaError(path, f"expected an object, got {type(raw).__name__}")
    schema = _FIELD_TYPES[cls]
    for key in raw:
        if key not in schema:
            raise SchemaError(f"{path}.{key}", "unexpected field")
    kwargs: dict[str, Any] = {}
    for name, (required, types) in schema.items():
        if name not in raw:
            if required:
                raise SchemaError(f"{path}.{name}", "missing required field")
            continue
        value = raw[name]
        if types == (int, float):
            # bool is an int subclass; keep flags and numbers apart
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"{path}.{name}", f"expected a number, got {type(value).__name__}")
            value = float(value)
        elif not isinstance(value, types):
            expected = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
            raise SchemaError(f"{path}.{name}", f"expected {expected}, got {type(value).__name__}")
        kwargs[name] = value
    if cls is Line and kwargs.get("length", 1.0) <= 0:
        raise SchemaError(f"{path}.length", f"length must be > 0 km, got {kwargs['length']}")
    if cls is Injection and "p_factor" not in kwargs:
        kwargs["p_factor"] = DEFAULT_P_FACTOR.get(kwargs.get("category", ""), 1.0)
    if cls is Transformer:
        sp = kwargs["setpoint_by_scenario"]
        for k, v in sp.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise SchemaError(f"{path}.setpoint_by_scenario.{k}", "setpoint must be a number")
        kwargs["setpoint_by_scenario"] = {k: float(v) for k, v in sp.items()}
    return cls(**kwargs)


def grid_from_dict(doc: Any, path_root: str = "$") -> Grid:
    """Build a grid from a parsed JSON document, checking the schema."""
    if not isinstance(doc, dict):
        raise SchemaError(path_root, "grid document must be a JSON object")
    for key in doc:
        if key not in _TOP_LEVEL and key != "meta":
            raise SchemaError(f"{path_root}.{key}", "unexpected top-level key")
    containers: dict[str, list] = {}
    classes = dict(zip(_TOP_LEVEL, (Bus, LineType, Line, Switch, Transformer,
                                    Injection, ExternalSource)))
    for key in _TOP_LEVEL:
        if key not in doc:
            raise SchemaError(f"{path_root}.{key}", "missing required key")
        raw = doc[key]
        if not isinstance(raw, list):
            raise SchemaError(f"{path_root}.{key}", f"expected a list, got {type(raw).__name__}")
        elements = []
        seen: set[str] = set()
        for i, item in enumerate(raw):
            el = _parse_element(classes[key], item, f"{path_root}.{key}[{i}]")
            el_id = el.name if key == "line_types" else el.id
            if el_id in seen:
                id_field = "name" if key == "line_types" else "id"
                raise SchemaError(f"{path_root}.{key}[{i}].{id_field}", f"duplicate id {el_id!r}")
            seen.add(el_id)
            elements.append(el)
        containers[key] = elements
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError(f"{path_root}.meta", "meta must be an object")
    return Grid(
        buses=tuple(containers["buses"]),
        line_types=tuple(containers["line_types"]),
        lines=tuple(containers["lines"]),
        switches=tuple(containers["switches"]),
        transformers=tuple(containers["transformers"]),
        injections=tuple(containers["injections"]),
        external_sources=tuple(containers["external_sources"]),
        meta=meta,
    )


def _element_to_dict(el) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for f in fields(el):
        value = getattr(el, f.name)
        if value is None:
            continue
        out[f.name] = value
    return out


def grid_to_dict(grid: Grid) -> dict[str, Any]:
    doc: dict[str, Any] = {"meta": grid.meta}
    for key in _TOP_LEVEL:
        doc[key] = [_element_to_dict(el) for el in getattr(grid, key)]
    return doc


def load_grid(path) -> Grid:
    """Load a grid from a JSON file. Raises :class:`SchemaError` on bad input."""
    with open(path, "r", encoding="utf8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"not valid JSON ({exc})") from exc
    return grid_from_dict(doc)


def save_grid(grid: Grid, path) -> None:
    """Write a grid as JSON; ``load_grid`` restores it element for element."""
    with open(path, "w", encoding="utf8") as fh:
        json.dump(grid_to_dict(grid), fh, indent=2)
        fh.write("\n")


def air_line_km(a: Bus, b: Bus) -> float:
    """Straight-line distance between two buses in km (coordinates in m)."""
    return math.hypot(a.x - b.x, a.y - b.y) / 1000.0
