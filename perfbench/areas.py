"""Seeded synthetic MV grid areas in the gridforge JSON schema.

The generator builds areas out of open rings, stubs and (optionally) a
switching station fed by two routes, with cable and overhead rings and wind
farms at ring ends. It uses nothing from gridforge: the benchmark hands the
program only the files written here. The same seed gives the same bytes.

Each area *slot* fixes the structure that sets the validator cost (stations
per busbar, rings, stubs, feeders, infeeds); the seed draws the ring sizes,
geometry, line lengths, loads and which rings are overhead or carry wind.

Run as a script to write one area, e.g. the small planning area that shows
the sectioning fault noted in the benchmark README:

    python3 perfbench/areas.py --slot small --seed 9 --out area.json
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass

CABLE_150 = {"name": "NA2XS2Y 3x1x150", "r_per_km": 0.206, "x_per_km": 0.116,
             "i_max": 0.319, "construction": "cable"}
CABLE_300 = {"name": "NA2XS2Y 3x1x300", "r_per_km": 0.100, "x_per_km": 0.102,
             "i_max": 0.468, "construction": "cable"}
OVERHEAD_50 = {"name": "AL/ST 3x50", "r_per_km": 0.576, "x_per_km": 0.397,
               "i_max": 0.145, "construction": "overhead"}
LINE_TYPES = (CABLE_150, CABLE_300, OVERHEAD_50)
SETPOINTS = {"peak_load": 1.0, "peak_generation": 1.05}

#: Scenarios and limits written into every generated principles file; the
#: independent checks read the same file.
SCENARIOS = (
    {"name": "peak_load", "scale_load": 1.0, "scale_pv": 0.0, "scale_wind": 0.0},
    {"name": "peak_generation", "scale_load": 0.3, "scale_pv": 0.8, "scale_wind": 1.0},
)
VOLTAGE_BANDS = {"normal": [0.96, 1.06], "contingency": [0.90, 1.10], "loading_max": 100.0}
COST_MODEL = {"interest_rate": 5.0, "cable_per_km": 7000.0, "switching_station": 35900.0,
              "communication_link": 1200.0, "directional_indicator_per_station": 30.0,
              "impedance_protection_per_feeder": 400.0}
RELIABILITY = {"failure_rate": {"cable": 0.02, "overhead": 0.05},
               "t_locate": 0.75, "t_onsite": 0.25, "t_remote": 0.02, "e_out_max": 150.0}


@dataclass(frozen=True)
class Group:
    """Stations hanging off one busbar."""

    stations: int  # secondary substations in rings and stubs
    rings: int
    stubs: int = 0
    overhead_rings: int = 0
    wind_rings: int = 0
    wind_on_overhead: bool = False  # wind farms sit on overhead rings first
    overhead_load_mva: tuple[float, float] = (0.1, 0.3)


@dataclass(frozen=True)
class Slot:
    name: str
    infeeds: tuple[Group, ...]  # one primary substation each
    station: Group | None = None  # switching-station group behind infeed 0
    ring_spacing_m: tuple[float, float] = (300.0, 550.0)


#: The large-area batch: one galvanic component of ~110, ~170 and ~240
#: buses, and two components (~180 and ~120) in a two-infeed area.
LARGE_SLOTS = (
    Slot("ring110", (Group(110, rings=8, stubs=2, overhead_rings=2, wind_rings=1),)),
    Slot("ring170", (Group(170, rings=10, stubs=4, overhead_rings=3, wind_rings=2),)),
    Slot("station235", (Group(199, rings=12, stubs=2, overhead_rings=3, wind_rings=2),),
         station=Group(36, rings=3, overhead_rings=1, wind_rings=1)),
    Slot("twin300", (Group(180, rings=10, stubs=3, overhead_rings=3, wind_rings=2),
                     Group(120, rings=7, stubs=2, overhead_rings=2, wind_rings=1))),
)

#: A planning-sized area (about the size of the shipped example area) with
#: one overhead ring carrying a wind farm at its far end.
SMALL_SLOT = Slot("small", (Group(14, rings=2, stubs=1, overhead_rings=1, wind_rings=1,
                                  wind_on_overhead=True, overhead_load_mva=(0.6, 1.0)),),
                  station=Group(8, rings=2),
                  ring_spacing_m=(700.0, 950.0))


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.buses: list[dict] = []
        self.lines: list[dict] = []
        self.switches: list[dict] = []
        self.transformers: list[dict] = []
        self.injections: list[dict] = []
        self.sources: list[dict] = []
        self.xy: dict[str, tuple[float, float]] = {}

    def bus(self, bus_id: str, kind: str, x: float, y: float, *, vn: float = 20.0,
            contingency: bool = False) -> None:
        x, y = round(x, 1), round(y, 1)
        self.xy[bus_id] = (x, y)
        self.buses.append({"id": bus_id, "kind": kind, "x": x, "y": y, "vn": vn,
                           "requires_contingency_supply": contingency})

    def infeed(self, tag: str, x: float, y: float) -> str:
        hv, mv = f"{tag}hv", f"{tag}mv"
        self.bus(hv, "primary_substation", x - 150.0, y, vn=110.0)
        self.bus(mv, "primary_substation", x, y)
        self.sources.append({"id": f"{hv}_net", "bus": hv})
        self.transformers.append({"id": f"{hv}_{mv}", "hv_bus": hv, "lv_bus": mv, "sn": 40.0,
                                  "setpoint_by_scenario": dict(SETPOINTS)})
        return mv

    def line(self, a: str, b: str, line_type: dict, *, breaker_at: str | None = None,
             open_at: str | None = None) -> str:
        """A line with a switch at each end; route length = air line x 1.1-1.35."""
        line_id = f"L{len(self.lines) + 1}"
        (xa, ya), (xb, yb) = self.xy[a], self.xy[b]
        length = math.hypot(xa - xb, ya - yb) / 1000.0 * self.rng.uniform(1.1, 1.35)
        self.lines.append({"id": line_id, "from_bus": a, "to_bus": b,
                           "length": round(max(length, 0.05), 3),
                           "line_type": line_type["name"], "in_service": True,
                           "origin": "existing"})
        for bus in (a, b):
            breaker = bus == breaker_at
            self.switches.append({"id": f"{line_id}@{bus}", "bus": bus, "line": line_id,
                                  "closed": bus != open_at,
                                  "kind": "circuit_breaker" if breaker else "load_break",
                                  "remote_controlled": breaker})
        return line_id

    def load(self, bus: str, sn: float) -> None:
        self.injections.append({"id": f"load_{bus}", "bus": bus, "sn": round(sn, 3),
                                "category": "load", "p_factor": 0.97})

    def wind(self, bus: str, sn: float) -> None:
        self.injections.append({"id": f"wind_{bus}", "bus": bus, "sn": round(sn, 2),
                                "category": "wind", "p_factor": 1.0})

    def document(self, meta: dict) -> dict:
        return {"meta": meta, "buses": self.buses, "line_types": [dict(t) for t in LINE_TYPES],
                "lines": self.lines, "switches": self.switches,
                "transformers": self.transformers, "injections": self.injections,
                "external_sources": self.sources}


def _ring_sizes(rng: random.Random, total: int, rings: int) -> list[int]:
    """Split ``total`` stations into ``rings`` rings of nearly equal size."""
    sizes = [total // rings + (1 if j < total % rings else 0) for j in range(rings)]
    for _ in range(rings):
        a, b = rng.randrange(rings), rng.randrange(rings)
        shift = min(rng.randint(0, 3), sizes[a] - 4)
        sizes[a] -= shift
        sizes[b] += shift
    return sizes


def _group(b: _Builder, group: Group, tag: str, busbar: str, heading: float,
           spread: float, spacing: tuple[float, float]) -> None:
    """Rings and stubs fanning out of ``busbar`` within ``heading ± spread``."""
    rng = b.rng
    n_ring_stations = group.stations - group.stubs
    sizes = _ring_sizes(rng, n_ring_stations, group.rings)
    order = list(range(group.rings))
    rng.shuffle(order)
    overhead = set(order[:group.overhead_rings])
    first_wind = 0 if group.wind_on_overhead else group.overhead_rings
    windy = set(order[first_wind:first_wind + group.wind_rings])
    bx, by = b.xy[busbar]
    slots = group.rings + group.stubs
    for j in range(group.rings):
        theta = heading - spread + 2.0 * spread * (j + 0.5) / slots + rng.uniform(-0.05, 0.05)
        line_type = OVERHEAD_50 if j in overhead else CABLE_150
        k = sizes[j]
        k1 = k // 2 + rng.randint(0, k % 2)
        arms = []
        for arm, (count, side) in enumerate(((k1, -1.0), (k - k1, 1.0))):
            ids = []
            dist = rng.uniform(700.0, 1100.0)
            for i in range(count):
                bus_id = f"{tag}r{j}{'ab'[arm]}{i}"
                offset = side * (150.0 + 40.0 * i)
                x = bx + dist * math.cos(theta) - offset * math.sin(theta)
                y = by + dist * math.sin(theta) + offset * math.cos(theta)
                b.bus(bus_id, "secondary_substation", x, y, contingency=True)
                sn = rng.uniform(*group.overhead_load_mva) if j in overhead else rng.choice((0.25, 0.4, 0.63)) * rng.uniform(0.6, 1.0)
                b.load(bus_id, sn)
                prev = ids[-1] if ids else busbar
                b.line(prev, bus_id, line_type, breaker_at=busbar if not ids else None)
                ids.append(bus_id)
                dist += rng.uniform(*spacing)
            arms.append(ids)
        b.line(arms[0][-1], arms[1][-1], line_type, open_at=arms[0][-1])
        if j in windy:
            b.wind(arms[0][-1], rng.uniform(1.0, 2.0) if j not in overhead else 3.6)
    for s in range(group.stubs):
        theta = heading - spread + 2.0 * spread * (group.rings + s + 0.5) / slots
        dist = rng.uniform(600.0, 1200.0)
        bus_id = f"{tag}t{s}"
        b.bus(bus_id, "secondary_substation", bx + dist * math.cos(theta),
              by + dist * math.sin(theta))
        b.load(bus_id, rng.uniform(0.25, 0.8))
        b.line(busbar, bus_id, CABLE_150, breaker_at=busbar)


def build_area(slot: Slot, seed: int) -> dict:
    """The grid document of one area; depends only on ``slot`` and ``seed``."""
    b = _Builder(random.Random(f"{slot.name}:{seed}"))
    heading = 0.0
    for i, group in enumerate(slot.infeeds):
        x0 = 30000.0 * i
        mv = b.infeed(f"p{i}", x0, 0.0)
        spread = math.pi * (0.75 if slot.station is not None and i == 0 else 1.0)
        _group(b, group, f"p{i}", mv, math.pi if slot.station is not None and i == 0
               else heading, spread, slot.ring_spacing_m)
    if slot.station is not None:
        # the switching station sits east of infeed 0, fed by two cable
        # routes through a station each; route 2 is open at the station
        mv = "p0mv"
        dist = b.rng.uniform(4500.0, 5500.0)
        b.bus("ss", "switching_station", dist, 0.0, contingency=True)
        for r, side in enumerate((1.0, -1.0), 1):
            mid = f"m{r}"
            b.bus(mid, "secondary_substation", dist / 2.0, side * b.rng.uniform(350.0, 600.0),
                  contingency=True)
            b.load(mid, b.rng.uniform(0.4, 0.63))
            b.line(mv, mid, CABLE_300, breaker_at=mv)
            if r == 1:
                b.line(mid, "ss", CABLE_300, breaker_at="ss")
            else:
                b.line(mid, "ss", CABLE_300, open_at="ss")
        _group(b, slot.station, "s", "ss", 0.0, math.pi * 0.6, slot.ring_spacing_m)
    return b.document({"generator": "perfbench.areas", "slot": slot.name, "seed": seed})


def principles_document(*, seed: int = 17, n_topologies: int = 5) -> dict:
    """Planning principles with every value spelled out."""
    return {
        "scenarios": [dict(s) for s in SCENARIOS],
        "voltage_bands": {k: (list(v) if isinstance(v, list) else v)
                          for k, v in VOLTAGE_BANDS.items()},
        "cost_model": dict(COST_MODEL),
        "reliability_params": {**RELIABILITY, "failure_rate": dict(RELIABILITY["failure_rate"])},
        "planner_params": {
            "n_topologies": n_topologies, "dismantle_threshold_km": 2.0,
            "trail_factor": 1.5, "max_evaluations": 600, "perturbation": 0.05,
            "non_improving_limit": 4, "restarts": 0, "seed": seed,
            "cable_catalog": [CABLE_150["name"], CABLE_300["name"]],
        },
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    slots = {s.name: s for s in LARGE_SLOTS + (SMALL_SLOT,)}
    parser.add_argument("--slot", choices=sorted(slots), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dumps(build_area(slots[args.slot], args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
