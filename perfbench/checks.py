"""Independent checks of gridforge's outputs.

Everything here works on the JSON documents (generated inputs and written
reports) and re-derives the physics and bookkeeping without importing
gridforge: a backward/forward-sweep load flow for radial grids, a power
balance for Newton solves, FMEA outage-time bounds from the failure rates
on each station's path, and plan costs recomputed from measures, grid and
cost model. Each check returns a list of findings; empty means it passed.
"""

from __future__ import annotations

import cmath
import math
from collections import deque

S_BASE_MVA = 1.0
SWEEP_TOLERANCE = 1e-12  # pu, largest voltage update of the last sweep
VOLTAGE_MATCH = 1e-6  # pu, sweep against Newton
BALANCE_MVA = 1e-5  # slack power against net load plus losses
BAND_SLACK = 1e-7  # pu; a bus this close to a band edge may fall either way
COST_REL = 1e-9
DEFAULT_SCENARIOS = (
    {"name": "peak_load", "scale_load": 1.0, "scale_pv": 0.0, "scale_wind": 0.0},
    {"name": "peak_generation", "scale_load": 0.3, "scale_pv": 0.8, "scale_wind": 1.0},
)


class NotRadial(ValueError):
    """The conducting grid is not a tree hanging off exactly one busbar."""


# ---------------------------------------------------------------------------
# grid documents


class GridDoc:
    """Lookups over one grid document."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.buses = {b["id"]: b for b in doc["buses"]}
        self.lines = {l["id"]: l for l in doc["lines"]}
        self.types = {t["name"]: t for t in doc["line_types"]}
        self.switches_of_line: dict[str, list[dict]] = {}
        for s in doc["switches"]:
            self.switches_of_line.setdefault(s["line"], []).append(s)
        self.slacks = {t["lv_bus"]: t for t in doc["transformers"]}
        self.sources = {s["bus"] for s in doc["external_sources"]}
        self.stations = [b["id"] for b in doc["buses"]
                         if b["kind"] in ("secondary_substation", "switching_station")]

    def state(self, override: dict | None = None) -> dict[str, bool]:
        state = {s["id"]: s["closed"] for s in self.doc["switches"]}
        for sid, closed in (override or {}).items():
            if sid in state:
                state[sid] = closed
        return state

    def conducting(self, state: dict[str, bool], exclude=()) -> list[dict]:
        return [l for l in self.doc["lines"]
                if l.get("in_service", True) and l["id"] not in exclude
                and all(state[s["id"]] for s in self.switches_of_line.get(l["id"], ()))]

    def energized(self, state: dict[str, bool], exclude=()) -> set[str]:
        adj: dict[str, list[str]] = {}
        for l in self.conducting(state, exclude):
            adj.setdefault(l["from_bus"], []).append(l["to_bus"])
            adj.setdefault(l["to_bus"], []).append(l["from_bus"])
        for t in self.doc["transformers"]:
            adj.setdefault(t["hv_bus"], []).append(t["lv_bus"])
            adj.setdefault(t["lv_bus"], []).append(t["hv_bus"])
        seen = {b for b in self.sources if b in self.buses}
        queue = deque(seen)
        while queue:
            bus = queue.popleft()
            for other in adj.get(bus, ()):
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        return seen

    def z_pu(self, line: dict) -> complex:
        t = self.types[line["line_type"]]
        vn = self.buses[line["from_bus"]]["vn"]
        return complex(t["r_per_km"], t["x_per_km"]) * line["length"] / (vn * vn / S_BASE_MVA)

    def consumption(self, scenario: dict) -> dict[str, complex]:
        """Scaled bus consumption in MVA (generation negative)."""
        scale = {"load": scenario["scale_load"], "pv": scenario["scale_pv"],
                 "wind": scenario["scale_wind"]}
        sign = {"load": 1.0, "pv": -1.0, "wind": -1.0}
        out: dict[str, complex] = {}
        for inj in self.doc["injections"]:
            s = scale[inj["category"]] * inj["sn"]
            pf = inj.get("p_factor", 0.97 if inj["category"] == "load" else 1.0)
            value = sign[inj["category"]] * s * complex(pf, math.sqrt(max(0.0, 1.0 - pf * pf)))
            out[inj["bus"]] = out.get(inj["bus"], 0j) + value
        return out


def scenarios_of(principles: dict) -> list[dict]:
    """Scenarios with their normal voltage band and loading limit, as the file states."""
    bands = principles.get("voltage_bands", {})
    normal = bands.get("normal", [0.96, 1.04])
    return [{"v_min": normal[0], "v_max": normal[1],
             "loading_max": bands.get("loading_max", 100.0), **s}
            for s in principles.get("scenarios", DEFAULT_SCENARIOS)]


# ---------------------------------------------------------------------------
# backward/forward sweep


def radial_trees(g: GridDoc, state: dict[str, bool], exclude=()):
    """Per slack busbar: buses in BFS order, parent map and branch impedance.

    Exact parallels merge into one branch. Raises NotRadial when a
    conducting component closes a loop or holds two slack busbars.
    """
    branches: dict[frozenset, complex] = {}
    for l in g.conducting(state, exclude):
        key = frozenset((l["from_bus"], l["to_bus"]))
        branches[key] = branches.get(key, 0j) + 1.0 / g.z_pu(l)
    adj: dict[str, list[tuple[str, complex]]] = {}
    for key, y in branches.items():
        a, b = sorted(key)
        adj.setdefault(a, []).append((b, 1.0 / y))
        adj.setdefault(b, []).append((a, 1.0 / y))
    energized = g.energized(state, exclude)
    owner: dict[str, str] = {}
    trees = []
    for slack in sorted(s for s in g.slacks if s in energized):
        if slack in owner:
            raise NotRadial(f"busbars {owner[slack]} and {slack} are coupled")
        order, parent, z = [slack], {slack: None}, {}
        owner[slack] = slack
        queue = deque([slack])
        while queue:
            bus = queue.popleft()
            for other, z_branch in adj.get(bus, ()):
                if other == parent[bus]:
                    continue
                if other in parent:
                    raise NotRadial(f"loop through {bus} and {other}")
                if other in owner:
                    raise NotRadial(f"busbars {owner[other]} and {slack} are coupled")
                owner[other] = slack
                parent[other] = bus
                z[other] = z_branch
                order.append(other)
                queue.append(other)
        trees.append((slack, order, parent, z))
    return trees


def sweep(g: GridDoc, scenario: dict, override: dict | None = None,
          exclude=()) -> dict[str, complex]:
    """Complex bus voltages (pu) of a radially operated grid."""
    state = g.state(override)
    load = {b: s / S_BASE_MVA for b, s in g.consumption(scenario).items()}
    out: dict[str, complex] = {}
    for slack, order, parent, z in radial_trees(g, state, exclude):
        v0 = g.slacks[slack]["setpoint_by_scenario"][scenario["name"]]
        v = {bus: complex(v0, 0.0) for bus in order}
        for _ in range(200):
            current = {bus: (load[bus] / v[bus]).conjugate() if bus in load else 0j
                       for bus in order}
            for bus in reversed(order[1:]):
                current[parent[bus]] += current[bus]
            worst = 0.0
            for bus in order[1:]:
                new = v[parent[bus]] - z[bus] * current[bus]
                worst = max(worst, abs(new - v[bus]))
                v[bus] = new
            if worst < SWEEP_TOLERANCE:
                break
        else:
            raise NotRadial(f"sweep did not converge below busbar {slack}")
        out.update(v)
    return out


# ---------------------------------------------------------------------------
# checks of a Newton solve


def solve_findings(g: GridDoc, scenario: dict, override, exclude, vm: dict, va: dict,
                   p_slack: float, q_slack: float, *, radial: bool) -> list[str]:
    """Power balance of one solve; with ``radial`` also the sweep voltages."""
    found = []
    v = {b: cmath.rect(vm[b], va[b]) for b in vm}
    state = g.state(override)
    net = sum((s for b, s in g.consumption(scenario).items() if b in v), 0j)
    loss = 0j
    for l in g.conducting(state, exclude):
        a, b = l["from_bus"], l["to_bus"]
        if a in v and b in v:
            loss += abs(v[a] - v[b]) ** 2 / g.z_pu(l).conjugate() * S_BASE_MVA
    residual = complex(p_slack, q_slack) - net - loss
    if abs(residual) > BALANCE_MVA:
        found.append(f"power balance off by {abs(residual):.3g} MVA in {scenario['name']}")
    if radial:
        try:
            ref = sweep(g, scenario, override, exclude)
        except NotRadial as exc:
            return found + [f"sweep: {exc}"]
        if set(ref) != set(v):
            found.append(f"solved buses differ from the sweep: {sorted(set(ref) ^ set(v))[:5]}")
        worst = max((abs(ref[b] - v[b]) for b in v if b in ref), default=0.0)
        if worst > VOLTAGE_MATCH:
            found.append(f"voltages differ from the sweep by {worst:.3g} pu in {scenario['name']}")
    return found


def band_violations(v: dict[str, complex], scenario: dict) -> tuple[set, set]:
    """(certain, borderline) sets of (kind, bus) normal-band violations."""
    low, high = scenario["v_min"], scenario["v_max"]
    certain, borderline = set(), set()
    for bus, value in v.items():
        m = abs(value)
        for kind, excess in (("undervoltage", low - m), ("overvoltage", m - high)):
            if excess > BAND_SLACK:
                certain.add((kind, bus))
            elif excess > -BAND_SLACK:
                borderline.add((kind, bus))
    return certain, borderline


def loadings(g: GridDoc, v: dict[str, complex], override=None, exclude=()) -> dict[str, float]:
    """Line loading in percent of ampacity from bus voltages."""
    out = {}
    for l in g.conducting(g.state(override), exclude):
        a, b = l["from_bus"], l["to_bus"]
        if a in v and b in v:
            vn = g.buses[a]["vn"]
            i_ka = abs((v[a] - v[b]) / g.z_pu(l)) * S_BASE_MVA / (math.sqrt(3.0) * vn)
            out[l["id"]] = 100.0 * i_ka / g.types[l["line_type"]]["i_max"]
    return out


# ---------------------------------------------------------------------------
# FMEA bounds


def fmea_bounds(g: GridDoc, reliability: dict) -> dict[str, tuple[float, float]]:
    """Per station: outage-time bounds in h/a for a radially operated grid.

    Every fault on the path from a station to its feeding busbar cuts it off
    at least until remote switching is done: the lower bound. Only faults on
    lines touching its feeder, or the feeders supplying its busbar, can
    reach it, each for at most locating plus on-site switching: the upper
    bound.
    """
    rates = reliability.get("failure_rate", {"cable": 0.02, "overhead": 0.05})
    t_fast = reliability["t_locate"] + reliability["t_remote"]
    t_slow = reliability["t_locate"] + reliability["t_onsite"]

    def h(line: dict) -> float:
        t = g.types[line["line_type"]]
        rate = rates.get(f"{t['construction']}:{t.get('insulation')}", rates[t["construction"]])
        return rate * line["length"]

    state = g.state()
    energized = g.energized(state)
    busbars = {b["id"] for b in g.doc["buses"]
               if b["kind"] in ("primary_substation", "switching_station") and b["id"] in energized}
    lines_at: dict[str, list[dict]] = {}
    for l in g.doc["lines"]:
        if l.get("in_service", True):
            lines_at.setdefault(l["from_bus"], []).append(l)
            lines_at.setdefault(l["to_bus"], []).append(l)
    conducting = {l["id"] for l in g.conducting(state)}

    # feeders: conducting trees hanging off a busbar head line
    feeder_of: dict[str, tuple[str, int]] = {}  # station -> (root busbar, feeder no.)
    path_h: dict[str, float] = {}
    feeder_lines: dict[tuple[str, int], set[str]] = {}
    reaches: dict[tuple[str, int], set[str]] = {}  # busbars a feeder touches
    count = 0
    for root in sorted(busbars):
        for head in lines_at.get(root, ()):
            if head["id"] not in conducting:
                continue
            first = head["to_bus"] if head["from_bus"] == root else head["from_bus"]
            if first in busbars:
                continue
            key = (root, count)
            count += 1
            touched, touches = set(), set()
            path_h[first] = h(head)
            seen = {first}
            queue = deque([first])
            while queue:
                bus = queue.popleft()
                feeder_of[bus] = key
                for l in lines_at.get(bus, ()):
                    touched.add(l["id"])
                    other = l["to_bus"] if l["from_bus"] == bus else l["from_bus"]
                    if other in busbars:
                        touches.add(other)
                        continue
                    if l["id"] in conducting and other not in seen:
                        seen.add(other)
                        path_h[other] = path_h[bus] + h(l)
                        queue.append(other)
            feeder_lines[key] = touched
            reaches[key] = touches

    def upstream(busbar: str, depth: int = 0) -> set[str]:
        """Lines of every feeder that touches a switching-station busbar."""
        if depth > len(busbars):
            return set()
        out: set[str] = set()
        for key, touches in reaches.items():
            if busbar in touches and key[0] != busbar:
                out |= feeder_lines[key] | upstream(key[0], depth + 1)
        return out

    bounds = {}
    for station in g.stations:
        if station in busbars:
            continue
        key = feeder_of.get(station)
        if key is None:
            continue
        lines = feeder_lines[key] | upstream(key[0])
        bounds[station] = (path_h[station] * t_fast,
                           sum(h(g.lines[l]) for l in lines) * t_slow)
    return bounds


# ---------------------------------------------------------------------------
# plans


def plan_cost(plan: dict, cost_model: dict) -> float:
    """Annual cost of a written plan from its measures, grid and cost model."""
    g = GridDoc(plan["grid"])
    total = 0.0
    for m in plan["measures"]:
        kind = m["kind"]
        if kind == "AddTrail":
            total += m["length_km"] * cost_model["cable_per_km"]
        elif kind in ("AddParallel", "ReplaceLine"):
            line = g.lines.get(m["target"])
            total += (line["length"] if line else m.get("length_km", 0.0)) * cost_model["cable_per_km"]
        elif kind == "RenewSwitchingStation":
            total += cost_model["switching_station"]
        elif kind == "AutomateStation":
            total += cost_model["communication_link"]
    if plan["concept"] == "closed_ring":
        state = g.state()
        energized = g.energized(state)
        bays = sum(1 for l in g.conducting(state)
                   if l["from_bus"] in energized or l["to_bus"] in energized
                   for end in (l["from_bus"], l["to_bus"]) if end in g.slacks)
        secondary = sum(1 for b in g.doc["buses"] if b["kind"] == "secondary_substation")
        total += (bays * cost_model["impedance_protection_per_feeder"]
                  + secondary * cost_model["directional_indicator_per_station"])
    return total


def comparison_findings(comparison: dict, costs: dict[str, float]) -> list[str]:
    """Winner is the argmin of the reference costs; deltas are antisymmetric."""
    found = []
    if costs:
        best = min(costs.values())
        cheapest = sorted(c for c, v in costs.items() if v == best)[0]
        if comparison["winner"] != cheapest:
            found.append(f"winner {comparison['winner']} is not the cheapest ({cheapest})")
    elif comparison["winner"] is not None:
        found.append("a winner without any reference plan")
    deltas = comparison["deltas"]
    for a, row in deltas.items():
        for b, delta in row.items():
            back = deltas[b][a]
            if (delta is None) != (back is None):
                found.append(f"delta {a}/{b} defined one way only")
            elif delta is not None:
                if abs(delta + back) > COST_REL * max(abs(delta), 1.0):
                    found.append(f"delta {a}/{b} is not antisymmetric")
                if a in costs and b in costs and \
                        abs(delta - (costs[a] - costs[b])) > 1e-6 * max(costs[a], 1.0):
                    found.append(f"delta {a}/{b} is not the cost difference")
    return found


def reference_findings(plan: dict, principles: dict) -> list[str]:
    """A radial or switching-station reference runs radially with every
    station supplied and keeps normal-band voltages under the sweep."""
    g = GridDoc(plan["grid"])
    state = g.state()
    dark = [s for s in g.stations if s not in g.energized(state)]
    if dark:
        return [f"{plan['concept']}: unsupplied stations {dark[:5]}"]
    found = []
    for scenario in scenarios_of(principles):
        try:
            v = sweep(g, scenario)
        except NotRadial as exc:
            return [f"{plan['concept']}: not radial ({exc})"]
        certain, _ = band_violations(v, scenario)
        if certain:
            found.append(f"{plan['concept']}: {sorted(certain)[:3]} in {scenario['name']}")
    return found
