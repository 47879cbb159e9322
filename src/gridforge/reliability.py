"""Service reliability via failure-mode-and-effects analysis.

Every in-service line failure is simulated once: the protection trip decides
which stations go dark, and the switching structure decides how fast each of
them comes back — instantly for unaffected stations, after remote switching
for stations restorable without a crew, otherwise after on-site switching.
Expected outage time and energy per station follow from line failure rates;
ASIDI condenses them into one installed-power-weighted index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable

from gridforge.grid_model import Grid
from gridforge.topology import (
    Feeder,
    _energized,
    _fault_analysis,
    _state_map,
    conducting_path,
    find_feeders,
)

ASIDI_TOLERANCE = 1e-9  # absolute slack when comparing against the baseline


@dataclass(frozen=True)
class ReliabilityParams:
    """Failure rates per line class and the three repair-chain durations."""

    failure_rate: dict[str, float] = field(
        default_factory=lambda: {"cable": 0.02, "overhead": 0.05})  # 1/(km a)
    t_locate: float = 0.75  # h, fault location
    t_onsite: float = 0.25  # h, on-site switching after location
    t_remote: float = 0.02  # h, remote switching
    e_out_max: float = 150.0  # kWh/a admissible per station

    def rate_for(self, construction: str, insulation: str | None) -> float:
        """Failure rate for a line class; insulation-specific rates win."""
        if insulation is not None:
            specific = self.failure_rate.get(f"{construction}:{insulation}")
            if specific is not None:
                return specific
        try:
            return self.failure_rate[construction]
        except KeyError:
            raise ValueError(f"no failure rate configured for {construction!r}") from None


@dataclass(frozen=True)
class ReliabilityViolation:
    kind: str  # asidi_increase | station_energy
    element: str  # station id, or "grid" for ASIDI
    magnitude: float  # exceedance over the admissible value
    value: float
    limit: float

    def __str__(self) -> str:
        return f"{self.kind}({self.element}): {self.value:.6g} > {self.limit:.6g}"


class ReliabilityError(RuntimeError):
    """Automation ran out of stations with constraints still violated."""

    def __init__(self, message: str, violations: list[ReliabilityViolation]):
        super().__init__(message)
        self.violations = violations


@dataclass(frozen=True)
class FmeaResult:
    outage_matrix: dict[str, dict[str, float]]  # line -> station -> h
    t_out: dict[str, float]  # station -> h/a
    e_out: dict[str, float]  # station -> kWh/a
    installed_kw: dict[str, float]  # station -> kW
    asidi: float  # h/a


def installed_power_kw(grid: Grid) -> dict[str, float]:
    """Installed load power per station in kW (drag-pointer value with the
    power factor applied); generation does not count towards ASIDI weights."""
    out = {b.id: 0.0 for b in grid.stations()}
    for inj in grid.injections:
        if inj.category == "load" and inj.bus in out:
            out[inj.bus] += inj.sn * inj.p_factor * 1000.0
    return out


def outage_matrix(grid: Grid, params: ReliabilityParams, *,
                  ring_protection: bool = False) -> dict[str, dict[str, float]]:
    """Outage duration t_out,ki in hours per (failed line k, station i).

    Unaffected stations contribute nothing. Affected stations take
    ``t_locate + t_remote`` when a purely remote-controlled switching set
    can isolate the fault and restore them, else ``t_locate + t_onsite``
    (isolation always re-energizes the stations next to the fault, so no
    repair term applies to stations — only the line itself is repaired).

    With ``ring_protection`` (closed-ring operation with impedance
    protection and directional indicators), a fault on a line that is part
    of a conducting loop is cleared selectively at its two ends: every
    station keeps its supply over the other side of the ring.

    The pre-fault energized set is searched once per call. Each fault's
    footprint is searched only from the lines it cuts, and each search
    stops at the first lit bus (see :mod:`gridforge.topology`).
    """
    state = _state_map(grid, None)
    matrix: dict[str, dict[str, float]] = {}
    t_fast = params.t_locate + params.t_remote
    t_slow = params.t_locate + params.t_onsite
    pre = _energized(grid, state)
    stations = {b.id for b in grid.stations()}
    for line in grid.lines:
        if not line.in_service:
            continue
        if (ring_protection
                and all(state[s.id] for s in grid.switches_by_line.get(line.id, ()))
                and conducting_path(grid, state, line.id, line.from_bus, line.to_bus)
                is not None):
            matrix[line.id] = {}
            continue
        analysis = _fault_analysis(grid, line, state, pre, stations)
        row: dict[str, float] = {}
        for station in analysis.affected_stations:
            row[station] = t_fast if station in analysis.remote_resuppliable else t_slow
        matrix[line.id] = row
    return matrix


def fmea(grid: Grid, params: ReliabilityParams, *,
         ring_protection: bool = False) -> FmeaResult:
    """Expected annual outage times/energies per station plus ASIDI.

    Raises:
        ValueError: no installed load anywhere (ASIDI undefined), or a line
            class without a configured failure rate.
    """
    matrix = outage_matrix(grid, params, ring_protection=ring_protection)
    stations = [b.id for b in grid.stations()]
    t_out = {s: 0.0 for s in stations}
    for line_id, row in matrix.items():
        line = grid.lines_by_id[line_id]
        lt = grid.line_types_by_name[line.line_type]
        h_k = params.rate_for(lt.construction, lt.insulation) * line.length
        for station, t in row.items():
            t_out[station] += h_k * t
    installed = installed_power_kw(grid)
    e_out = {s: installed[s] * t_out[s] for s in stations}
    total_kw = sum(installed.values())
    if total_kw <= 0.0:
        raise ValueError("ASIDI undefined: no installed load power in the grid")
    asidi = sum(e_out.values()) / total_kw
    return FmeaResult(outage_matrix=matrix, t_out=t_out, e_out=e_out,
                      installed_kw=installed, asidi=asidi)


def _compare(result: FmeaResult, baseline: FmeaResult,
             params: ReliabilityParams) -> list[ReliabilityViolation]:
    violations: list[ReliabilityViolation] = []
    if result.asidi > baseline.asidi + ASIDI_TOLERANCE:
        violations.append(ReliabilityViolation(
            "asidi_increase", "grid", result.asidi - baseline.asidi,
            result.asidi, baseline.asidi))
    for station in sorted(result.e_out):
        value = result.e_out[station]
        base = baseline.e_out.get(station, 0.0)
        # grandfathering: a station already over the limit in the baseline
        # only violates if its outage energy increases further
        allowed = params.e_out_max if base <= params.e_out_max else base
        if value > allowed + ASIDI_TOLERANCE:
            violations.append(ReliabilityViolation(
                "station_energy", station, value - allowed, value, allowed))
    return violations


def check_reliability(grid: Grid, params: ReliabilityParams,
                      baseline: FmeaResult) -> list[ReliabilityViolation]:
    """ASIDI must not exceed the baseline; station outage energy must stay
    within e_out_max (or within its own baseline if already above)."""
    return _compare(fmea(grid, params), baseline, params)


def apply_automation(grid: Grid, bus_id: str) -> Grid:
    """Mark every switch at a station remote controlled (communication link)."""
    switches = tuple(
        replace(s, remote_controlled=True) if s.bus == bus_id else s
        for s in grid.switches)
    return grid.replace(switches=switches)


def _feeder_tree(grid: Grid, feeder: Feeder):
    """Parent map and root distance (km) of a radial feeder's buses."""
    feeder_lines = [grid.lines_by_id[lid] for lid in feeder.lines]
    adj: dict[str, list] = {}
    for line in feeder_lines:
        adj.setdefault(line.from_bus, []).append(line)
        adj.setdefault(line.to_bus, []).append(line)
    dist = {feeder.root: 0.0}
    parent: dict[str, str] = {}
    queue = deque([feeder.root])
    while queue:
        bus = queue.popleft()
        for line in adj.get(bus, ()):
            other = line.to_bus if line.from_bus == bus else line.from_bus
            if other not in dist:
                dist[other] = dist[bus] + line.length
                parent[other] = bus
                queue.append(other)
    return parent, dist


def _load_centre(grid: Grid, feeder: Feeder, skip: set[str]) -> str | None:
    """Station splitting the feeder's installed power most evenly.

    Ties go to the electrically farther station (then to the id, for full
    determinism). Stations without switches cannot be automated and are
    never returned.
    """
    installed = installed_power_kw(grid)
    parent, dist = _feeder_tree(grid, feeder)
    members = [b for b in feeder.buses if b in dist]
    p_total = sum(installed.get(b, 0.0) for b in members)

    # downstream power incl. the station itself: accumulate leaf-to-root
    p_down = {b: installed.get(b, 0.0) for b in dist}
    for bus in sorted(dist, key=lambda b: dist[b], reverse=True):
        par = parent.get(bus)
        if par is not None:
            p_down[par] += p_down[bus]

    candidates = []
    for bus in members:
        if bus in skip:
            continue
        if grid.buses_by_id[bus].kind != "secondary_substation":
            continue
        if not any(s.bus == bus for s in grid.switches):
            continue
        balance = abs(p_total - 2.0 * p_down[bus])
        candidates.append((balance, -dist[bus], bus))
    if not candidates:
        return None
    candidates.sort()
    return candidates[0][2]


def automate_for_reliability(grid: Grid, params: ReliabilityParams,
                             baseline: FmeaResult) -> list[str]:
    """Stations to automate (in order) until the reliability constraints hold.

    Repeatedly picks the feeder with the worst violation and automates its
    load-centre station, which partitions the feeder: faults on one side no
    longer force on-site switching times onto the other. Returns the chosen
    station ids; empty if the grid is already compliant.

    Raises:
        ReliabilityError: every automatable station is exhausted while
            constraints are still violated.
    """
    return _automate(grid, params, baseline)[0]


def _automate(grid: Grid, params: ReliabilityParams,
              baseline: FmeaResult) -> tuple[list[str], FmeaResult]:
    """:func:`automate_for_reliability`, and the FMEA of the grid with the
    chosen stations automated, which its last round computed."""
    chosen: list[str] = []
    current = grid
    already = {b.id for b in grid.buses
               if b.kind == "secondary_substation"
               and any(s.bus == b.id for s in grid.switches)
               and all(s.remote_controlled for s in grid.switches if s.bus == b.id)}
    for _ in range(len(grid.buses) + 1):
        result = fmea(current, params)
        violations = _compare(result, baseline, params)
        if not violations:
            return chosen, result
        feeders = find_feeders(current)
        by_station = {}
        for feeder in feeders:
            for bus in feeder.buses:
                by_station[bus] = feeder

        target_feeders: list[Feeder] = []
        station_viols = [v for v in violations if v.kind == "station_energy"]
        station_viols.sort(key=lambda v: (-v.magnitude, v.element))
        for violation in station_viols:
            feeder = by_station.get(violation.element)
            if feeder is not None and feeder not in target_feeders:
                target_feeders.append(feeder)
        if any(v.kind == "asidi_increase" for v in violations):
            # no natural feeder: go for the largest outage-energy pool
            scored = sorted(
                feeders,
                key=lambda f: (-sum(result.e_out.get(b, 0.0) for b in f.buses), f.head_line))
            target_feeders.extend(f for f in scored if f not in target_feeders)

        station = None
        for feeder in target_feeders:
            station = _load_centre(current, feeder, skip=already | set(chosen))
            if station is not None:
                break
        if station is None:
            raise ReliabilityError(
                "reliability constraints cannot be met by automation alone: "
                + "; ".join(str(v) for v in violations), violations)
        chosen.append(station)
        current = apply_automation(current, station)
    raise ReliabilityError("automation loop failed to terminate", violations)
