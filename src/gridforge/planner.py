"""Expansion planning: candidate generation and the staged optimization.

A grid area is planned in stages, each producing a grid plus the measures
that created it:

1. tear out the legacy long lines and rebuild radial topologies from
   Delaunay trail candidates (one iterated-local-search run per topology),
2. fix operational limits, first by moving sectioning points (free), then
   by cable reinforcement chosen with the same search core,
3. automate stations until the reliability targets hold,
4. optionally close rings — each closed sectioning point drags a station
   automation with it — when the saved reinforcement pays for the links
   and protection.

The search core is an iterated local search (hill climbing with
first-improvement bit flips, small random perturbations, better-or-equal
acceptance, restarts) over a fixed pool of candidate measures. Its
objectives are cost-first: each gives a candidate's annual cost at once
and its violations (the grid checks and load flows) only on demand, so a
flip whose cost alone already loses is never checked, and in phases 1 and
2 never built. A load-flow error on such a flip therefore does not raise
during the search.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from gridforge.economics import CostModel, concept_overhead
from gridforge.grid_model import (
    Grid,
    Line,
    Scenario,
    Switch,
    air_line_km,
)
from gridforge.power_flow import (
    ViolationReport,
    _scope,
    check_contingency_operation,
    check_normal_operation,
)
from gridforge.reliability import (
    FmeaResult,
    ReliabilityParams,
    _automate,
    apply_automation,
)
from gridforge.topology import (
    _state_map,
    _UnionFind,
    check_contingency_supply,
    check_radiality,
    check_supply,
    conducting_path,
    derive_radial_state,
)

MEASURE_KINDS = (
    "ReplaceLine",  # target = line id, line_type = new type
    "AddParallel",  # target = line id, line_type = type of the twin
    "AddTrail",  # target/to_station = endpoints, length_km = route length
    "SetSectioningPoint",  # target = switch id, closed = position
    "AutomateStation",  # target = bus id
    "CloseRing",  # target = switch id (sectioning point to close)
    "RemoveSwitchingStation",  # target = bus id
    "RenewSwitchingStation",  # target = bus id (bookkeeping, carries cost)
)


@dataclass(frozen=True)
class Measure:
    """One catalog measure; annual cost in EUR/a is carried on the measure."""

    kind: str
    target: str
    to_station: str | None = None
    line_type: str | None = None
    length_km: float | None = None
    closed: bool | None = None
    cost_per_year: float = 0.0

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.cost_per_year < 0:
            raise ValueError("measure cost must be >= 0")
        if self.kind == "AddTrail" and self.target == self.to_station:
            raise ValueError("trail endpoints must be distinct stations")


@dataclass(frozen=True)
class PlannerParams:
    n_topologies: int = 50
    dismantle_threshold_km: float = 2.0
    trail_factor: float = 1.5
    max_evaluations: int = 20000
    perturbation: float = 0.05  # fraction of pool bits flipped per kick
    non_improving_limit: int = 20
    restarts: int = 2
    seed: int = 0
    cable_catalog: tuple[str, ...] = ()  # type names, ascending ampacity

    def __post_init__(self):
        if self.n_topologies < 1:
            raise ValueError("n_topologies must be >= 1")
        if self.trail_factor < 1.0:
            raise ValueError("trail_factor must be >= 1")
        if not 0.0 < self.perturbation <= 1.0:
            raise ValueError("perturbation must be in (0, 1]")


class PlannerError(RuntimeError):
    """A phase could not reach a feasible grid; carries the residual
    violations for diagnosis."""

    def __init__(self, message: str, violations: Sequence = ()):
        detail = "; ".join(str(v) for v in violations)
        super().__init__(message + (f": {detail}" if detail else ""))
        self.violations = list(violations)


# --------------------------------------------------------------------------
# measure application


def _remove_bus(grid: Grid, bus_id: str) -> Grid:
    dead_lines = {l.id for l in grid.lines_at_bus.get(bus_id, ())}
    return grid.replace(
        buses=tuple(b for b in grid.buses if b.id != bus_id),
        lines=tuple(l for l in grid.lines if l.id not in dead_lines),
        switches=tuple(s for s in grid.switches
                       if s.bus != bus_id and s.line not in dead_lines),
        injections=tuple(i for i in grid.injections if i.bus != bus_id),
        external_sources=tuple(e for e in grid.external_sources if e.bus != bus_id),
        transformers=tuple(t for t in grid.transformers
                           if bus_id not in (t.hv_bus, t.lv_bus)),
    )


def _end_switch(grid: Grid, line_id: str, bus_id: str, suffix: str,
                closed: bool = True) -> Switch:
    # new feeders leaving a busbar get a substation breaker (those are on
    # SCADA and re-close remotely); anything else a manual load-break
    # switch, like the stations they land in
    breaker = grid.buses_by_id[bus_id].kind in ("primary_substation", "switching_station")
    return Switch(id=f"{line_id}_{suffix}", bus=bus_id, line=line_id,
                  closed=closed, kind="circuit_breaker" if breaker else "load_break",
                  remote_controlled=breaker)


def _apply_one(grid: Grid, m: Measure) -> Grid:
    if m.kind == "ReplaceLine":
        if m.target not in grid.lines_by_id:
            raise ValueError(f"ReplaceLine target {m.target!r} does not exist")
        return grid.replace(lines=tuple(
            replace(l, line_type=m.line_type) if l.id == m.target else l
            for l in grid.lines))

    if m.kind == "AddParallel":
        twin = grid.lines_by_id.get(m.target)
        if twin is None:
            raise ValueError(f"AddParallel target {m.target!r} does not exist")
        k = 1 + sum(1 for l in grid.lines if l.id.startswith(f"{m.target}__p"))
        new_id = f"{m.target}__p{k}"
        line = Line(id=new_id, from_bus=twin.from_bus, to_bus=twin.to_bus,
                    length=twin.length, line_type=m.line_type or twin.line_type,
                    origin="parallel")

        def twin_switch(bus: str, suffix: str) -> Switch:
            # open wherever the original is open: doubling a normally open
            # tie must not close its ring
            original = grid.switch_at.get((bus, twin.id))
            return _end_switch(grid, new_id, bus, suffix,
                               closed=original is None or original.closed)

        return grid.replace(
            lines=grid.lines + (line,),
            switches=grid.switches + (twin_switch(twin.from_bus, "a"),
                                      twin_switch(twin.to_bus, "b")))

    if m.kind == "AddTrail":
        if m.line_type is None or m.length_km is None:
            raise ValueError("AddTrail needs a line type and a route length")
        for bus in (m.target, m.to_station):
            if bus not in grid.buses_by_id:
                raise ValueError(f"AddTrail endpoint {bus!r} does not exist")
        new_id = f"trail__{m.target}__{m.to_station}"
        if new_id in grid.lines_by_id:
            raise ValueError(f"trail {new_id!r} already built")
        line = Line(id=new_id, from_bus=m.target, to_bus=m.to_station,
                    length=m.length_km, line_type=m.line_type, origin="new_trail")
        return grid.replace(
            lines=grid.lines + (line,),
            switches=grid.switches + (_end_switch(grid, new_id, m.target, "a"),
                                      _end_switch(grid, new_id, m.to_station, "b")))

    if m.kind in ("SetSectioningPoint", "CloseRing"):
        if m.target not in grid.switches_by_id:
            raise ValueError(f"switch {m.target!r} does not exist")
        closed = True if m.kind == "CloseRing" else bool(m.closed)
        return grid.replace(switches=tuple(
            replace(s, closed=closed) if s.id == m.target else s
            for s in grid.switches))

    if m.kind == "AutomateStation":
        if m.target not in grid.buses_by_id:
            raise ValueError(f"station {m.target!r} does not exist")
        return apply_automation(grid, m.target)

    if m.kind == "RenewSwitchingStation":
        if m.target not in grid.buses_by_id:
            raise ValueError(f"station {m.target!r} does not exist")
        return grid  # pure cost bookkeeping, nothing changes structurally

    if m.kind == "RemoveSwitchingStation":
        if m.target not in grid.buses_by_id:
            raise ValueError(f"station {m.target!r} does not exist")
        return _remove_bus(grid, m.target)

    raise ValueError(f"unknown measure kind {m.kind!r}")


def apply_measures(grid: Grid, measures: Sequence[Measure]) -> Grid:
    """Apply measures in order; element ids are derived deterministically."""
    for m in measures:
        grid = _apply_one(grid, m)
    return grid


# --------------------------------------------------------------------------
# candidate generation


def dismantle(grid: Grid, threshold_km: float = 2.0,
              remove_station: bool = False) -> Grid:
    """Strip lines strictly longer than the threshold (and optionally the
    switching station with everything attached to it).

    Stations that lost a line are recorded in ``meta["dismantled_stations"]``
    for the trail generator; removed line ids go to ``meta["removed_lines"]``.

    Raises:
        ValueError: remove_station without exactly one switching station.
    """
    doomed = {l.id for l in grid.lines if l.length > threshold_km}
    station_bus: str | None = None
    if remove_station:
        stations = [b for b in grid.buses if b.kind == "switching_station"]
        if len(stations) != 1:
            raise ValueError(
                f"station removal expects exactly one switching station, found {len(stations)}")
        station_bus = stations[0].id
        doomed |= {l.id for l in grid.lines_at_bus.get(station_bus, ())}

    affected = set()
    for line_id in doomed:
        line = grid.lines_by_id[line_id]
        for bus_id in (line.from_bus, line.to_bus):
            if bus_id == station_bus:
                continue
            if grid.buses_by_id[bus_id].kind != "junction":
                affected.add(bus_id)

    out = grid.replace(
        lines=tuple(l for l in grid.lines if l.id not in doomed),
        switches=tuple(s for s in grid.switches if s.line not in doomed),
        meta={**grid.meta,
              "dismantled_stations": sorted(affected),
              "removed_lines": sorted(doomed),
              "removed_station": station_bus},
    )
    if station_bus is not None:
        out = _remove_bus(out, station_bus)
    return out


def _delaunay_pairs(points: list[tuple[float, float]]) -> set[tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, of Delaunay neighbours.

    The distinct coordinates are triangulated once; three or fewer pair
    completely, and a collinear layout chains along its line. Points that
    share a coordinate (co-sited stations) pair with each other and each
    gets every neighbour of that coordinate, so none is left unpaired.
    """
    sites: dict[tuple[float, float], list[int]] = {}
    for i, point in enumerate(points):
        sites.setdefault(point, []).append(i)
    members = list(sites.values())
    pairs = {(i, j) for group in members for i in group for j in group if i < j}
    for a, b in _site_pairs(list(sites)):
        pairs.update((min(i, j), max(i, j)) for i in members[a] for j in members[b])
    return pairs


def _site_pairs(sites: list[tuple[float, float]]) -> set[tuple[int, int]]:
    n = len(sites)
    if n <= 3:
        return {(i, j) for i in range(n) for j in range(i + 1, n)}
    # imported here: at start-up scipy.spatial costs ~0.3 s and +37.6 MiB RSS
    from scipy.spatial import Delaunay, QhullError
    try:
        tri = Delaunay(sites)
    except QhullError:
        # collinear (or otherwise flat) layouts: chain along the line
        order = sorted(range(n), key=lambda i: sites[i])
        return {tuple(sorted(p)) for p in zip(order, order[1:])}
    pairs: set[tuple[int, int]] = set()
    for simplex in tri.simplices:
        for a in range(3):
            for b in range(a + 1, 3):
                i, j = int(simplex[a]), int(simplex[b])
                pairs.add((min(i, j), max(i, j)))
    return pairs


def candidate_trails(grid: Grid, line_type: str,
                     stations: Sequence[str] | None = None, *,
                     trail_factor: float = 1.5,
                     cost_model: CostModel | None = None) -> list[Measure]:
    """New-line candidates between the stations hit by dismantling.

    Neighbour pairs come from a Delaunay triangulation of the station
    coordinates; each candidate's route length is the air-line distance
    stretched by ``trail_factor``. Pairs already joined by an in-service
    line are skipped.
    """
    cost_model = cost_model or CostModel()
    if stations is None:
        stations = grid.meta.get("dismantled_stations")
        if stations is None:
            raise ValueError("grid carries no dismantling record; pass stations=")
    ids = sorted(s for s in stations if s in grid.buses_by_id)
    points = [(grid.buses_by_id[i].x, grid.buses_by_id[i].y) for i in ids]

    connected = set()
    for line in grid.lines:
        if line.in_service:
            connected.add(frozenset((line.from_bus, line.to_bus)))

    measures = []
    for a, b in sorted(_delaunay_pairs(points)):
        bus_a, bus_b = ids[a], ids[b]
        if frozenset((bus_a, bus_b)) in connected:
            continue
        air = air_line_km(grid.buses_by_id[bus_a], grid.buses_by_id[bus_b])
        if air == 0.0:
            continue  # coincident coordinates cannot carry a real route
        length = air * trail_factor
        measures.append(Measure(
            kind="AddTrail", target=bus_a, to_station=bus_b,
            line_type=line_type, length_km=length,
            cost_per_year=length * cost_model.cable_per_km))
    return measures


# --------------------------------------------------------------------------
# iterated local search core


@dataclass(frozen=True)
class CandidateSolution:
    active: tuple[bool, ...]
    cost: float  # EUR/a of the active measures
    violation_count: int
    violation_magnitude: float
    score: float  # cost + penalties; the search minimizes this

    @property
    def feasible(self) -> bool:
        return self.violation_count == 0

    def measures(self, pool: Sequence[Measure]) -> tuple[Measure, ...]:
        return tuple(m for m, on in zip(pool, self.active) if on)


@dataclass(frozen=True)
class IlsResult:
    best: CandidateSolution
    evaluations: int
    trace: tuple[tuple[int, float], ...]  # (evaluation no., best score)
    bounded: int  # evaluations whose violations were never computed


MAGNITUDE_WEIGHT = 100.0  # EUR/a per unit of violation magnitude


class _BudgetExhausted(Exception):
    pass


Violations = Callable[[], tuple[int, float]]  # () -> (count, magnitude)
Objective = Callable[[tuple[Measure, ...]], tuple[float, Violations]]


def ils(pool: Sequence[Measure], objective: Objective, params: PlannerParams,
        *, seed: int | None = None,
        start: Sequence[bool] | None = None) -> IlsResult:
    """Minimize cost + violation penalties over subsets of ``pool``.

    ``objective`` maps an active measure tuple to its annual cost and a
    zero-argument ``violations()`` that gives (violation count, violation
    magnitude), both >= 0. The count penalty outweighs the whole pool's
    cost, so any feasible solution beats every infeasible one. The all-off
    vector is evaluated first; results are memoized, identical seeds give
    identical runs, and the returned candidate is the best one ever
    evaluated.

    Every objective call is one evaluation, but the violations are asked
    for only when the exact score is needed. A climb flip whose cost alone
    is at least the current candidate's score cannot be accepted (the
    penalties are never negative), so it stays pending: it counts against
    the budget and is memoized, and its violations are computed only if a
    start, kick, restart or later climb needs its score. The run is the
    same as with eager violations; ``bounded`` counts the evaluations
    whose violations were never computed, and an error raised by
    ``violations()`` surfaces only when they are.

    Raises:
        ValueError: empty pool, or an evaluation budget below 1.
    """
    if not pool:
        raise ValueError("empty measure pool")
    if params.max_evaluations < 1:
        raise ValueError("zero evaluation budget")
    n = len(pool)
    rng = random.Random(params.seed if seed is None else seed)
    count_weight = 10.0 * max(sum(m.cost_per_year for m in pool), 1.0)

    memo: dict[tuple[bool, ...], CandidateSolution] = {}
    pending: dict[tuple[bool, ...], tuple[float, Violations]] = {}
    best: CandidateSolution | None = None
    evaluations = 0
    trace: list[tuple[int, float]] = []

    def evaluate(vec: tuple[bool, ...],
                 bound: float = math.inf) -> CandidateSolution | None:
        """The scored candidate, or None for one whose cost is >= bound."""
        nonlocal best, evaluations
        hit = memo.get(vec)
        if hit is not None:
            return hit
        waiting = pending.pop(vec, None)
        if waiting is None:
            if evaluations >= params.max_evaluations:
                raise _BudgetExhausted
            evaluations += 1
            waiting = objective(tuple(m for m, on in zip(pool, vec) if on))
        cost, violations = waiting
        if cost >= bound:
            pending[vec] = waiting
            return None
        count, magnitude = violations()
        cand = CandidateSolution(
            vec, cost, count, magnitude,
            cost + count_weight * count + MAGNITUDE_WEIGHT * magnitude)
        memo[vec] = cand
        # a resolved pending vector never sets a record: its score is at
        # least the bound it missed, and that was a score already seen
        if best is None or cand.score < best.score:
            best = cand
            trace.append((evaluations, cand.score))
        return cand

    def climb(cand: CandidateSolution) -> CandidateSolution:
        improved = True
        while improved:
            improved = False
            order = list(range(n))
            rng.shuffle(order)
            for i in order:
                vec = cand.active[:i] + (not cand.active[i],) + cand.active[i + 1:]
                trial = evaluate(vec, cand.score)
                if trial is not None and trial.score < cand.score:
                    cand = trial
                    improved = True
        return cand

    try:
        current = evaluate((False,) * n)
        if start is not None:
            start_vec = tuple(bool(b) for b in start)
            if len(start_vec) != n:
                raise ValueError("start vector length does not match the pool")
            current = evaluate(start_vec)
        current = climb(current)

        non_improving = 0
        restarts_left = params.restarts
        while True:
            score_before = best.score
            kicked = list(current.active)
            for i in rng.sample(range(n), max(1, math.ceil(params.perturbation * n))):
                kicked[i] = not kicked[i]
            cand = climb(evaluate(tuple(kicked)))
            if cand.score <= current.score:
                current = cand
            if best.score < score_before:
                non_improving = 0
            else:
                non_improving += 1
            if non_improving >= params.non_improving_limit:
                if restarts_left <= 0:
                    break
                restarts_left -= 1
                non_improving = 0
                current = climb(evaluate(tuple(
                    rng.random() < 0.5 for _ in range(n))))
    except _BudgetExhausted:
        pass

    return IlsResult(best, evaluations, tuple(trace), len(pending))


# --------------------------------------------------------------------------
# phase 1: topology


@dataclass(frozen=True)
class StagePlan:
    grid: Grid
    measures: tuple[Measure, ...]
    fmea: FmeaResult | None = None  # of grid, where the stage computed it (phase 3)


def _radialized(grid: Grid) -> Grid:
    """The grid with the switch state of :func:`derive_radial_state` stored
    in it; a switch that keeps its position is the same object."""
    state = derive_radial_state(grid)
    return grid.replace(switches=tuple(
        s if s.closed == state[s.id] else replace(s, closed=state[s.id])
        for s in grid.switches))


def _topology_violations(grid: Grid) -> list:
    radial = _radialized(grid)
    return check_supply(radial) + check_radiality(radial) + check_contingency_supply(radial)


def _greedy_spanning_start(grid: Grid, trails: Sequence[Measure],
                           rng: random.Random) -> tuple[bool, ...]:
    """Random spanning activation: add trails that join separate parts.
    Connectivity counts every in-service line (open points can be closed
    during radialization, so they do not separate anything here)."""
    uf = _UnionFind()
    for line in grid.lines:
        if line.in_service:
            uf.union(line.from_bus, line.to_bus)
    for t in grid.transformers:
        uf.union(t.hv_bus, t.lv_bus)
    start = [False] * len(trails)
    order = list(range(len(trails)))
    rng.shuffle(order)
    for i in order:
        a, b = trails[i].target, trails[i].to_station
        if uf.find(a) != uf.find(b):
            uf.union(a, b)
            start[i] = True
    return tuple(start)


def _persist_radial_state(grid: Grid) -> tuple[Grid, tuple[Measure, ...]]:
    """Bake the freshly chosen radial switch state into the grid; report
    every switch whose position changed as a free sectioning measure."""
    radial = _radialized(grid)
    moves = tuple(
        Measure(kind="SetSectioningPoint", target=new.id, closed=new.closed)
        for old, new in zip(grid.switches, radial.switches) if old is not new)
    if not moves:
        return grid, ()
    return radial, moves


def phase1_topologies(dismantled: Grid, trails: Sequence[Measure],
                      params: PlannerParams) -> list[StagePlan]:
    """Build ``n_topologies`` radial, contingency-proof topologies from the
    trail candidates; diversity comes from per-run seeds and random starts.

    Raises:
        PlannerError: a run ends infeasible (trail pool insufficient).
    """
    pool = list(trails)
    if not pool:
        # Nothing was dismantled (or nothing can be built): the structure is
        # already fixed, the only work left is choosing sectioning points.
        violations = _topology_violations(dismantled)
        if violations:
            raise PlannerError(
                "no trail candidates and the grid is not viable as-is", violations)
        grid, moves = _persist_radial_state(dismantled)
        return [StagePlan(grid=grid, measures=moves)
                for _ in range(params.n_topologies)]

    def objective(active: tuple[Measure, ...]) -> tuple[float, Violations]:
        def violations() -> tuple[int, float]:
            found = _topology_violations(apply_measures(dismantled, active))
            return len(found), float(len(found))

        return sum(m.cost_per_year for m in active), violations

    plans = []
    for k in range(params.n_topologies):
        run_seed = params.seed + k
        start = _greedy_spanning_start(
            dismantled, pool, random.Random(f"{run_seed}:start"))
        result = ils(pool, objective, params, seed=run_seed, start=start)
        chosen = result.best.measures(pool)
        grid = apply_measures(dismantled, chosen)
        if not result.best.feasible:
            raise PlannerError(
                f"topology run {k} stayed infeasible", _topology_violations(grid))
        grid, moves = _persist_radial_state(grid)
        plans.append(StagePlan(grid=grid, measures=chosen + moves))
    return plans


# --------------------------------------------------------------------------
# phase 2: operational reinforcement


def _operation_report(grid: Grid, scenarios: Sequence[Scenario]) -> ViolationReport:
    return check_normal_operation(grid, scenarios).merged(
        check_contingency_operation(grid, scenarios))


def _tie_points(grid: Grid) -> list[tuple[Switch, list[str]]]:
    """Open load-break switches whose closing alone closes a ring, in switch
    id order, each with the conducting path that forms the rest of it."""
    state = _state_map(grid)
    out = []
    for sw in sorted(grid.switches, key=lambda s: s.id):
        if state[sw.id] or sw.kind != "load_break":
            continue
        line = grid.lines_by_id[sw.line]
        if not line.in_service:
            continue
        if any(not state[s.id] for s in grid.switches_by_line.get(line.id, ())
               if s.id != sw.id):
            continue  # closing this switch alone does not conduct
        ring = conducting_path(grid, state, line.id, line.from_bus, line.to_bus)
        if ring is not None:  # else closing would extend supply, not ring it
            out.append((sw, ring))
    return out


def _sectioning_moves(grid: Grid, scenarios: Sequence[Scenario]
                      ) -> tuple[Grid, tuple[Measure, ...], ViolationReport]:
    """Greedily move open points around their rings while that strictly
    reduces (violation count, magnitude). Switching is free. The trials are
    checked in the entered :class:`~gridforge.power_flow.PlanMemo`: a
    switch state's plan and N-1 cases are computed once per planning task,
    and a trial's report once per ``pipeline.run_area`` call."""
    report = _operation_report(grid, scenarios)
    measures: list[Measure] = []
    while not report.feasible:
        score = (len(report), report.total_magnitude)
        best = None  # (score, close_id, open_id, grid, report)
        for sectioning, ring in _tie_points(grid):
            for ring_line in ring:
                for sw in sorted(grid.switches_by_line.get(ring_line, ()),
                                 key=lambda s: s.id):
                    if not sw.closed or sw.kind != "load_break":
                        continue
                    trial = apply_measures(grid, (
                        Measure(kind="SetSectioningPoint", target=sectioning.id, closed=True),
                        Measure(kind="SetSectioningPoint", target=sw.id, closed=False)))
                    trial_report = _operation_report(trial, scenarios)
                    trial_score = (len(trial_report), trial_report.total_magnitude)
                    if trial_score < score and (best is None or trial_score < best[0]):
                        best = (trial_score, sectioning.id, sw.id, trial, trial_report)
        if best is None:
            break
        _, close_id, open_id, grid, report = best
        measures.append(Measure(kind="SetSectioningPoint", target=close_id, closed=True))
        measures.append(Measure(kind="SetSectioningPoint", target=open_id, closed=False))
    return grid, tuple(measures), report


def _reinforcement_pool(grid: Grid, params: PlannerParams,
                        cost_model: CostModel) -> list[Measure]:
    catalog = [grid.line_types_by_name[name] for name in params.cable_catalog
               if name in grid.line_types_by_name]
    pool: list[Measure] = []
    for line in sorted(grid.lines, key=lambda l: l.id):
        if not line.in_service:
            continue
        current = grid.line_types_by_name[line.line_type]
        annual = line.length * cost_model.cable_per_km
        for rung in catalog:
            if rung.i_max > current.i_max:
                pool.append(Measure(kind="ReplaceLine", target=line.id,
                                    line_type=rung.name, cost_per_year=annual))
        ends_in_stations = all(
            grid.buses_by_id[b].kind == "secondary_substation"
            for b in (line.from_bus, line.to_bus))
        if ends_in_stations:
            pool.append(Measure(kind="AddParallel", target=line.id,
                                line_type=line.line_type, cost_per_year=annual))
    return pool


@dataclass(frozen=True)
class ReinforcementPlan:
    grid: Grid  # feasible reinforced grid
    measures: tuple[Measure, ...]  # sectioning moves + chosen cables
    base_grid: Grid  # after sectioning moves, before any cable measure
    cable_measures: tuple[Measure, ...]  # the chosen cables, re-appliable


def phase2_reinforce(grid: Grid, scenarios: Sequence[Scenario],
                     cost_model: CostModel, params: PlannerParams, *,
                     seed: int | None = None) -> ReinforcementPlan:
    """Clear voltage/loading violations: free sectioning moves first, then
    the cheapest sufficient set of line replacements and parallels.

    Raises:
        PlannerError: violations persist even with every candidate built.
    """
    with _scope():  # a direct call's checks share one memo
        base, moves, report = _sectioning_moves(grid, scenarios)
        if report.feasible:
            return ReinforcementPlan(base, moves, base, ())

        pool = _reinforcement_pool(base, params, cost_model)
        if not pool:
            raise PlannerError("operational violations but no reinforcement "
                               "candidates (catalog empty?)", report.entries)

        def objective(active: tuple[Measure, ...]) -> tuple[float, Violations]:
            def violations() -> tuple[int, float]:
                rep = _operation_report(apply_measures(base, active), scenarios)
                return len(rep), rep.total_magnitude

            return sum(m.cost_per_year for m in active), violations

        # quick upper-bound probe: strongest build-out must be feasible
        strongest: dict[str, Measure] = {}
        parallels: list[Measure] = []
        for m in pool:
            if m.kind == "ReplaceLine":
                strongest[m.target] = m  # catalog is ordered, last rung wins
            else:
                parallels.append(m)
        probe = tuple(list(strongest.values()) + parallels)
        probe_report = _operation_report(apply_measures(base, probe), scenarios)
        if not probe_report.feasible:
            raise PlannerError("grid cannot be reinforced within the catalog",
                               probe_report.entries)

        result = ils(pool, objective, params, seed=params.seed if seed is None else seed)
        cables = result.best.measures(pool)
        if not result.best.feasible:
            raise PlannerError(
                "reinforcement search ended infeasible (budget too small?)",
                _operation_report(apply_measures(base, cables), scenarios).entries)
        return ReinforcementPlan(apply_measures(base, cables), moves + cables,
                                 base, cables)


# --------------------------------------------------------------------------
# phase 3: automation for reliability


def phase3_automate(grid: Grid, baseline: FmeaResult,
                    reliability: ReliabilityParams,
                    cost_model: CostModel) -> StagePlan:
    """Automate load-centre stations until outage limits hold again. The
    plan carries the FMEA of the automated grid that the last round of the
    automation loop computed."""
    stations, result = _automate(grid, reliability, baseline)
    for bus in stations:
        grid = apply_automation(grid, bus)
    measures = tuple(
        Measure(kind="AutomateStation", target=bus,
                cost_per_year=cost_model.communication_link)
        for bus in stations)
    return StagePlan(grid=grid, measures=measures, fmea=result)


# --------------------------------------------------------------------------
# phase 4: meshing (closed rings)


def _closure_candidates(grid: Grid) -> list[Switch]:
    """Open sectioning points at secondary substations whose closing would
    mesh two otherwise separate feeder branches."""
    return [sw for sw, _ in _tie_points(grid)
            if grid.buses_by_id[sw.bus].kind == "secondary_substation"]


def phase4_mesh(reinforcement: ReinforcementPlan, automation_buses: Sequence[str],
                scenarios: Sequence[Scenario], cost_model: CostModel,
                params: PlannerParams, *, seed: int | None = None) -> StagePlan:
    """Close rings where that pays: the pool offers every sectioning point
    as a closure and every phase-2 cable measure as droppable; a closed
    point forces automation of its station. The plan's cost carries the
    closed-ring concept surcharge (ring protection and fault indicators).

    Returns the meshed plan — which degenerates to the radial reinforcement
    if no closure is worth its links.
    """
    base = reinforcement.base_grid
    for bus in automation_buses:
        base = apply_automation(base, bus)

    candidates = _closure_candidates(base)
    fully_remote = {
        sw.id: all(s.remote_controlled for s in base.switches if s.bus == sw.bus)
        for sw in candidates}
    closures = [Measure(kind="CloseRing", target=sw.id) for sw in candidates]
    pool = list(reinforcement.cable_measures) + closures

    def forced_automation(active: tuple[Measure, ...]) -> list[str]:
        buses = {base.switches_by_id[m.target].bus for m in active
                 if m.kind == "CloseRing" and not fully_remote[m.target]}
        return sorted(buses)

    def realize(active: tuple[Measure, ...]) -> Grid:
        ordered = ([m for m in active if m.kind != "CloseRing"]
                   + [m for m in active if m.kind == "CloseRing"]
                   + [Measure(kind="AutomateStation", target=b)
                      for b in forced_automation(active)])
        return apply_measures(base, ordered)

    def objective(active: tuple[Measure, ...]) -> tuple[float, Violations]:
        candidate = realize(active)
        cost = (sum(m.cost_per_year for m in active)
                + len(forced_automation(active)) * cost_model.communication_link
                + concept_overhead(candidate, "closed_ring", cost_model).total)

        def violations() -> tuple[int, float]:
            rep = _operation_report(candidate, scenarios)
            return len(rep), rep.total_magnitude

        return cost, violations

    if not pool:
        return StagePlan(grid=base, measures=())

    start = [m.kind != "CloseRing" for m in pool]  # = the radial solution
    with _scope():  # a direct call's checks share one memo
        result = ils(pool, objective, params,
                     seed=params.seed if seed is None else seed, start=start)
        chosen = result.best.measures(pool)
        if not result.best.feasible:
            raise PlannerError("meshing search lost feasibility",
                               _operation_report(realize(chosen), scenarios).entries)
    links = tuple(
        Measure(kind="AutomateStation", target=bus,
                cost_per_year=cost_model.communication_link)
        for bus in forced_automation(chosen))
    return StagePlan(grid=realize(chosen), measures=chosen + links)
