"""Balanced AC power flow and the operational constraint checks.

Newton-Raphson in polar form on the conducting, energized MV sub-graph.
Every transformer acts as an ideal voltage source holding its MV busbar at
the scenario setpoint (slack); lines are series R+jX branches. Dense numpy
linear algebra is used throughout. The Jacobian is built in O(n²) by row and
column scaling, so the dense LU solve is the only O(n³) step. A scipy sparse
Jacobian with ``spsolve`` was measured per Newton solve on a 2-vCPU host:
5.2 ms against 0.36 ms dense for the 27-bus example area, 6.2 against 7.2 ms
at 181 buses and 7.0 against 13.8 ms at 239 buses. Planning areas are a few
dozen buses, where dense is an order of magnitude faster, so one dense path
is kept and no size switch.

The N-1 check splits into a topology half, :func:`contingency_cases` (the
resupply switching sequence per feeder head), and the load flows on the
restored states. The planning searches compute the cases once per topology
and pass them in, since candidates that differ only in cable types share
them; every solve still goes through :func:`run_power_flow`.

:func:`run_power_flow` compiles a solve plan, then solves it. The plan holds
what cable types do not change, as index arrays: per line-coupled component
that holds an energized transformer busbar, the positions of its buses in
``grid.buses`` (sorted by id), its slack and PQ indices, and the position
and end indices of its lines in ``grid.lines`` order. The solve step reads
the cable types, computes the admittances, assembles Ybus, runs Newton and
writes the result. Inside a planning search a :class:`PlanMemo` is entered
while a report is computed: plans are kept per grid structure
(:attr:`~gridforge.grid_model.Grid.structure_key`), keyed by the open
switches and the excluded lines, and the scenario injections per structure
and scenario. The memo dies with the search; outside it every solve
compiles its plan. Both ways give the same result to the last bit, and
the same as building everything per call in plain loops: Ybus sums each
entry's terms in line order, admittances and loadings are scalar Python
expressions per line (a vectorized ``np.abs`` differs in the last bit), and
a bus without injection gets ``complex(-0.0, -0.0) / S_BASE_MVA``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from gridforge.grid_model import Grid, Scenario, apply_scenario
from gridforge.topology import (
    SwitchingSequence,
    _energized,
    _state_map,
    find_feeders,
    resupply_sequence,
)

S_BASE_MVA = 1.0
TOLERANCE = 1e-8  # pu mismatch, infinity norm
MAX_ITERATIONS = 30


@dataclass(frozen=True)
class PfResult:
    converged: bool
    iterations: int
    vm: dict[str, float]  # pu, solved buses only
    va: dict[str, float]  # rad
    loading: dict[str, float]  # percent of i_max per line
    p_slack_mw: float
    q_slack_mvar: float

    @property
    def v(self) -> dict[str, float]:
        return self.vm


@dataclass(frozen=True)
class Violation:
    kind: str  # undervoltage | overvoltage | overload | unsupplied | nonconvergence
    element: str  # bus id, line id or scenario name
    magnitude: float  # pu below/above band, % points above limit; 1.0 for discrete kinds
    scenario: str
    contingency: str | None = None  # failed line id for contingency checks

    def __str__(self) -> str:
        ctx = f" (outage of {self.contingency})" if self.contingency else ""
        return f"{self.kind}({self.element})={self.magnitude:.4g} in {self.scenario}{ctx}"


@dataclass(frozen=True)
class ViolationReport:
    entries: tuple[Violation, ...] = ()

    @property
    def feasible(self) -> bool:
        return not self.entries

    @property
    def total_magnitude(self) -> float:
        return sum(v.magnitude for v in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def merged(self, other: "ViolationReport") -> "ViolationReport":
        return ViolationReport(self.entries + other.entries)


def polar_mismatch(ybus: np.ndarray, vm: np.ndarray, va: np.ndarray,
                   sbus: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """Stacked real/imag power mismatch at the PQ buses (pu)."""
    v = vm * np.exp(1j * va)
    return _mismatch(v, ybus @ v, sbus, pq)


def _mismatch(v: np.ndarray, i: np.ndarray, sbus: np.ndarray, pq: np.ndarray) -> np.ndarray:
    mis = v * np.conj(i) - sbus
    return np.concatenate([mis[pq].real, mis[pq].imag])


def polar_jacobian(ybus: np.ndarray, vm: np.ndarray, va: np.ndarray,
                   pq: np.ndarray) -> np.ndarray:
    """Jacobian of :func:`polar_mismatch` w.r.t. [va[pq], vm[pq]].

    The diagonal-matrix products of the textbook form are written as row
    and column scalings plus one diagonal add, so building it is O(n²).
    """
    v = vm * np.exp(1j * va)
    return _jacobian(ybus[np.ix_(pq, pq)], v, ybus @ v, pq)


def _jacobian(y: np.ndarray, v: np.ndarray, i: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """:func:`polar_jacobian` from the PQ block ``y`` of Ybus, the bus
    voltages ``v`` and the injected currents ``i = Ybus v``."""
    m = len(pq)
    v_pq, i_pq = v[pq], i[pq]
    vn_pq = v_pq / np.abs(v_pq)
    ds_dva = -1j * v_pq[:, None] * np.conj(y * v_pq[None, :])
    ds_dvm = v_pq[:, None] * np.conj(y * vn_pq[None, :])
    diag = np.diag_indices(m)
    ds_dva[diag] += 1j * v_pq * np.conj(i_pq)
    ds_dvm[diag] += np.conj(i_pq) * vn_pq

    jac = np.empty((2 * m, 2 * m))
    jac[:m, :m] = ds_dva.real
    jac[:m, m:] = ds_dvm.real
    jac[m:, :m] = ds_dva.imag
    jac[m:, m:] = ds_dvm.imag
    return jac


def _newton(ybus: np.ndarray, sbus: np.ndarray, vm: np.ndarray, va: np.ndarray,
            pq: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, bool]:
    # one iteration's voltages and currents serve both the mismatch and the
    # Jacobian, and the PQ block of Ybus is cut out once per solve
    n_pq = len(pq)
    y_pq = ybus[np.ix_(pq, pq)]
    for iteration in range(MAX_ITERATIONS + 1):
        v = vm * np.exp(1j * va)
        i = ybus @ v
        f = _mismatch(v, i, sbus, pq)
        if f.size == 0 or np.max(np.abs(f)) < TOLERANCE:
            return vm, va, iteration, True
        if iteration == MAX_ITERATIONS:
            break
        jac = _jacobian(y_pq, v, i, pq)
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return vm, va, iteration, False
        if not np.all(np.isfinite(dx)):
            return vm, va, iteration, False
        va[pq] += dx[:n_pq]
        vm[pq] += dx[n_pq:]
    return vm, va, MAX_ITERATIONS, False


class _Component(NamedTuple):
    """One line-coupled component of a solve plan, as index arrays. Its
    buses are ``grid.buses[bus_pos]``, sorted by id; ``slack``, ``pq`` and
    the end rows of ``lines`` index into them."""

    bus_pos: np.ndarray
    slack: np.ndarray
    pq: np.ndarray
    lines: np.ndarray  # rows: position in grid.lines, from-bus, to-bus


class PlanMemo:
    """Solve plans and per-scenario bus tables of one search.

    While a memo is entered (``with memo:``), :func:`run_power_flow` looks
    its plans up here and compiles each only once; outside every ``with``
    block nothing is memoized. Plans are kept per
    :attr:`~gridforge.grid_model.Grid.structure_key`, keyed by the open
    switches of the solved state and the excluded lines; bus tables per
    structure and scenario.
    """

    __slots__ = ("structures", "_grid", "_entry", "_outer")

    def __init__(self) -> None:
        self.structures: dict[tuple, tuple[dict, dict]] = {}
        self._grid: Grid | None = None
        self._entry: tuple[dict, dict] = ({}, {})
        self._outer: PlanMemo | None = None

    def of(self, grid: Grid) -> tuple[dict[tuple, tuple[_Component, ...]],
                                      dict[Scenario, tuple[np.ndarray, np.ndarray]]]:
        """The plans and the bus tables of the grid's structure. A report
        solves one grid several times, so the last grid's are kept at hand."""
        if grid is not self._grid:
            self._grid = grid
            self._entry = self.structures.setdefault(grid.structure_key, ({}, {}))
        return self._entry

    def __enter__(self) -> "PlanMemo":
        global _memo
        self._outer, _memo = _memo, self
        return self

    def __exit__(self, *exc) -> None:
        global _memo
        _memo, self._outer = self._outer, None


_memo: PlanMemo | None = None  # the memo entered last, if any


def _compile(grid: Grid, state: dict[str, bool],
             exclude_lines: frozenset[str]) -> tuple[_Component, ...]:
    """The solve plan of one switch state: every line-coupled component
    that holds an energized transformer busbar, in the order of its lowest
    bus id, found by a flood from those busbars over conducting lines."""
    energized = _energized(grid, state, exclude_lines)
    slack = {t.lv_bus for t in grid.transformers if t.lv_bus in energized}
    switch_ids = grid.switch_ids_by_line
    lines_at = grid.lines_at_bus
    closed = state.__getitem__
    comps: list[list[str]] = []
    owner: dict[str, int] = {}  # bus -> number of its component
    conducting: set[str] = set()
    for root in slack:
        if root in owner:
            continue
        comp = [root]
        owner[root] = len(comps)
        comps.append(comp)
        queue = [root]
        while queue:
            bus = queue.pop()
            for line in lines_at.get(bus, ()):
                if (line.id in conducting or not line.in_service
                        or line.id in exclude_lines
                        or not all(map(closed, switch_ids.get(line.id, ())))):
                    continue
                conducting.add(line.id)
                other = line.to_bus if line.from_bus == bus else line.from_bus
                if other not in owner:
                    owner[other] = owner[root]
                    comp.append(other)
                    queue.append(other)

    lines_of: list[list[int]] = [[] for _ in comps]
    for pos, line in enumerate(grid.lines):
        if line.id in conducting:
            lines_of[owner[line.from_bus]].append(pos)
    bus_pos = {b.id: i for i, b in enumerate(grid.buses)}

    plan = []
    for k in sorted(range(len(comps)), key=lambda k: min(comps[k])):
        buses = sorted(comps[k])
        index = {bus: i for i, bus in enumerate(buses)}
        positions = lines_of[k]
        plan.append(_Component(
            bus_pos=np.array([bus_pos[b] for b in buses]),
            slack=np.array([i for i, b in enumerate(buses) if b in slack]),
            pq=np.array([i for i, b in enumerate(buses) if b not in slack], dtype=int),
            lines=np.array([positions,
                            [index[grid.lines[p].from_bus] for p in positions],
                            [index[grid.lines[p].to_bus] for p in positions]],
                           dtype=int)))
    return tuple(plan)


def _bus_table(grid: Grid, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per bus of ``grid.buses``: the injected power (pu, generation
    positive) and the start voltage magnitude (the setpoint at transformer
    busbars, 1 elsewhere)."""
    inj = apply_scenario(grid, scenario)
    p, q = inj.p_mw, inj.q_mvar
    sbus = np.array([complex(-p.get(b.id, 0.0), -q.get(b.id, 0.0)) / S_BASE_MVA
                     for b in grid.buses], dtype=complex)
    vm = np.ones(len(grid.buses))
    pos = {b.id: i for i, b in enumerate(grid.buses)}
    for t in grid.transformers:
        if t.lv_bus in pos:
            vm[pos[t.lv_bus]] = inj.setpoints[t.id]
    return sbus, vm


def _ybus(n: int, f: np.ndarray, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bus admittance matrix, accumulated line by line in the given order
    (ff, tt, ft, tf per line), so every entry sums its terms in line order."""
    at = np.empty((len(y), 4), dtype=np.intp)  # flat index of ff, tt, ft, tf
    at[:, 0] = f * (n + 1)
    at[:, 1] = t * (n + 1)
    at[:, 2] = f * n + t
    at[:, 3] = t * n + f
    terms = np.empty((len(y), 4), dtype=complex)
    terms[:, :2] = y[:, None]
    terms[:, 2:] = -y[:, None]
    ybus = np.zeros(n * n, dtype=complex)
    np.add.at(ybus, at.ravel(), terms.ravel())  # unbuffered, in index order
    return ybus.reshape(n, n)


def _solve(grid: Grid, plan: tuple[_Component, ...],
           table: tuple[np.ndarray, np.ndarray]) -> PfResult:
    """Newton on each component of ``plan`` with the grid's cable types."""
    sbus_all, vm_all = table
    types = grid.line_types_by_name
    vm_out: dict[str, float] = {}
    va_out: dict[str, float] = {}
    loading: dict[str, float] = {}
    p_slack = q_slack = 0.0
    iterations = 0
    converged = True

    for comp in plan:
        buses = [grid.buses[i] for i in comp.bus_pos.tolist()]
        vn = buses[0].vn
        z_base = vn * vn / S_BASE_MVA
        positions, f, t = comp.lines
        lines = [grid.lines[p] for p in positions.tolist()]
        admittances = []
        for line in lines:
            lt = types[line.line_type]
            z = complex(lt.r_per_km, lt.x_per_km) * line.length / z_base
            if z == 0:
                raise ValueError(f"line {line.id} has zero impedance")
            admittances.append(1.0 / z)
        n = len(buses)
        ybus = _ybus(n, f, t, np.array(admittances, dtype=complex))

        vm, va, its, ok = _newton(ybus, sbus_all[comp.bus_pos], vm_all[comp.bus_pos],
                                  np.zeros(n), comp.pq)
        iterations = max(iterations, its)
        converged = converged and ok
        if not ok:
            continue

        v = vm * np.exp(1j * va)
        i_inj = ybus @ v
        s_slack = (v[comp.slack] * np.conj(i_inj[comp.slack])).sum()
        p_slack += s_slack.real * S_BASE_MVA
        q_slack += s_slack.imag * S_BASE_MVA

        i_base_ka = S_BASE_MVA / (math.sqrt(3.0) * vn)
        for line, fi, ti, y in zip(lines, f.tolist(), t.tolist(), admittances):
            i_ka = abs((v[fi] - v[ti]) * y) * i_base_ka
            loading[line.id] = 100.0 * i_ka / types[line.line_type].i_max
        ids = [b.id for b in buses]
        vm_out.update(zip(ids, vm.tolist()))
        va_out.update(zip(ids, va.tolist()))

    return PfResult(converged=converged, iterations=iterations, vm=vm_out,
                    va=va_out, loading=loading, p_slack_mw=p_slack,
                    q_slack_mvar=q_slack)


def run_power_flow(grid: Grid, scenario: Scenario,
                   switch_state: dict[str, bool] | None = None,
                   exclude_lines: frozenset[str] = frozenset()) -> PfResult:
    """Solve the energized MV grid for one scenario.

    Each conducting component holding at least one transformer busbar is
    solved with the busbar(s) fixed at the scenario setpoint. Buses without
    a voltage in the result were not energized (or not solvable) — the
    checks report the stations among them as unsupplied.

    The solve plan is compiled here, or taken from the entered
    :class:`PlanMemo`; the result is the same either way.
    """
    exclude_lines = frozenset(exclude_lines)
    memo = _memo
    if memo is None:
        return _solve(grid, _compile(grid, _state_map(grid, switch_state), exclude_lines),
                      _bus_table(grid, scenario))
    plans, tables = memo.of(grid)
    # the open switches in grid order: one order for every grid of a structure
    closed = (switch_state or {}).get
    key = (tuple([s.id for s in grid.switches if not closed(s.id, s.closed)]),
           tuple(sorted(exclude_lines)))
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _compile(grid, _state_map(grid, switch_state), exclude_lines)
    table = tables.get(scenario)
    if table is None:
        table = tables[scenario] = _bus_table(grid, scenario)
    return _solve(grid, plan, table)


def _band_violations(grid: Grid, result: PfResult, scenario: Scenario,
                     contingency: str | None) -> list[Violation]:
    v_min = scenario.v_min_cont if contingency else scenario.v_min
    v_max = scenario.v_max_cont if contingency else scenario.v_max
    out: list[Violation] = []
    if not result.converged:
        out.append(Violation("nonconvergence", scenario.name, 1.0, scenario.name, contingency))
    for bus in sorted(result.vm):
        vm = result.vm[bus]
        if vm < v_min:
            out.append(Violation("undervoltage", bus, v_min - vm, scenario.name, contingency))
        elif vm > v_max:
            out.append(Violation("overvoltage", bus, vm - v_max, scenario.name, contingency))
    for line in sorted(result.loading):
        pct = result.loading[line]
        if pct > scenario.loading_max:
            out.append(Violation("overload", line, pct - scenario.loading_max,
                                 scenario.name, contingency))
    return out


def check_normal_operation(grid: Grid, scenarios: Iterable[Scenario],
                           switch_state: dict[str, bool] | None = None) -> ViolationReport:
    """Voltage band and loading limits for every scenario, normal state."""
    entries: list[Violation] = []
    for scenario in scenarios:
        result = run_power_flow(grid, scenario, switch_state)
        entries.extend(_band_violations(grid, result, scenario, None))
        for station in grid.stations():
            if station.id not in result.vm:
                entries.append(Violation("unsupplied", station.id, 1.0, scenario.name))
    return ViolationReport(tuple(entries))


def contingency_cases(grid: Grid, switch_state: dict[str, bool] | None = None
                      ) -> tuple[SwitchingSequence, ...]:
    """The topology half of the N-1 check: per feeder head, the failed line
    and the switching sequence that resupplies after its fault.

    The cases read only the structure and the switch states, never cable
    types, so a search can reuse them for every candidate that differs from
    another only in cable types.
    """
    state = _state_map(grid, switch_state)
    return tuple(resupply_sequence(grid, feeder.head_line, state)
                 for feeder in find_feeders(grid, state))


def check_contingency_operation(grid: Grid, scenarios: Sequence[Scenario],
                                switch_state: dict[str, bool] | None = None, *,
                                cases: Sequence[SwitchingSequence] | None = None
                                ) -> ViolationReport:
    """N-1 check: fail each feeder-head line, resupply, verify the restored
    state under peak load against the widened contingency band.

    Only ``peak_load`` is evaluated — voltage support from generation gets
    no credit in contingency planning. Stations that stay dark are reported
    unless they are exempt (``requires_contingency_supply = False``).
    ``cases`` are :func:`contingency_cases` of the same topology and switch
    state; they are computed here when not given.
    """
    peak_load = next((s for s in scenarios if s.name == "peak_load"), None)
    if peak_load is None:
        raise ValueError("contingency check needs a 'peak_load' scenario")
    if cases is None:
        cases = contingency_cases(grid, switch_state)
    entries: list[Violation] = []
    for case in cases:
        failed = case.failed_line
        result = run_power_flow(grid, peak_load, case.resulting_state,
                                exclude_lines=frozenset((failed,)))
        entries.extend(_band_violations(grid, result, peak_load, failed))
        for bus_id in case.unsupplied:
            if grid.buses_by_id[bus_id].requires_contingency_supply:
                entries.append(Violation("unsupplied", bus_id, 1.0, peak_load.name, failed))
    return ViolationReport(tuple(entries))
