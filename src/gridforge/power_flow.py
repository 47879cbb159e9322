"""Balanced AC power flow and the operational constraint checks.

Newton-Raphson in polar form on the conducting, energized MV sub-graph.
Every transformer acts as an ideal voltage source holding its MV busbar at
the scenario setpoint (slack); lines are series R+jX branches. A busbar's
voltage is fixed, so the feeders that hang off it are independent systems:
each line-coupled component is cut at its slack busbars into blocks, one
per feeder or closed ring (the PQ buses joined by lines that pass no
busbar, with the busbars they touch), and each block gets its own Newton.
A component with a block that does not converge is left out as a whole,
and ``iterations`` is the largest count of any block. Blocks hold at most
11 PQ buses on the example area (one 27-bus component) and 39 on the
``large_checks`` areas of perfbench (components of 111-239 buses, seed 5).

Dense numpy linear algebra is used throughout. The Jacobian is built in
O(n²) by row and column scaling, so the dense LU solve is the only O(n³)
step. A scipy sparse Jacobian with ``spsolve`` was measured per Newton
solve on a 2-vCPU host: 5.2 ms against 0.36 ms dense at 27 buses, 6.2
against 7.2 ms at 181 buses and 7.0 against 13.8 ms at 239 buses. Every
block is far below that crossover, so one dense path is kept and no size
switch.

The N-1 check splits into a topology half, :func:`contingency_cases` (the
resupply switching sequence per feeder head), and the load flows on the
restored states. The planning searches compute the cases once per topology
and pass them in, since candidates that differ only in cable types share
them; every solve still goes through :func:`run_power_flow`.

:func:`run_power_flow` compiles a solve plan, then solves it. The plan holds
what cable choices do not change, as indices: per line-coupled
component its buses and lines, and per block the positions of its buses in
``grid.buses`` (sorted by id), its slack and PQ indices, and the position
and end indices of its lines in ``grid.lines`` order. The solve step reads
the cable types, computes the admittances, assembles Ybus, runs Newton per
block and merges the blocks. A :class:`PlanMemo` keeps the plans per grid
structure (:attr:`~gridforge.grid_model.Grid.structure_key`), keyed by the
open switches and the excluded lines, and per structure and scenario the
bus injections and the block results, keyed by the block's line
positions, cable types and lengths; so a candidate or an N-1 case that
changes one feeder solves only that feeder again. A planning search enters
a memo while it computes a report; :func:`check_normal_operation` and
:func:`check_contingency_operation` enter one of their own when none is
entered, and a lone solve gets a memo of its own. Every way gives the same
result to the last bit, and the same as building every block per call in
plain loops: Ybus sums each entry's terms in line order, admittances and
loadings are scalar Python expressions per line (a vectorized ``np.abs``
differs in the last bit), and a bus without injection gets
``complex(-0.0, -0.0) / S_BASE_MVA``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from operator import itemgetter
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


class _Block(NamedTuple):
    """One feeder or closed ring of a component: the PQ buses joined by
    lines that pass no slack busbar, those lines, and the slack busbars
    they touch (a line between two busbars is a block of its own). Its
    buses are ``grid.buses[bus_pos]``, sorted by id, and its lines
    ``grid.lines[key]``, in line order; ``slack``, ``pq`` and ``ends``
    index into its buses. Index arrays are made only when it is solved."""

    bus_pos: tuple[int, ...]
    slack: tuple[int, ...]
    pq: tuple[int, ...]
    ends: tuple[tuple[int, ...], tuple[int, ...]]  # from-bus and to-bus per line
    at: np.ndarray  # positions of the PQ buses in the component's bus order
    key: tuple[int, ...]  # the line positions, which name the block in its structure
    pick: itemgetter  # this block's entries of a per-line tuple


class _Component(NamedTuple):
    """One line-coupled component of a solve plan: its buses
    (``grid.buses[bus_pos]``, sorted by id) and lines (in ``grid.lines``
    order), and its blocks in the order of their first line."""

    bus_pos: np.ndarray
    bus_ids: tuple[str, ...]
    line_ids: tuple[str, ...]
    line_order: tuple[int, ...]  # puts the blocks' loadings, block after block, in line order
    blocks: tuple[_Block, ...]


class _BlockResult(NamedTuple):
    iterations: int
    converged: bool
    vm: np.ndarray  # at the block's PQ buses
    va: np.ndarray
    loading: list[float]  # per line of the block
    s_slack: complex  # pu, into the block from its slack busbars


class _Table(NamedTuple):
    """Per bus of ``grid.buses``, for one structure and scenario: the
    injected power (pu, generation positive) and the start voltage
    magnitude (the setpoint at transformer busbars, 1 elsewhere); and the
    block results solved so far, keyed by line positions, cable types and
    lengths."""

    sbus: np.ndarray
    vm: np.ndarray
    blocks: dict[tuple, _BlockResult]


class PlanMemo:
    """Solve plans, bus tables and block results of one scope.

    While a memo is entered (``with memo:``), :func:`run_power_flow` looks
    its plans up here and compiles each only once; a solve outside every
    ``with`` block gets a memo of its own. Plans are kept per
    :attr:`~gridforge.grid_model.Grid.structure_key`, keyed by the open
    switches of the solved state and the excluded lines; bus tables per
    structure and scenario, each with the results of the blocks solved in
    that scenario.
    """

    __slots__ = ("structures", "_grid", "_entry", "_outer")

    def __init__(self) -> None:
        self.structures: dict[tuple, tuple[dict, dict]] = {}
        self._grid: Grid | None = None
        self._entry: tuple = ()
        self._outer: PlanMemo | None = None

    def of(self, grid: Grid) -> tuple[dict[tuple, tuple[_Component, ...]],
                                      dict[Scenario, _Table],
                                      tuple[tuple[str, ...], tuple[float, ...]]]:
        """The plans and the bus tables of the grid's structure, and the
        grid's cable type and length per line. A report solves one grid
        several times, so the last grid's are kept at hand."""
        if grid is not self._grid:
            self._grid = grid
            lines = grid.lines
            self._entry = (*self.structures.setdefault(grid.structure_key, ({}, {})),
                           (tuple([l.line_type for l in lines]),
                            tuple([l.length for l in lines])))
        return self._entry

    def __enter__(self) -> "PlanMemo":
        global _memo
        self._outer, _memo = _memo, self
        return self

    def __exit__(self, *exc) -> None:
        global _memo
        _memo, self._outer = self._outer, None


_memo: PlanMemo | None = None  # the memo entered last, if any


def _scope() -> PlanMemo | nullcontext:
    """A fresh memo to enter around several solves, unless one is entered."""
    return PlanMemo() if _memo is None else nullcontext()


def _compile(grid: Grid, state: dict[str, bool],
             exclude_lines: frozenset[str]) -> tuple[_Component, ...]:
    """The solve plan of one switch state: every line-coupled component
    that holds an energized transformer busbar, in the order of its lowest
    bus id, cut into blocks at its busbars. One flood finds both: from the
    energized busbars over conducting lines, where each line leaving a
    busbar that no block holds yet starts a block, and the block floods
    over its PQ buses and stops at the busbars it reaches."""
    energized = _energized(grid, state, exclude_lines)
    slack = {t.lv_bus for t in grid.transformers if t.lv_bus in energized}
    closed = state.__getitem__
    switch_ids = grid.switch_ids_by_line
    live = {line.id for line in grid.lines
            if line.in_service and line.id not in exclude_lines
            and all(map(closed, switch_ids.get(line.id, ())))}
    lines_at = grid.lines_at_bus
    comps: list[tuple[list[str], list[list[int]]]] = []  # buses, and lines per block
    owner: dict[str, int] = {}  # bus -> number of its component
    block_of: dict[str, tuple[int, int]] = {}  # line -> (component, block)
    for root in slack:
        if root in owner:
            continue
        k = len(comps)
        buses: list[str] = []
        blocks: list[list[int]] = []
        comps.append((buses, blocks))
        busbars = [root]
        while busbars:
            bar = busbars.pop()
            if bar in owner:
                continue
            owner[bar] = k
            buses.append(bar)
            # checked one by one: a block flooded from an earlier line may
            # come back to this busbar over a later one
            for first in lines_at.get(bar, ()):
                if first.id not in live or first.id in block_of:
                    continue
                here = block_of[first.id] = (k, len(blocks))
                blocks.append([])
                reached = [first.to_bus if first.from_bus == bar else first.from_bus]
                while reached:
                    bus = reached.pop()
                    if bus in slack:
                        busbars.append(bus)
                    elif bus not in owner:
                        owner[bus] = k
                        buses.append(bus)
                        for line in lines_at.get(bus, ()):
                            if line.id in live and line.id not in block_of:
                                block_of[line.id] = here
                                reached.append(line.to_bus if line.from_bus == bus
                                               else line.from_bus)

    for pos, line in enumerate(grid.lines):
        at = block_of.get(line.id)
        if at is not None:
            comps[at[0]][1][at[1]].append(pos)
    bus_pos = {b.id: i for i, b in enumerate(grid.buses)}

    plan = []
    for buses, blocks in sorted(comps, key=lambda c: min(c[0])):
        buses.sort()
        index = {bus: i for i, bus in enumerate(buses)}
        blocks.sort()  # by first line position: a block's lines are in line order
        parts = []
        for positions in blocks:
            lines = [grid.lines[p] for p in positions]
            own = sorted({l.from_bus for l in lines} | {l.to_bus for l in lines})
            local = {bus: i for i, bus in enumerate(own)}
            parts.append(_Block(
                bus_pos=tuple([bus_pos[b] for b in own]),
                slack=tuple([i for i, b in enumerate(own) if b in slack]),
                pq=tuple([i for i, b in enumerate(own) if b not in slack]),
                ends=(tuple([local[l.from_bus] for l in lines]),
                      tuple([local[l.to_bus] for l in lines])),
                at=np.array([index[b] for b in own if b not in slack], dtype=int),
                key=tuple(positions),
                pick=itemgetter(*positions)))
        flat = [p for positions in blocks for p in positions]
        order = sorted(range(len(flat)), key=flat.__getitem__)
        plan.append(_Component(
            bus_pos=np.array([bus_pos[b] for b in buses]),
            bus_ids=tuple(buses),
            line_ids=tuple([grid.lines[flat[i]].id for i in order]),
            line_order=tuple(order),
            blocks=tuple(parts)))
    return tuple(plan)


def _bus_table(grid: Grid, scenario: Scenario) -> _Table:
    """The :class:`_Table` of the grid's structure in one scenario, with no
    block solved yet."""
    inj = apply_scenario(grid, scenario)
    p, q = inj.p_mw, inj.q_mvar
    sbus = np.array([complex(-p.get(b.id, 0.0), -q.get(b.id, 0.0)) / S_BASE_MVA
                     for b in grid.buses], dtype=complex)
    vm = np.ones(len(grid.buses))
    pos = {b.id: i for i, b in enumerate(grid.buses)}
    for t in grid.transformers:
        if t.lv_bus in pos:
            vm[pos[t.lv_bus]] = inj.setpoints[t.id]
    return _Table(sbus, vm, {})


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


def _solve_block(grid: Grid, block: _Block, table: _Table) -> _BlockResult:
    """Newton on one block with the grid's cable types."""
    types = grid.line_types_by_name
    vn = grid.buses[block.bus_pos[0]].vn
    z_base = vn * vn / S_BASE_MVA
    f, t = block.ends
    lines = [grid.lines[p] for p in block.key]
    admittances = []
    for line in lines:
        lt = types[line.line_type]
        z = complex(lt.r_per_km, lt.x_per_km) * line.length / z_base
        if z == 0:
            raise ValueError(f"line {line.id} has zero impedance")
        admittances.append(1.0 / z)
    n = len(block.bus_pos)
    ybus = _ybus(n, np.array(f, dtype=np.intp), np.array(t, dtype=np.intp),
                 np.array(admittances, dtype=complex))
    bus_pos, pq = np.array(block.bus_pos), np.array(block.pq, dtype=int)

    vm, va, its, ok = _newton(ybus, table.sbus[bus_pos], table.vm[bus_pos], np.zeros(n), pq)
    if not ok:
        return _BlockResult(its, False, vm[pq], va[pq], [], 0j)
    v = vm * np.exp(1j * va)
    i_inj = ybus @ v
    slack = np.array(block.slack, dtype=int)
    s_slack = (v[slack] * np.conj(i_inj[slack])).sum()
    i_base_ka = S_BASE_MVA / (math.sqrt(3.0) * vn)
    loading = []
    for line, fi, ti, y in zip(lines, f, t, admittances):
        i_ka = abs((v[fi] - v[ti]) * y) * i_base_ka
        loading.append(100.0 * i_ka / types[line.line_type].i_max)
    return _BlockResult(its, True, vm[pq], va[pq], loading, s_slack)


def _solve(grid: Grid, plan: tuple[_Component, ...], table: _Table,
           cables: tuple[tuple[str, ...], tuple[float, ...]]) -> PfResult:
    """Each block of ``plan`` solved, or taken from ``table`` when a block
    with the same lines, cable types and lengths was solved before; then
    merged per component. A component with a block that did not converge
    is left out."""
    types, lengths = cables
    memo = table.blocks
    vm_out: dict[str, float] = {}
    va_out: dict[str, float] = {}
    loading: dict[str, float] = {}
    p_slack = q_slack = 0.0
    iterations = 0
    converged = True

    for comp in plan:
        results = []
        for block in comp.blocks:
            key = (block.key, block.pick(types), block.pick(lengths))
            result = memo.get(key)
            if result is None:
                result = memo[key] = _solve_block(grid, block, table)
            iterations = max(iterations, result.iterations)
            results.append(result)
        if not all(r.converged for r in results):
            converged = False
            continue

        vm = table.vm[comp.bus_pos]
        va = np.zeros(len(vm))
        flows: list[float] = []
        for block, result in zip(comp.blocks, results):
            vm[block.at] = result.vm
            va[block.at] = result.va
            flows += result.loading
            p_slack += result.s_slack.real * S_BASE_MVA
            q_slack += result.s_slack.imag * S_BASE_MVA
        vm_out.update(zip(comp.bus_ids, vm.tolist()))
        va_out.update(zip(comp.bus_ids, va.tolist()))
        loading.update(zip(comp.line_ids, [flows[i] for i in comp.line_order]))

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

    The solve plan and the block results are taken from the entered
    :class:`PlanMemo`, or from a memo of this call alone; the result is
    the same either way.
    """
    exclude_lines = frozenset(exclude_lines)
    plans, tables, cables = (_memo if _memo is not None else PlanMemo()).of(grid)
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
    return _solve(grid, plan, table, cables)


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
    with _scope():  # the scenarios share the plan
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
    with _scope():  # the cases share the blocks a fault leaves unchanged
        for case in cases:
            failed = case.failed_line
            result = run_power_flow(grid, peak_load, case.resulting_state,
                                    exclude_lines=frozenset((failed,)))
            entries.extend(_band_violations(grid, result, peak_load, failed))
            for bus_id in case.unsupplied:
                if grid.buses_by_id[bus_id].requires_contingency_supply:
                    entries.append(Violation("unsupplied", bus_id, 1.0, peak_load.name, failed))
    return ViolationReport(tuple(entries))
