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
restored states. The cases read only the grid structure and the open
switches, so the check keeps them in the entered :class:`PlanMemo` under
that key, and candidates that differ only in cable types share them; every
solve still goes through :func:`run_power_flow`. A case differs from the
normal state only on the failed line and the lines of the switches its
sequence moved, so its plan is derived from the plan of the normal state
(:func:`_derive`), not compiled: the blocks those lines touch are cut again
from their busbars and every other block is reused.

The power flow takes only grids where every transformer's LV bus is a bus
of the grid and an external source sits on its HV bus
(:func:`~gridforge.grid_model.hv_side_sourced`, the rule behind
``validate_grid``'s ``unsourced_hv_side``), checked once per structure, and
raises ``ValueError`` on any other. Transformers always
conduct, so every transformer busbar is then energized whatever the
switches and excluded lines: every busbar is a slack bus of every plan, a
compile floods nothing, and every N-1 case's plan is derived. On the
``large_checks`` areas of perfbench (seed 7) each case's plan holds one
block that the base plan, of 18-39 blocks, does not.

:func:`run_power_flow` compiles a solve plan, then solves it. The plan holds
what cable choices do not change, as indices: per line-coupled
component its buses, slack busbars and lines, and per block the positions
of its buses in ``grid.buses`` (sorted by id), its slack and PQ indices,
and the position and end indices of its lines in ``grid.lines`` order. The
solve step reads the cable types, computes the admittances, assembles
Ybus and runs Newton per block. Its :class:`PfResult` holds the block
results of the converged components and merges them into the ``vm``,
``va`` and ``loading`` dicts, through grid-wide bus and line positions,
only when one of those is first read; so a block holds nothing of the
component it is part of.

A :class:`PlanMemo` keeps the plans per grid structure
(:attr:`~gridforge.grid_model.Grid.structure_key`), keyed by the open
switches and the excluded lines, and the N-1 cases per structure and open
switches. The bus injections and the block results are kept per scenario
and per the inputs that fix them: the buses, transformers, sources,
injections and line types. A block result is keyed by what it is computed
from: the id and ends, cable type and length of each of the block's lines,
in line order, each such line numbered once per those inputs, so the key
is ints. So every structure with those inputs shares it, and a candidate,
a new search or an N-1 case that changes one feeder solves only that
feeder again. The reports of both checks are kept per structure, keyed by
the scenarios (the peak load for the N-1 check), the open switches and
the line numbers, which stand for the cable types and the lengths: all
that a check reads of the grid besides its structure. Remote-control flags
are not in the key; they reach only the FMEA and the labels of the
resupply actions. A memo made while another is entered shares the other's
block results and reports; one made with none entered shares them with no
other memo.

Plans and N-1 cases live for one planning task: ``pipeline._run_task``
enters a memo of its own around phases 1-3 and the task's closed-ring plan.
Block results and reports live for one ``pipeline.run_area`` call: each
task's memo is made inside the one ``run_area`` enters and shares them (in
a ``--jobs`` worker too under fork; under spawn the task's memo stands
alone). So a grid state that an earlier search or task checked is not
checked again: on the example area one ``run_area`` call runs 1,616 block
Newtons for its 9,289 load flows and computes the N-1 cases 345 times.
:func:`check_normal_operation`, :func:`check_contingency_operation` and the
planner's phases 2 and 4 enter a memo of their own when none is entered,
and a lone solve gets a memo of its own. Every way gives the same
result to the last bit, and the same as building every block per call in
plain loops: Ybus sums each entry's terms in line order, admittances and
loadings are scalar Python expressions per line (a vectorized ``np.abs``
differs in the last bit), and a bus without injection gets
``complex(-0.0, -0.0) / S_BASE_MVA``.

Both checks read the switch states stored in the grid, and every solve
they run is a call of the module attribute :func:`run_power_flow`, so a
profiler that replaces it sees each one: the normal check calls
``run_power_flow(grid, scenario)`` once per scenario, with no switch state
and no excluded line, and each N-1 case passes the case's
``resulting_state`` and ``frozenset((failed_line,))``. The
``large_checks`` workload of perfbench counts a solve as normal by exactly
that, and reads the results after the checks, which is when they merge. A
report built without :func:`run_power_flow` would hide its solves.

A check never merges a result. It builds each solve's entries from
verdicts: each block result keeps, per band ``(v_min, v_max,
loading_max)`` asked for, its PQ buses out of the band and its overloaded
lines, sorted by id, computed on the first request. The entries of a solve
are a ``nonconvergence`` entry if a component was left out, then the
buses of the converged components out of the band (the busbars judged at
their setpoint, once each, a busbar without lines too), then the
overloaded lines, each group sorted by id; a station outside every
converged component is unsupplied. That is, entry for entry and bit for
bit, what judging every bus and line of the merged result in sorted order
gives. On the example area one ``run_area`` call reads verdicts 58,667
times from its 1,616 block results.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Container, Iterable, NamedTuple, Sequence

import numpy as np

from gridforge.grid_model import Grid, Line, Scenario, apply_scenario, hv_side_sourced
from gridforge.topology import (
    SwitchingSequence,
    _conducts,
    _energized,
    _resupply,
    _state_map,
    find_feeders,
)

S_BASE_MVA = 1.0
TOLERANCE = 1e-8  # pu mismatch, infinity norm
MAX_ITERATIONS = 30


class PfResult:
    """One load flow: whether every component converged, the largest
    Newton iteration count of any block, per solved bus the voltage
    magnitude ``vm`` (pu) and angle ``va`` (rad), per solved line the
    ``loading`` (percent of i_max), and the power drawn from the slack
    busbars. Results are equal when these seven values are.

    A result of :func:`run_power_flow` holds its block results and merges
    ``vm``, ``va`` and ``loading`` into dicts when one of them is first
    read; the checks read the blocks' verdicts instead."""

    __slots__ = ("converged", "iterations", "p_slack_mw", "q_slack_mvar", "_merged", "_parts")

    def __init__(self, converged: bool, iterations: int, vm: dict[str, float],
                 va: dict[str, float], loading: dict[str, float], p_slack_mw: float,
                 q_slack_mvar: float) -> None:
        self.converged = converged
        self.iterations = iterations
        self.p_slack_mw = p_slack_mw
        self.q_slack_mvar = q_slack_mvar
        self._merged: tuple[dict[str, float], dict[str, float], dict[str, float]] | None = (
            vm, va, loading)
        # the start voltages of the bus table, and per converged component
        # its block results; None for a result built from its values
        self._parts: tuple[np.ndarray, list[tuple[_Component, list[_BlockResult]]]] | None = None

    @classmethod
    def _of_blocks(cls, converged: bool, iterations: int, p_slack_mw: float,
                   q_slack_mvar: float, table_vm: np.ndarray,
                   parts: list[tuple[_Component, list[_BlockResult]]]) -> "PfResult":
        result = cls(converged, iterations, {}, {}, {}, p_slack_mw, q_slack_mvar)
        result._merged, result._parts = None, (table_vm, parts)
        return result

    @property
    def vm(self) -> dict[str, float]:
        return (self._merged or self._merge())[0]

    @property
    def va(self) -> dict[str, float]:
        return (self._merged or self._merge())[1]

    @property
    def loading(self) -> dict[str, float]:
        return (self._merged or self._merge())[2]

    def _merge(self) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
        """The block results merged per component, through grid-wide bus
        and line positions: busbars keep the setpoint and angle 0."""
        table_vm, parts = self._parts
        vm_out: dict[str, float] = {}
        va_out: dict[str, float] = {}
        loading: dict[str, float] = {}
        vm = table_vm.copy()
        va = np.zeros(len(vm))
        flows: dict[int, float] = {}
        for comp, results in parts:
            for block, result in zip(comp.blocks, results):
                vm[block.pq_pos] = result.vm
                va[block.pq_pos] = result.va
                flows.update(zip(block.key, result.loading))
            vm_out.update(zip(comp.bus_ids, vm[comp.bus_pos].tolist()))
            va_out.update(zip(comp.bus_ids, va[comp.bus_pos].tolist()))
            loading.update(zip(comp.line_ids, map(flows.__getitem__, comp.line_pos)))
        self._merged = (vm_out, va_out, loading)
        return self._merged

    def _values(self) -> tuple:
        return (self.converged, self.iterations, self.vm, self.va, self.loading,
                self.p_slack_mw, self.q_slack_mvar)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PfResult):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        names = ("converged", "iterations", "vm", "va", "loading", "p_slack_mw", "q_slack_mvar")
        return "PfResult(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, self._values())) + ")"


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


def _mismatch(v: np.ndarray, i: np.ndarray, sbus: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """Stacked real/imag power mismatch at the PQ buses (pu) of the bus
    voltages ``v`` and the injected currents ``i = Ybus v``."""
    mis = v * np.conj(i) - sbus
    return np.concatenate([mis[pq].real, mis[pq].imag])


def _jacobian(y: np.ndarray, v: np.ndarray, i: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """Jacobian of :func:`_mismatch` w.r.t. [va[pq], vm[pq]] from the PQ
    block ``y`` of Ybus, the bus voltages ``v`` and the injected currents
    ``i = Ybus v``.

    The diagonal-matrix products of the textbook form are written as row
    and column scalings plus one diagonal add, so building it is O(n²).
    """
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
    buses are ``bus_ids``, sorted, at ``grid.buses[bus_pos]``, and its lines
    ``grid.lines[key]``, in line order; ``slack``, ``pq`` and ``ends`` index
    into its buses. A block reads nothing of its component, so a derived
    plan reuses it as it is. Index arrays are made only when it is solved."""

    bus_ids: tuple[str, ...]
    bus_pos: tuple[int, ...]
    slack: tuple[int, ...]
    pq: tuple[int, ...]
    ends: tuple[tuple[int, ...], tuple[int, ...]]  # from-bus and to-bus per line
    pq_pos: np.ndarray  # positions of the PQ buses in grid.buses
    key: tuple[int, ...]  # the line positions, which name the block in its structure
    pick: itemgetter  # this block's entries of a per-line tuple


class _Component(NamedTuple):
    """One line-coupled component of a solve plan: its buses
    (``grid.buses[bus_pos]``, sorted by id), the slack busbars among them,
    its lines (``grid.lines[line_pos]``, in line order) and its blocks in
    the order of their first line."""

    bus_pos: np.ndarray
    bus_ids: tuple[str, ...]
    bars: tuple[tuple[str, int], ...]  # id and position of each slack busbar, by id
    line_ids: tuple[str, ...]
    line_pos: tuple[int, ...]
    blocks: tuple[_Block, ...]


class _BlockResult(NamedTuple):
    iterations: int
    converged: bool
    vm: np.ndarray  # at the block's PQ buses
    va: np.ndarray
    loading: list[float]  # per line of the block
    s_slack: complex  # pu, into the block from its slack busbars
    pq_ids: tuple[str, ...]  # the block's PQ buses, sorted
    line_ids: tuple[str, ...]  # the block's lines, in line order
    bands: dict[tuple[float, float, float], tuple[list, list]]  # see verdicts

    def verdicts(self, band: tuple[float, float, float]
                 ) -> tuple[list[tuple[str, str, float]], list[tuple[str, float]]]:
        """The block's band verdicts for ``band = (v_min, v_max,
        loading_max)``: its PQ buses out of the band as ``(bus, kind,
        magnitude)`` and its overloaded lines as ``(line, magnitude)``, each
        sorted by id, with the magnitudes :func:`check_normal_operation`
        reports. Computed on the first request per band."""
        found = self.bands.get(band)
        if found is None:
            v_min, v_max, loading_max = band
            buses: list[tuple[str, str, float]] = []
            for bus, vm in zip(self.pq_ids, self.vm.tolist()):
                if vm < v_min:
                    buses.append((bus, "undervoltage", v_min - vm))
                elif vm > v_max:
                    buses.append((bus, "overvoltage", vm - v_max))
            lines = sorted([(line, pct - loading_max)
                            for line, pct in zip(self.line_ids, self.loading)
                            if pct > loading_max])
            found = self.bands[band] = (buses, lines)
        return found


class _Table(NamedTuple):
    """Per bus of ``grid.buses``, for one scenario and the structures that
    share their buses, transformers, sources, injections and line types:
    the injected power (pu, generation positive) and the start voltage
    magnitude (the setpoint at transformer busbars, 1 elsewhere); and the
    block results solved so far, keyed by the numbers of the block's lines
    (:meth:`PlanMemo.of`), in line order: one int for a block of one line."""

    sbus: np.ndarray
    vm: np.ndarray
    blocks: dict[int | tuple[int, ...], _BlockResult]


class _Structure(NamedTuple):
    """What a :class:`PlanMemo` keeps of one grid structure."""

    plans: dict[tuple, tuple[_Component, ...]]  # by open switches and excluded lines
    tables: dict[Scenario, _Table]  # shared with every structure of the same inputs
    numbers: dict[tuple, int]  # per line (id, ends, type, length); shared like tables
    cases: dict[tuple[str, ...], tuple[SwitchingSequence, ...]]  # by open switches
    ends: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]  # ids, from- and to-buses
    reports: dict[tuple, ViolationReport]  # shared with every memo that shares the tables


class PlanMemo:
    """Solve plans, bus tables, block results and reports of one scope.

    While a memo is entered (``with memo:``), :func:`run_power_flow` looks
    its plans up here and compiles each only once; a solve outside every
    ``with`` block gets a memo of its own. Plans are kept per
    :attr:`~gridforge.grid_model.Grid.structure_key`, keyed by the open
    switches of the solved state and the excluded lines, and the
    :func:`contingency_cases` of :func:`check_contingency_operation` per
    structure, keyed by the open switches. Bus tables, each with the
    results of the blocks solved in its scenario, are kept per scenario
    and per inputs (buses, transformers, sources, injections and line
    types), and shared by every structure with those inputs, as are the
    numbers of the lines that key the block results. The reports of
    :func:`check_normal_operation` and :func:`check_contingency_operation`
    are kept per structure, keyed by the scenarios, the open switches and
    the line numbers, which stand for the cable types and the lengths.
    Tables and reports are shared by the structures of this memo and,
    when the memo was made while another was entered, by those of the
    other memo and of every memo made inside it. A memo made with none
    entered shares them with no other memo. So in planning, plans and N-1
    cases live for one planning task (its memo), and block results and
    reports for one ``run_area`` call (the memo the tasks' memos are made
    in). A structure is taken in only when every transformer's LV bus is a
    bus of the grid and its HV bus holds an external source.
    """

    __slots__ = ("structures", "_tables", "_reports", "_grid", "_entry", "_outer")

    def __init__(self) -> None:
        self.structures: dict[tuple, _Structure] = {}
        self._tables: dict[tuple, tuple[dict[Scenario, _Table], dict[tuple, int]]] = (
            {} if _memo is None else _memo._tables)
        self._reports: dict[tuple, dict[tuple, ViolationReport]] = (
            {} if _memo is None else _memo._reports)
        self._grid: Grid | None = None
        self._entry: tuple = ()
        self._outer: PlanMemo | None = None

    def of(self, grid: Grid) -> tuple[_Structure, tuple[int, ...]]:
        """What the memo keeps of the grid's structure, and the number of
        each line: one int per distinct id, ends, cable type and length,
        counted per shared-tables entry, so a block result is keyed by
        ints. A report solves one grid several times, so the last grid's
        are kept at hand.

        Raises:
            ValueError: a transformer of a new structure has an LV bus that
                is not a bus of the grid, or no external source at its HV
                bus.
        """
        if grid is not self._grid:
            key = grid.structure_key
            structure = self.structures.get(key)
            if structure is None:
                for t in grid.transformers:
                    if t.lv_bus not in grid.buses_by_id:
                        raise ValueError(f"transformer {t.id!r} has an LV bus {t.lv_bus!r} "
                                         f"that is not a bus of the grid")
                    if not hv_side_sourced(grid, t):
                        raise ValueError(f"transformer {t.id!r} has no external source "
                                         f"at its HV bus {t.hv_bus!r}")
                # key[8:] is the buses, transformers, sources, injections and line types
                tables, numbers = self._tables.setdefault(key[8:], ({}, {}))
                structure = self.structures[key] = _Structure(
                    {}, tables, numbers, {}, key[:3], self._reports.setdefault(key, {}))
            lines = grid.lines
            number = structure.numbers
            self._grid = grid
            self._entry = (structure, tuple([
                number.setdefault(line, len(number)) for line in zip(
                    *structure.ends, [l.line_type for l in lines], [l.length for l in lines])]))
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


def _open_switches(grid: Grid, switch_state: dict[str, bool] | None) -> tuple[str, ...]:
    """The open switches in grid order: one order for every grid of a structure."""
    closed = (switch_state or {}).get
    return tuple([s.id for s in grid.switches if not closed(s.id, s.closed)])


def _block(grid: Grid, key: list[int], slack: Container[str]) -> _Block:
    """The block of the lines at positions ``key``."""
    key.sort()
    lines = [grid.lines[p] for p in key]
    own = sorted({l.from_bus for l in lines} | {l.to_bus for l in lines})
    local = {bus: i for i, bus in enumerate(own)}
    where = grid.bus_positions
    bus_pos = tuple([where[b] for b in own])
    pq = tuple([i for i, b in enumerate(own) if b not in slack])
    return _Block(
        bus_ids=tuple(own),
        bus_pos=bus_pos,
        slack=tuple([i for i, b in enumerate(own) if b in slack]),
        pq=pq,
        ends=(tuple([local[l.from_bus] for l in lines]),
              tuple([local[l.to_bus] for l in lines])),
        pq_pos=np.array([bus_pos[i] for i in pq], dtype=np.intp),
        key=tuple(key),
        pick=itemgetter(*key))


def _cut(grid: Grid, bars: Iterable[str], slack: Container[str],
         conducts: Callable[[Line], bool], taken: set[int]) -> list[_Block]:
    """The blocks that start at the busbars ``bars``: each conducting line
    that leaves one of them and is not ``taken`` yet (by line position)
    starts a block, which floods over its PQ buses and stops at the
    busbars of ``slack`` it reaches."""
    lines_at = grid.lines_at_bus
    where = grid.line_positions
    blocks = []
    for bar in bars:
        for first in lines_at.get(bar, ()):
            pos = where[first.id]
            if pos in taken or not conducts(first):
                continue
            taken.add(pos)
            key = [pos]
            owned: set[str] = set()
            reached = [first.to_bus if first.from_bus == bar else first.from_bus]
            while reached:
                bus = reached.pop()
                if bus in slack or bus in owned:
                    continue
                owned.add(bus)
                for line in lines_at.get(bus, ()):
                    pos = where[line.id]
                    if pos not in taken and conducts(line):
                        taken.add(pos)
                        key.append(pos)
                        reached.append(line.to_bus if line.from_bus == bus else line.from_bus)
            blocks.append(_block(grid, key, slack))
    return blocks


def _assemble(grid: Grid, bars: Iterable[str], blocks: Iterable[_Block],
              kept: Iterable[_Component] = ()) -> tuple[_Component, ...]:
    """The plan of the components ``kept`` and of those ``blocks`` form:
    blocks that share a busbar are one component, and a busbar of ``bars``
    that no block touches is one alone. Every block touches a busbar of
    ``bars``. The components are in the order of their lowest bus id."""
    at_bar: dict[str, list[_Block]] = {}
    for block in blocks:
        for i in block.slack:
            at_bar.setdefault(block.bus_ids[i], []).append(block)
    where, lines, slack = grid.bus_positions, grid.lines, grid.slack_buses
    plan = list(kept)
    seen: set[str] = set()
    for root in bars:
        if root in seen:
            continue
        seen.add(root)
        buses = {root}
        parts: dict[tuple[int, ...], _Block] = {}
        stack = [root]
        while stack:
            for block in at_bar.get(stack.pop(), ()):
                if block.key in parts:
                    continue
                parts[block.key] = block
                buses.update(block.bus_ids)
                for i in block.slack:
                    bar = block.bus_ids[i]
                    if bar not in seen:
                        seen.add(bar)
                        stack.append(bar)
        ids = sorted(buses)
        line_pos = sorted([p for key in parts for p in key])
        plan.append(_Component(
            bus_pos=np.array([where[b] for b in ids]),
            bus_ids=tuple(ids),
            bars=tuple([(b, where[b]) for b in ids if b in slack]),
            line_ids=tuple([lines[p].id for p in line_pos]),
            line_pos=tuple(line_pos),
            blocks=tuple([parts[key] for key in sorted(parts)])))
    plan.sort(key=lambda comp: comp.bus_ids[0])
    return tuple(plan)


def _compile(grid: Grid, state: dict[str, bool],
             exclude_lines: frozenset[str]) -> tuple[_Component, ...]:
    """The solve plan of one switch state: every line-coupled component
    that holds a transformer busbar, in the order of its lowest bus id, cut
    into blocks at its busbars. Every busbar is energized, fed from the
    source at its transformer's HV side, so no flood is needed."""
    slack = grid.slack_buses
    return _assemble(grid, slack, _cut(grid, slack, slack,
                                       _conducts(grid, state, exclude_lines), set()))


def _derive(grid: Grid, base: tuple[_Component, ...], changed: Iterable[str],
            state: dict[str, bool], exclude_lines: frozenset[str]
            ) -> tuple[_Component, ...]:
    """The plan of ``state`` without ``exclude_lines``, equal to its
    :func:`_compile`, taken from the plan ``base`` of a state that differs
    from it only on the lines ``changed``. Holds because every busbar is
    energized in every state, so both states cut at the same busbars.

    A component where no changed line ends is kept as it is. In the others,
    a block is kept when it holds no changed line and no changed line ends
    at one of its PQ buses: its lines conduct as before and no other line
    joins it. The rest of those components is cut again from their
    busbars, and their blocks are grouped again: a case can join two
    components or split one."""
    lines, where, slack = grid.lines_by_id, grid.line_positions, grid.slack_buses
    positions: set[int] = set()
    ends: set[str] = set()
    for line_id in changed:
        line = lines[line_id]
        positions.add(where[line_id])
        ends.update((line.from_bus, line.to_bus))
    at_pq = ends - slack
    kept: list[_Component] = []
    bars: list[str] = []
    blocks: list[_Block] = []
    for comp in base:
        if ends.isdisjoint(comp.bus_ids):
            kept.append(comp)
            continue
        bars += [bus for bus in comp.bus_ids if bus in slack]
        blocks += [b for b in comp.blocks
                   if positions.isdisjoint(b.key) and at_pq.isdisjoint(b.bus_ids)]
    taken = {p for block in blocks for p in block.key}
    blocks += _cut(grid, bars, slack, _conducts(grid, state, exclude_lines), taken)
    return _assemble(grid, bars, blocks, kept)


def _bus_table(grid: Grid, scenario: Scenario) -> _Table:
    """The :class:`_Table` of the grid's structure in one scenario, with no
    block solved yet."""
    inj = apply_scenario(grid, scenario)
    p, q = inj.p_mw, inj.q_mvar
    sbus = np.array([complex(-p.get(b.id, 0.0), -q.get(b.id, 0.0)) / S_BASE_MVA
                     for b in grid.buses], dtype=complex)
    vm = np.ones(len(grid.buses))
    pos = grid.bus_positions
    for t in grid.transformers:
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
    pq_ids = tuple([block.bus_ids[i] for i in block.pq])
    line_ids = tuple([line.id for line in lines])
    if not ok:
        return _BlockResult(its, False, vm[pq], va[pq], [], 0j, pq_ids, line_ids, {})
    v = vm * np.exp(1j * va)
    i_inj = ybus @ v
    slack = np.array(block.slack, dtype=int)
    s_slack = (v[slack] * np.conj(i_inj[slack])).sum()
    i_base_ka = S_BASE_MVA / (math.sqrt(3.0) * vn)
    loading = []
    for line, fi, ti, y in zip(lines, f, t, admittances):
        i_ka = abs((v[fi] - v[ti]) * y) * i_base_ka
        loading.append(100.0 * i_ka / types[line.line_type].i_max)
    return _BlockResult(its, True, vm[pq], va[pq], loading, s_slack, pq_ids, line_ids, {})


def _solve(grid: Grid, plan: tuple[_Component, ...], table: _Table,
           numbers: tuple[int, ...]) -> PfResult:
    """Each block of ``plan`` solved, or taken from ``table`` when a block
    with the same line numbers (ids and ends, cable types and lengths) was
    solved before. A component with a block that did not converge is left
    out; the others are merged when the result is first read."""
    memo = table.blocks
    p_slack = q_slack = 0.0
    iterations = 0
    converged = True
    parts: list[tuple[_Component, list[_BlockResult]]] = []
    for comp in plan:
        results = []
        for block in comp.blocks:
            key = block.pick(numbers)
            result = memo.get(key)
            if result is None:
                result = memo[key] = _solve_block(grid, block, table)
            iterations = max(iterations, result.iterations)
            results.append(result)
        if not all(r.converged for r in results):
            converged = False
            continue
        for result in results:
            p_slack += result.s_slack.real * S_BASE_MVA
            q_slack += result.s_slack.imag * S_BASE_MVA
        parts.append((comp, results))
    return PfResult._of_blocks(converged, iterations, p_slack, q_slack, table.vm, parts)


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

    Raises:
        ValueError: a transformer has an LV bus that is not a bus of the
            grid or no external source at its HV bus (``validate_grid``
            reports them as ``dangling_bus`` and ``unsourced_hv_side``).
    """
    exclude_lines = frozenset(exclude_lines)
    structure, numbers = (_memo if _memo is not None else PlanMemo()).of(grid)
    plan = _plan(grid, structure.plans, switch_state, exclude_lines)
    table = structure.tables.get(scenario)
    if table is None:
        table = structure.tables[scenario] = _bus_table(grid, scenario)
    return _solve(grid, plan, table, numbers)


def _plan(grid: Grid, plans: dict[tuple, tuple[_Component, ...]],
          switch_state: dict[str, bool] | None,
          exclude_lines: frozenset[str]) -> tuple[_Component, ...]:
    """The solve plan of a state from ``plans``, compiled if not there."""
    key = (_open_switches(grid, switch_state), tuple(sorted(exclude_lines)))
    plan = plans.get(key)
    if plan is None:
        state = {**_state_map(grid), **(switch_state or {})}
        plan = plans[key] = _compile(grid, state, exclude_lines)
    return plan


def _band_entries(result: PfResult, band: tuple[float, float, float], scenario: str,
                  contingency: str | None) -> list[Violation]:
    """The band violations of a result of :func:`run_power_flow`, merged
    from the verdicts of its converged components' blocks: a
    ``nonconvergence`` entry if a component was left out, then the buses
    out of ``band = (v_min, v_max, loading_max)``, busbars at their
    setpoint, then the overloaded lines, each group sorted by id."""
    v_min, v_max, _ = band
    out: list[Violation] = []
    if not result.converged:
        out.append(Violation("nonconvergence", scenario, 1.0, scenario, contingency))
    table_vm, parts = result._parts
    buses: list[tuple[str, str, float]] = []
    lines: list[tuple[str, float]] = []
    for comp, results in parts:
        for bar, pos in comp.bars:
            vm = float(table_vm[pos])
            if vm < v_min:
                buses.append((bar, "undervoltage", v_min - vm))
            elif vm > v_max:
                buses.append((bar, "overvoltage", vm - v_max))
        for r in results:
            at_buses, at_lines = r.verdicts(band)
            buses += at_buses
            lines += at_lines
    buses.sort()
    lines.sort()
    out += [Violation(kind, bus, magnitude, scenario, contingency)
            for bus, kind, magnitude in buses]
    out += [Violation("overload", line, magnitude, scenario, contingency)
            for line, magnitude in lines]
    return out


def check_normal_operation(grid: Grid, scenarios: Iterable[Scenario]) -> ViolationReport:
    """Voltage band and loading limits for every scenario, normal state.

    Each scenario's entries are merged from the band verdicts of the
    solved blocks; a station outside every converged component is
    unsupplied. The report is kept in the entered :class:`PlanMemo` per
    :attr:`~gridforge.grid_model.Grid.structure_key`, scenarios, open
    switches, cable types and lengths, and a grid checked before in the
    memo gets it back without a load flow.

    Raises:
        ValueError: a transformer has an LV bus that is not a bus of the
            grid or no external source at its HV bus.
    """
    scenarios = tuple(scenarios)
    with _scope():  # the scenarios share the plan
        structure, numbers = _memo.of(grid)
        key = (scenarios, _open_switches(grid, None), numbers)
        report = structure.reports.get(key)
        if report is not None:
            return report
        entries: list[Violation] = []
        for scenario in scenarios:
            result = run_power_flow(grid, scenario)
            entries += _band_entries(
                result, (scenario.v_min, scenario.v_max, scenario.loading_max),
                scenario.name, None)
            supplied = {bus for comp, _ in result._parts[1] for bus in comp.bus_ids}
            for station in grid.stations():
                if station.id not in supplied:
                    entries.append(Violation("unsupplied", station.id, 1.0, scenario.name))
        report = structure.reports[key] = ViolationReport(tuple(entries))
    return report


def contingency_cases(grid: Grid) -> tuple[SwitchingSequence, ...]:
    """The topology half of the N-1 check: per feeder head, the failed line
    and the switching sequence that resupplies after its fault.

    The cases read the structure, the switch kinds and the switch states,
    never cable types; the remote-control flags only label how an action
    is actuated.
    """
    state = _state_map(grid)
    pre = _energized(grid, state)
    stations = {b.id for b in grid.stations()}
    return tuple(_resupply(grid, grid.lines_by_id[feeder.head_line], state, pre, stations)
                 for feeder in find_feeders(grid))


def check_contingency_operation(grid: Grid, scenarios: Sequence[Scenario]) -> ViolationReport:
    """N-1 check: fail each feeder-head line, resupply, verify the restored
    state under peak load against the widened contingency band.

    Only ``peak_load`` is evaluated — voltage support from generation gets
    no credit in contingency planning. Stations that stay dark are reported
    unless they are exempt (``requires_contingency_supply = False``).
    The :func:`contingency_cases` are kept in the entered :class:`PlanMemo`
    per :attr:`~gridforge.grid_model.Grid.structure_key` and open switches:
    the failed lines, restored states and unsupplied stations that the
    check reads of them depend on nothing else. When they are computed,
    the solve plan of each case is derived from the plan of the normal
    state and put into the memo, where :func:`run_power_flow` finds it.
    The report is kept in the memo per structure, ``peak_load`` scenario,
    open switches, cable types and lengths, and a grid checked before in
    the memo gets it back without a load flow.

    Raises:
        ValueError: no ``peak_load`` scenario, or a transformer has an LV
            bus that is not a bus of the grid or no external source at its
            HV bus.
    """
    peak_load = next((s for s in scenarios if s.name == "peak_load"), None)
    if peak_load is None:
        raise ValueError("contingency check needs a 'peak_load' scenario")
    with _scope():  # the cases share the blocks a fault leaves unchanged
        structure, numbers = _memo.of(grid)
        opened = _open_switches(grid, None)
        key = (peak_load, opened, numbers)  # a Scenario, never a tuple, leads
        report = structure.reports.get(key)
        if report is not None:
            return report
        cases = structure.cases.get(opened)
        if cases is None:
            cases = structure.cases[opened] = contingency_cases(grid)
            _derive_case_plans(grid, structure.plans, opened, cases)
        band = (peak_load.v_min_cont, peak_load.v_max_cont, peak_load.loading_max)
        entries: list[Violation] = []
        for case in cases:
            failed = case.failed_line
            result = run_power_flow(grid, peak_load, case.resulting_state,
                                    exclude_lines=frozenset((failed,)))
            entries += _band_entries(result, band, peak_load.name, failed)
            for bus_id in case.unsupplied:
                if grid.buses_by_id[bus_id].requires_contingency_supply:
                    entries.append(Violation("unsupplied", bus_id, 1.0, peak_load.name, failed))
        report = structure.reports[key] = ViolationReport(tuple(entries))
    return report


def _derive_case_plans(grid: Grid, plans: dict[tuple, tuple[_Component, ...]],
                       opened: tuple[str, ...], cases: Iterable[SwitchingSequence]) -> None:
    """Put the solve plan of each N-1 case into ``plans``, derived from the
    base plan (the grid's own switch states, whose open switches are
    ``opened``, no line excluded). A case changes the failed line and the
    lines of the switches its sequence leaves in another state than before
    the fault; its open switches are ``opened`` with those switches moved,
    in grid order."""
    base = _plan(grid, plans, None, frozenset())
    before = _state_map(grid)
    line_of = grid.switches_by_id
    order = {s.id: i for i, s in enumerate(grid.switches)}
    for case in cases:
        after, failed = case.resulting_state, case.failed_line
        moved = [a.switch for a in case.actions if after[a.switch] != before[a.switch]]
        now_open = set(opened).symmetric_difference(moved)
        key = (tuple(sorted(now_open, key=order.__getitem__)), (failed,))
        if key not in plans:
            changed = [failed, *(line_of[sid].line for sid in moved)]
            plans[key] = _derive(grid, base, changed, after, frozenset((failed,)))
