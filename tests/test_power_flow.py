"""Power flow: solver correctness against independent oracles, plus the
operational checks built on top of it.

The oracles live at the top of the file and share nothing with the Newton
implementation: a closed-form two-bus solution and a Z-bus fixed-point
iteration that only needs a linear solve per sweep.
"""

import math
import random
from dataclasses import replace
from operator import itemgetter

import numpy as np
import pytest

import gridforge.fixtures as fx
from gridforge import power_flow, topology
from gridforge.cli import main
from gridforge.fixtures import CABLE_150, CABLE_300, OVERHEAD_50, GridBuilder
from gridforge.grid_model import Scenario, Transformer, apply_scenario, save_grid, validate_grid
from gridforge.power_flow import (
    MAX_ITERATIONS,
    S_BASE_MVA,
    PfResult,
    PlanMemo,
    Violation,
    ViolationReport,
    check_contingency_operation,
    check_normal_operation,
    contingency_cases,
    run_power_flow,
)
from gridforge.planner import (
    Measure,
    _reinforcement_pool,
    _tie_points,
    apply_measures,
    phase2_reinforce,
    phase4_mesh,
)
from gridforge.principles import principles_from_dict
from gridforge.topology import _energized

from test_topology import with_switch_state

PEAK_LOAD = Scenario("peak_load", scale_load=1.0, scale_pv=0.0, scale_wind=0.0)


# --------------------------------------------------------------------------
# oracle 1: closed-form single-line voltage
#
# For a slack V1 feeding one load S = P + jQ (consumption positive, pu) over
# a series impedance R + jX, the squared receiving-end voltage u = |V2|**2
# solves u**2 + b*u + c = 0 with
#     b = 2 (P R + Q X) - V1**2
#     c = (P**2 + Q**2) (R**2 + X**2)
# and the physical (high-voltage) branch is u = (-b + sqrt(b^2 - 4c)) / 2.


def closed_form_two_bus(v1: float, p: float, q: float, r: float, x: float) -> float:
    b = 2.0 * (p * r + q * x) - v1 * v1
    c = (p * p + q * q) * (r * r + x * x)
    disc = b * b - 4.0 * c
    assert disc >= 0.0, "loading beyond maximum transferable power"
    return math.sqrt((-b + math.sqrt(disc)) / 2.0)


# --------------------------------------------------------------------------
# oracle 2: Z-bus fixed-point solver
#
# V_pq <- Ypp^-1 (conj(S_pq / V_pq) - Yps V_slack), iterated to stagnation.
# Builds its own admittance matrix straight from the grid data.


def fixed_point_solve(grid, scenario, *, tol=1e-12, max_sweeps=2000):
    """Voltage magnitude/angle per energized bus, independent of the package
    solver. Assumes every switch is closed and all lines are in service."""
    inj = apply_scenario(grid, scenario)
    setpoint = {t.lv_bus: inj.setpoints[t.id] for t in grid.transformers}

    adj = {}
    for line in grid.lines:
        adj.setdefault(line.from_bus, []).append(line)
        adj.setdefault(line.to_bus, []).append(line)

    # component discovery by plain set expansion from the slack busbars
    vm, va = {}, {}
    visited = set()
    for root in sorted(setpoint):
        if root in visited:
            continue
        comp = {root}
        frontier = [root]
        while frontier:
            bus = frontier.pop()
            for line in adj.get(bus, ()):
                for other in (line.from_bus, line.to_bus):
                    if other not in comp:
                        comp.add(other)
                        frontier.append(other)
        visited |= comp
        order = sorted(comp)
        index = {b: i for i, b in enumerate(order)}
        n = len(order)
        vn = grid.buses_by_id[root].vn
        z_base = vn * vn / S_BASE_MVA

        ybus = np.zeros((n, n), dtype=complex)
        for line in grid.lines:
            if line.from_bus not in index:
                continue
            lt = grid.line_types_by_name[line.line_type]
            y = 1.0 / (complex(lt.r_per_km, lt.x_per_km) * line.length / z_base)
            f, t = index[line.from_bus], index[line.to_bus]
            ybus[f, f] += y
            ybus[t, t] += y
            ybus[f, t] -= y
            ybus[t, f] -= y

        s = np.zeros(n, dtype=complex)
        for b, i in index.items():
            s[i] = complex(-inj.p_mw.get(b, 0.0), -inj.q_mvar.get(b, 0.0)) / S_BASE_MVA

        slack = np.array([i for i, b in enumerate(order) if b in setpoint])
        pq = np.array([i for i, b in enumerate(order) if b not in setpoint], dtype=int)
        v = np.ones(n, dtype=complex)
        v[slack] = [setpoint[order[i]] for i in slack]
        if pq.size:
            ypp = ybus[np.ix_(pq, pq)]
            yps = ybus[np.ix_(pq, slack)]
            for _ in range(max_sweeps):
                rhs = np.conj(s[pq] / v[pq]) - yps @ v[slack]
                new = np.linalg.solve(ypp, rhs)
                delta = np.max(np.abs(new - v[pq]))
                v[pq] = new
                if delta < tol:
                    break
            else:
                raise AssertionError("fixed point did not stagnate")
        for b, i in index.items():
            vm[b] = abs(v[i])
            va[b] = math.atan2(v[i].imag, v[i].real)
    return vm, va


def random_radial_grid(rng: random.Random, n_extra: int):
    """One infeed plus a random tree of stations, everything closed."""
    types = [CABLE_150, CABLE_300, OVERHEAD_50]
    b = GridBuilder(*types)
    b.infeed("hv", "mv", 0.0, 0.0)
    buses = ["mv"]
    for i in range(n_extra):
        parent = rng.choice(buses)
        bus = f"n{i}"
        b.bus(bus, "secondary_substation",
              rng.uniform(-4000, 4000), rng.uniform(-4000, 4000))
        b.line(f"e{i}", parent, bus, round(rng.uniform(0.2, 1.2), 3),
               rng.choice(types),
               breaker_at=("mv",) if parent == "mv" else ())
        if rng.random() < 0.8:
            b.load(bus, round(rng.uniform(0.05, 0.5), 3),
                   p_factor=round(rng.uniform(0.9, 1.0), 3))
        if rng.random() < 0.2:
            b.wind(bus, round(rng.uniform(0.1, 0.8), 3))
        buses.append(bus)
    return b.build()


# --------------------------------------------------------------------------
# solver vs oracles


def test_two_bus_matches_closed_form():
    grid = fx.two_bus_grid(length_km=5.0, sn_mva=4.0, p_factor=0.97)
    result = run_power_flow(grid, PEAK_LOAD)
    assert result.converged

    z_base = 20.0 ** 2 / S_BASE_MVA
    r = CABLE_150.r_per_km * 5.0 / z_base
    x = CABLE_150.x_per_km * 5.0 / z_base
    p = 4.0 * 0.97
    q = 4.0 * math.sqrt(1 - 0.97 ** 2)
    expected = closed_form_two_bus(1.0, p, q, r, x)
    assert result.vm["s1"] == pytest.approx(expected, abs=1e-6)
    assert result.vm["mv"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_random_radial_matches_fixed_point(seed):
    rng = random.Random(1000 + seed)
    grid = random_radial_grid(rng, rng.randint(5, 28))
    result = run_power_flow(grid, PEAK_LOAD)
    assert result.converged, f"seed {seed} did not converge"
    vm, va = fixed_point_solve(grid, PEAK_LOAD)
    assert set(result.vm) == {b for b in vm if grid.buses_by_id[b].vn < 100.0}
    for bus in result.vm:
        v_nr = result.vm[bus] * complex(math.cos(result.va[bus]), math.sin(result.va[bus]))
        v_fp = vm[bus] * complex(math.cos(va[bus]), math.sin(va[bus]))
        assert abs(v_nr - v_fp) <= 1e-6, f"{bus}: {v_nr} vs {v_fp}"


def test_oracle_suite_runtime_budget():
    # a work budget that machine speed cannot move: the Newton iterations
    # of the 10 solves (25 when written) and the fixed-point sweeps of each
    # oracle solve (at most 6 when written; more raise)
    iterations = 0
    for seed in range(10):
        rng = random.Random(1000 + seed)
        grid = random_radial_grid(rng, rng.randint(5, 28))
        iterations += run_power_flow(grid, PEAK_LOAD).iterations
        fixed_point_solve(grid, PEAK_LOAD, max_sweeps=6)
    assert iterations <= 25


def test_two_transformer_component_holds_both_setpoints():
    b = GridBuilder(CABLE_300)
    b.infeed("hv1", "mv1", 0.0, 0.0)
    b.infeed("hv2", "mv2", 6000.0, 0.0)
    b.bus("s1", "secondary_substation", 3000.0, 0.0)
    b.line("a", "mv1", "s1", 3.0, CABLE_300, breaker_at=("mv1",))
    b.line("b", "s1", "mv2", 3.0, CABLE_300, breaker_at=("mv2",))
    b.load("s1", 2.0)
    grid = b.build()
    grid = grid.replace(transformers=tuple(
        Transformer(t.id, t.hv_bus, t.lv_bus, t.sn,
                    {"peak_load": 1.0 if t.id == "hv1_mv1" else 1.02,
                     "peak_generation": 1.05})
        for t in grid.transformers))
    result = run_power_flow(grid, PEAK_LOAD)
    assert result.converged
    assert result.vm["mv1"] == pytest.approx(1.0)
    assert result.vm["mv2"] == pytest.approx(1.02)
    vm, _ = fixed_point_solve(grid, PEAK_LOAD)
    assert result.vm["s1"] == pytest.approx(vm["s1"], abs=1e-6)


def test_power_balance_at_the_slack():
    grid = fx.example_area()
    result = run_power_flow(grid, PEAK_LOAD)
    assert result.converged
    loads = sum(inj.sn * inj.p_factor for inj in grid.injections
                if inj.category == "load")
    # slack covers the loads plus strictly positive series losses
    assert result.p_slack_mw > loads
    assert result.p_slack_mw == pytest.approx(loads, rel=0.05)


# --------------------------------------------------------------------------
# Jacobian vs central finite differences


def random_state(rng: np.random.Generator):
    n = int(rng.integers(3, 9))
    ybus = np.zeros((n, n), dtype=complex)

    def add(i, j):
        y = 1.0 / complex(rng.uniform(0.001, 0.01), rng.uniform(0.002, 0.02))
        ybus[i, i] += y
        ybus[j, j] += y
        ybus[i, j] -= y
        ybus[j, i] -= y

    for i in range(1, n):
        add(i, int(rng.integers(0, i)))
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            add(int(i), int(j))

    vm = rng.uniform(0.9, 1.1, size=n)
    va = rng.uniform(-0.3, 0.3, size=n)
    sbus = rng.uniform(-2, 2, size=n) + 1j * rng.uniform(-1, 1, size=n)
    pq = np.arange(1, n)
    return ybus, vm, va, sbus, pq


def polar_mismatch(ybus, vm, va, sbus, pq):
    """The package's power mismatch at the PQ buses of a polar voltage state."""
    v = vm * np.exp(1j * va)
    return power_flow._mismatch(v, ybus @ v, sbus, pq)


def polar_jacobian(ybus, vm, va, pq):
    """The package's Jacobian of :func:`polar_mismatch` w.r.t. [va[pq], vm[pq]]."""
    v = vm * np.exp(1j * va)
    return power_flow._jacobian(ybus[np.ix_(pq, pq)], v, ybus @ v, pq)


def finite_difference_jacobian(ybus, vm, va, sbus, pq, h=1e-5):
    cols = []
    for kind, idx in [("va", i) for i in pq] + [("vm", i) for i in pq]:
        vm_p, va_p = vm.copy(), va.copy()
        vm_m, va_m = vm.copy(), va.copy()
        if kind == "va":
            va_p[idx] += h
            va_m[idx] -= h
        else:
            vm_p[idx] += h
            vm_m[idx] -= h
        f_p = polar_mismatch(ybus, vm_p, va_p, sbus, pq)
        f_m = polar_mismatch(ybus, vm_m, va_m, sbus, pq)
        cols.append((f_p - f_m) / (2.0 * h))
    return np.column_stack(cols)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(100):
        ybus, vm, va, sbus, pq = random_state(rng)
        analytic = polar_jacobian(ybus, vm, va, pq)
        numeric = finite_difference_jacobian(ybus, vm, va, sbus, pq)
        scale = max(1.0, np.linalg.norm(analytic))
        assert np.linalg.norm(analytic - numeric) / scale <= 1e-6


def textbook_jacobian(ybus, vm, va, pq):
    """dS/dV with diagonal-matrix products (MATPOWER's dSbus_dV), then the
    PQ rows and columns split into real and imaginary blocks."""
    v = vm * np.exp(1j * va)
    i = ybus @ v
    diag_v = np.diag(v)
    diag_vn = np.diag(v / np.abs(v))
    ds_dva = 1j * diag_v @ np.conj(np.diag(i) - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_vn) + np.conj(np.diag(i)) @ diag_vn
    sub = np.ix_(pq, pq)
    return np.block([[ds_dva[sub].real, ds_dvm[sub].real],
                     [ds_dva[sub].imag, ds_dvm[sub].imag]])


SLACK_PICKS = {
    "first": lambda n, rng: [0],
    "middle": lambda n, rng: [n // 2],
    "several": lambda n, rng: rng.choice(n, size=int(rng.integers(2, n)), replace=False),
    "all": lambda n, rng: range(n),
}


@pytest.mark.parametrize("seed, slacks", enumerate(SLACK_PICKS))
def test_jacobian_matches_the_textbook_formula(seed, slacks):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        ybus, vm, va, sbus, _ = random_state(rng)
        n = len(vm)
        slack = set(int(i) for i in SLACK_PICKS[slacks](n, rng))
        pq = np.array([i for i in range(n) if i not in slack], dtype=int)
        analytic = polar_jacobian(ybus, vm, va, pq)
        oracle = textbook_jacobian(ybus, vm, va, pq)
        assert analytic.shape == oracle.shape == (2 * len(pq), 2 * len(pq))
        assert np.linalg.norm(analytic - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_mismatch_is_zero_at_a_solution():
    grid = fx.two_bus_grid()
    result = run_power_flow(grid, PEAK_LOAD)
    # rebuild the component by hand and check the residual at the solution
    z_base = 400.0
    y = 1.0 / (complex(0.206, 0.116) * 5.0 / z_base)
    ybus = np.array([[y, -y], [-y, y]])
    vm = np.array([result.vm["mv"], result.vm["s1"]])
    va = np.array([result.va["mv"], result.va["s1"]])
    q = 4.0 * math.sqrt(1 - 0.97 ** 2)
    sbus = np.array([0.0, complex(-3.88, -q)])
    mis = polar_mismatch(ybus, vm, va, sbus, np.array([1]))
    assert np.max(np.abs(mis)) < 1e-7


# --------------------------------------------------------------------------
# result plumbing and operational checks


def test_unsolved_buses_are_left_out():
    grid = fx.open_ring_demo()
    state = {s.id: s.closed for s in grid.switches}
    state["f1@mv"] = False  # drop the first feeder completely
    result = run_power_flow(grid, PEAK_LOAD, state)
    for dark in ("s1", "s2", "s3"):
        assert dark not in result.vm
    assert "s5" in result.vm


def test_check_normal_operation_reports_unsupplied():
    grid = fx.open_ring_demo()
    state = {s.id: s.closed for s in grid.switches}
    state["f1@mv"] = False
    report = check_normal_operation(with_switch_state(grid, state), (PEAK_LOAD,))
    kinds = {(v.kind, v.element) for v in report.entries}
    assert {("unsupplied", "s1"), ("unsupplied", "s2"), ("unsupplied", "s3")} <= kinds
    assert not report.feasible
    assert report.total_magnitude == pytest.approx(3.0)


def test_undervoltage_and_overload_classification():
    grid = fx.two_bus_grid(length_km=8.0, sn_mva=6.0)
    tight = Scenario("peak_load", 1.0, 0.0, 0.0, v_min=0.99, loading_max=30.0)
    report = check_normal_operation(grid, (tight,))
    kinds = {v.kind for v in report.entries}
    assert kinds == {"undervoltage", "overload"}
    under = next(v for v in report.entries if v.kind == "undervoltage")
    result = run_power_flow(grid, tight)
    assert under.element == "s1"
    assert under.magnitude == pytest.approx(0.99 - result.vm["s1"])
    over = next(v for v in report.entries if v.kind == "overload")
    assert over.element == "l1"
    assert over.magnitude == pytest.approx(result.loading["l1"] - 30.0)


def test_overvoltage_from_generation():
    b = GridBuilder(CABLE_150)
    b.infeed("hv", "mv", 0.0, 0.0)
    b.bus("s1", "secondary_substation", 9000.0, 0.0)
    b.line("l1", "mv", "s1", 9.0, CABLE_150, breaker_at=("mv",))
    b.wind("s1", 5.0)
    grid = b.build()
    gen = Scenario("peak_generation", scale_load=0.0, scale_pv=0.0,
                   scale_wind=1.0, v_max=1.02)
    report = check_normal_operation(grid, (gen,))
    result = run_power_flow(grid, gen)
    assert result.vm["s1"] > 1.02
    assert any(v.kind == "overvoltage" and v.element == "s1" for v in report.entries)


def test_nonconvergence_is_reported_not_raised():
    grid = fx.two_bus_grid(sn_mva=500.0)  # far beyond transferable power
    result = run_power_flow(grid, PEAK_LOAD)
    assert not result.converged
    assert result.iterations == MAX_ITERATIONS or result.iterations >= 0
    report = check_normal_operation(grid, (PEAK_LOAD,))
    assert any(v.kind == "nonconvergence" for v in report.entries)


def test_contingency_check_uses_wider_band():
    grid = fx.open_ring_demo()
    scenarios = (Scenario("peak_load", 1.0, 0.0, 0.0,
                          v_min=0.96, v_max=1.06, v_min_cont=0.90, v_max_cont=1.10),)
    report = check_contingency_operation(grid, scenarios)
    assert report.feasible, [str(v) for v in report.entries]
    # every violation a contingency check could produce names its outage
    for v in report.entries:
        assert v.contingency is not None


def test_contingency_check_requires_peak_load_scenario():
    grid = fx.open_ring_demo()
    with pytest.raises(ValueError, match="peak_load"):
        check_contingency_operation(grid, (Scenario("other", 1.0, 0.0, 0.0),))


# --------------------------------------------------------------------------
# N-1 cases computed once per structure and open switches


def counted_cases(monkeypatch) -> list:
    """Records one entry per call of ``power_flow.contingency_cases``."""
    cases = power_flow.contingency_cases
    calls = []
    monkeypatch.setattr(power_flow, "contingency_cases",
                        lambda *args: calls.append(1) or cases(*args))
    return calls


@pytest.mark.parametrize("build,principles", [
    (fx.example_area, fx.example_principles_dict),
    (fx.station_tradeoff_area, fx.tradeoff_principles_dict),
    (fx.mesh_tradeoff_area, fx.tradeoff_principles_dict),
], ids=["example", "station", "mesh"])
def test_memoized_cases_give_the_same_contingency_report(build, principles, monkeypatch):
    # cable swaps change no switching sequence, so inside one memo every
    # cable variant of a layout shares the layout's cases
    grid = build()
    pr = principles_from_dict(principles())
    pool = _reinforcement_pool(grid, pr.planner, pr.cost_model)
    swaps = [m for m in pool if m.kind == "ReplaceLine"]
    others = [m for m in pool if m.kind != "ReplaceLine"]
    rng = random.Random(build.__name__)
    layouts = [(), *(tuple(rng.sample(others, rng.randint(1, min(3, len(others)))))
                     for _ in range(2) if others)]
    calls = counted_cases(monkeypatch)
    memo = PlanMemo()
    scoped_calls = 0
    for layout in layouts:
        for _ in range(4):
            cables = tuple(m for m in swaps if rng.random() < 0.3)
            candidate = apply_measures(grid, cables + layout)
            before = len(calls)
            with memo:
                scoped = check_contingency_operation(candidate, pr.scenarios)
            scoped_calls += len(calls) - before
            assert scoped == check_contingency_operation(candidate, pr.scenarios)
    assert scoped_calls == len(set(layouts))


def test_contingency_cases_are_keyed_by_structure_and_open_switches(monkeypatch):
    # a ring closure and a feeder-head breaker turned load-break switch each
    # get cases of their own; a grid built anew whose open switches equal an
    # earlier grid's shares that grid's
    grid = fx.example_area()
    peak = next(s for s in principles_from_dict(fx.example_principles_dict()).scenarios
                if s.name == "peak_load")
    tie, head = "b_tie@b3", "a_1@mv"
    assert not grid.switches_by_id[tie].closed
    assert grid.switches_by_id[head].kind == "circuit_breaker"

    line = grid.lines_by_id["a_2"]
    other_type = next(t.name for t in grid.line_types if t.name != line.line_type)
    cable = grid.replace(lines=tuple(replace(l, line_type=other_type) if l.id == line.id
                                     else l for l in grid.lines))
    checks = [(grid, 1), (cable, 0), (with_switch_state(grid, {tie: True}), 1),
              (with_switch(grid, tie, closed=True), 0),
              (with_switch(grid, head, kind="load_break"), 1)]
    calls = counted_cases(monkeypatch)
    memo = PlanMemo()
    reports = []
    for n, (candidate, computed) in enumerate(checks):
        before = len(calls)
        with memo:
            reports.append(check_contingency_operation(candidate, (peak,)))
        assert len(calls) - before == computed, (n, computed)
    for (candidate, _), report in zip(checks, reports):
        assert report == check_contingency_operation(candidate, (peak,))
    assert reports[2] != reports[0]


def test_every_planning_solve_goes_through_the_module_function(monkeypatch):
    # profilers and checkers that replace power_flow.run_power_flow, called
    # with four positional arguments, must see every solve of the searches
    solve = power_flow.run_power_flow
    newton = power_flow._newton
    seen = []
    depth = [0]

    def captured(grid, scenario, switch_state=None, exclude_lines=frozenset()):
        depth[0] += 1
        try:
            result = solve(grid, scenario, switch_state, exclude_lines)
        finally:
            depth[0] -= 1
        seen.append(exclude_lines)
        return result

    def guarded_newton(*args):
        assert depth[0] == 1, "a Newton solve ran outside run_power_flow"
        return newton(*args)

    monkeypatch.setattr(power_flow, "run_power_flow", captured)
    monkeypatch.setattr(power_flow, "_newton", guarded_newton)
    pr = principles_from_dict(fx.tradeoff_principles_dict())
    reinf = phase2_reinforce(fx.mesh_tradeoff_area(), pr.scenarios, pr.cost_model, pr.planner)
    phase4_mesh(reinf, [], pr.scenarios, pr.cost_model, pr.planner)
    contingency = sum(1 for excluded in seen if excluded)
    assert contingency > 0 and len(seen) > contingency


# --------------------------------------------------------------------------
# solve plans: compiled once per switch state, exact to the last bit
#
# Two references build everything per call in plain loops: an adjacency
# search for the components, Ybus line by line, scalar admittances and
# loadings. They share only the energized set and the Newton iteration with
# the package. The block reference cuts each component at its slack
# busbars, as the package does, so a plan that reorders a sum or vectorizes
# a scalar expression shows up as a last-bit difference. The joint
# reference solves each component in one Newton, as before the cut; the
# package must agree with it to a tolerance.


def _reference_components(grid, scenario, switch_state, exclude_lines):
    """Scenario injections, slack setpoints, conducting energized lines in
    grid order, and the components holding a slack busbar, each sorted."""
    state = {s.id: s.closed for s in grid.switches}
    state.update((k, v) for k, v in (switch_state or {}).items() if k in state)
    inj = apply_scenario(grid, scenario)
    energized = _energized(grid, state, exclude_lines)
    lines = [l for l in grid.lines
             if l.in_service and l.id not in exclude_lines
             and all(state[s.id] for s in grid.switches_by_line.get(l.id, ()))
             and l.from_bus in energized and l.to_bus in energized]
    setpoint = {t.lv_bus: inj.setpoints[t.id] for t in grid.transformers
                if t.lv_bus in energized}
    adj = {}
    for line in lines:
        adj.setdefault(line.from_bus, []).append(line.to_bus)
        adj.setdefault(line.to_bus, []).append(line.from_bus)
    todo = set(adj) | set(setpoint)
    components = []
    while todo:
        comp = {min(todo)}
        stack = list(comp)
        while stack:
            for other in adj.get(stack.pop(), ()):
                if other not in comp:
                    comp.add(other)
                    stack.append(other)
        todo -= comp
        if comp & set(setpoint):
            components.append(sorted(comp))
    return inj, setpoint, lines, components


def _reference_newton(grid, inj, setpoint, buses, lines):
    """Newton on the given buses (sorted) and lines (grid order), Ybus and
    loadings in plain loops. Returns (vm, va, iterations, converged,
    loading per line id, slack power in pu)."""
    index = {bus: i for i, bus in enumerate(buses)}
    n = len(buses)
    vn = grid.buses_by_id[buses[0]].vn
    z_base = vn * vn / S_BASE_MVA
    ybus = np.zeros((n, n), dtype=complex)
    branches = []
    for line in lines:
        lt = grid.line_types_by_name[line.line_type]
        y = 1.0 / (complex(lt.r_per_km, lt.x_per_km) * line.length / z_base)
        f, t = index[line.from_bus], index[line.to_bus]
        ybus[f, f] += y
        ybus[t, t] += y
        ybus[f, t] -= y
        ybus[t, f] -= y
        branches.append((line, f, t, y))
    sbus = np.array([complex(-inj.p_mw.get(b, 0.0), -inj.q_mvar.get(b, 0.0)) / S_BASE_MVA
                     for b in buses])
    vm = np.ones(n)
    slack_idx = np.array([index[b] for b in buses if b in setpoint], dtype=int)
    vm[slack_idx] = [setpoint[b] for b in buses if b in setpoint]
    pq = np.array([i for i in range(n) if buses[i] not in setpoint], dtype=int)
    vm, va, its, ok = power_flow._newton(ybus, sbus, vm, np.zeros(n), pq)
    loading, s_slack = {}, 0j
    if ok:
        v = vm * np.exp(1j * va)
        i_inj = ybus @ v
        s_slack = (v[slack_idx] * np.conj(i_inj[slack_idx])).sum()
        i_base_ka = S_BASE_MVA / (math.sqrt(3.0) * vn)
        for line, f, t, y in branches:
            i_ka = abs((v[f] - v[t]) * y) * i_base_ka
            loading[line.id] = 100.0 * i_ka / grid.line_types_by_name[line.line_type].i_max
    return vm, va, its, ok, loading, s_slack


def reference_power_flow(grid, scenario, switch_state=None, exclude_lines=frozenset()):
    """Each component cut into blocks at its slack busbars: the PQ buses
    joined by lines that pass no busbar, with the busbars they touch, and a
    line between two busbars alone. Blocks are solved in the order of their
    first line; a component with a block that fails is left out."""
    inj, setpoint, lines, components = _reference_components(
        grid, scenario, switch_state, exclude_lines)
    vm_out, va_out, loading = {}, {}, {}
    p_slack = q_slack = 0.0
    iterations, converged = 0, True
    for comp in components:
        members = set(comp)
        comp_lines = [l for l in lines if l.from_bus in members]
        block_of = {}  # PQ bus -> block number
        for bus in comp:
            if bus in setpoint or bus in block_of:
                continue
            block_of[bus] = number = len(set(block_of.values()))
            stack = [bus]
            while stack:
                here = stack.pop()
                for line in comp_lines:
                    for a, b in ((line.from_bus, line.to_bus), (line.to_bus, line.from_bus)):
                        if a == here and b not in setpoint and b not in block_of:
                            block_of[b] = number
                            stack.append(b)
        groups = {}
        for line in comp_lines:
            pq_ends = [b for b in (line.from_bus, line.to_bus) if b not in setpoint]
            key = block_of[pq_ends[0]] if pq_ends else line.id
            groups.setdefault(key, []).append(line)
        blocks = sorted(groups.values(), key=lambda group: comp_lines.index(group[0]))

        solved = []
        for group in blocks:
            buses = sorted({b for line in group for b in (line.from_bus, line.to_bus)})
            vm, va, its, ok, flows, s_slack = _reference_newton(grid, inj, setpoint,
                                                                buses, group)
            iterations = max(iterations, its)
            solved.append((buses, vm, va, ok, flows, s_slack))
        if not all(ok for _, _, _, ok, _, _ in solved):
            converged = False
            continue
        vm_bus = {b: setpoint[b] for b in comp if b in setpoint}
        va_bus = {b: 0.0 for b in comp if b in setpoint}
        flows_all = {}
        for buses, vm, va, _, flows, s_slack in solved:
            for i, bus in enumerate(buses):
                if bus not in setpoint:
                    vm_bus[bus], va_bus[bus] = vm[i], va[i]
            flows_all.update(flows)
            p_slack += s_slack.real * S_BASE_MVA
            q_slack += s_slack.imag * S_BASE_MVA
        for bus in comp:
            vm_out[bus] = float(vm_bus[bus])
            va_out[bus] = float(va_bus[bus])
        for line in comp_lines:
            loading[line.id] = flows_all[line.id]
    return power_flow.PfResult(converged, iterations, vm_out, va_out, loading,
                               p_slack, q_slack)


def joint_reference_power_flow(grid, scenario, switch_state=None, exclude_lines=frozenset()):
    """One Newton per component, as before the components were cut."""
    inj, setpoint, lines, components = _reference_components(
        grid, scenario, switch_state, exclude_lines)
    vm_out, va_out, loading = {}, {}, {}
    p_slack = q_slack = 0.0
    iterations, converged = 0, True
    for comp in components:
        members = set(comp)
        comp_lines = [l for l in lines if l.from_bus in members]
        vm, va, its, ok, flows, s_slack = _reference_newton(grid, inj, setpoint,
                                                            comp, comp_lines)
        iterations = max(iterations, its)
        converged = converged and ok
        if not ok:
            continue
        p_slack += s_slack.real * S_BASE_MVA
        q_slack += s_slack.imag * S_BASE_MVA
        loading.update(flows)
        for i, bus in enumerate(comp):
            vm_out[bus] = float(vm[i])
            va_out[bus] = float(va[i])
    return power_flow.PfResult(converged, iterations, vm_out, va_out, loading,
                               p_slack, q_slack)


def assert_near_joint(result, joint, context=None):
    """The block solve against the joint one: same buses, lines, iteration
    count and verdict, voltages within 1e-9 pu."""
    assert (result.converged, result.iterations) == (joint.converged, joint.iterations), context
    assert set(result.vm) == set(joint.vm) and set(result.loading) == set(joint.loading), context
    for bus in joint.vm:
        v = result.vm[bus] * np.exp(1j * result.va[bus])
        assert abs(v - joint.vm[bus] * np.exp(1j * joint.va[bus])) <= 1e-9, (context, bus)
    for line in joint.loading:
        assert abs(result.loading[line] - joint.loading[line]) <= 1e-6, (context, line)
    assert abs(complex(result.p_slack_mw - joint.p_slack_mw,
                       result.q_slack_mvar - joint.q_slack_mvar)) <= 1e-6, context


def exact(result):
    """Everything of a result, dict order and float bits included."""
    def bits(d):
        return [(k, float(v).hex()) for k, v in d.items()]
    return (result.converged, result.iterations, bits(result.vm), bits(result.va),
            bits(result.loading), float(result.p_slack_mw).hex(),
            float(result.q_slack_mvar).hex())


def plan_count(memo):
    return sum(len(structure.plans) for structure in memo.structures.values())


@pytest.mark.parametrize("build,principles", [
    (fx.example_area, fx.example_principles_dict),
    (fx.station_tradeoff_area, fx.tradeoff_principles_dict),
    (fx.mesh_tradeoff_area, fx.tradeoff_principles_dict),
], ids=["example", "station", "mesh"])
def test_solve_plans_match_the_reference_solve(build, principles):
    # one memo for every candidate, as in a search: normal and N-1 solves,
    # restored states with and without the failed line, across cable variants
    grid = build()
    pr = principles_from_dict(principles())
    peak = next(s for s in pr.scenarios if s.name == "peak_load")
    pool = _reinforcement_pool(grid, pr.planner, pr.cost_model)
    rng = random.Random(build.__name__)
    memo = PlanMemo()
    solves = 0
    for _ in range(5):
        candidate = apply_measures(grid, tuple(m for m in pool if rng.random() < 0.3))
        inputs = [(s, None, frozenset()) for s in pr.scenarios]
        for case in contingency_cases(candidate):
            inputs += [(peak, case.resulting_state, frozenset((case.failed_line,))),
                       (peak, case.resulting_state, frozenset())]
        for scenario, state, excluded in inputs:
            expect = exact(reference_power_flow(candidate, scenario, state, excluded))
            with memo:
                assert exact(run_power_flow(candidate, scenario, state, excluded)) == expect
            result = run_power_flow(candidate, scenario, state, excluded)
            assert exact(result) == expect
            assert_near_joint(result, joint_reference_power_flow(candidate, scenario,
                                                                 state, excluded))
            solves += 1
    assert plan_count(memo) < solves


def random_infeeds(rng: random.Random):
    """1-3 infeeds with random station trees, random station names (so a
    component's lowest bus is rarely its busbar), chords between any two
    buses, some of them closed, and lines out of service."""
    types = [CABLE_150, CABLE_300, OVERHEAD_50]
    b = GridBuilder(*types)
    # no station may be named like an infeed bus (h*, m*)
    names = iter(rng.sample([f"{c}{i}" for c in "abcdefgnjkpqrsuvwxyz" for i in range(3)], 40))
    buses = []
    for k in range(rng.randint(1, 3)):
        busbar = f"m{k}"
        b.infeed(f"h{k}", busbar, 8000.0 * k, 0.0)
        tree = [busbar]
        for _ in range(rng.randint(1, 8)):
            bus, parent = next(names), rng.choice(tree)
            b.bus(bus, "secondary_substation", 8000.0 * k + rng.uniform(0, 5000),
                  rng.uniform(-3000, 3000))
            b.line(f"t{bus}", parent, bus, round(rng.uniform(0.3, 1.5), 3), rng.choice(types),
                   breaker_at=(busbar,) if parent == busbar else ())
            b.load(bus, round(rng.uniform(0.05, 0.4), 3))
            tree.append(bus)
        buses += tree
    for c in range(rng.randint(0, 4)):
        u, v = rng.sample(buses, 2)
        b.line(f"c{c}", u, v, 1.0, CABLE_150, open_at=u if rng.random() < 0.7 else None)
    grid = b.build()
    grid = grid.replace(lines=tuple(replace(l, in_service=rng.random() > 0.1)
                                    for l in grid.lines))
    assert validate_grid(grid) == []
    return grid


@pytest.mark.parametrize("chunk", range(4))
def test_solve_plans_match_the_reference_on_several_infeeds(chunk):
    several = 0  # grids with more than one component
    for seed in range(40 * chunk, 40 * chunk + 40):
        rng = random.Random(seed)
        grid = random_infeeds(rng)
        memo = PlanMemo()
        inputs = [(None, frozenset())]
        for _ in range(3):
            state = {s.id: s.closed or rng.random() < 0.3 for s in grid.switches}
            inputs += [(state, frozenset()), (state, frozenset((rng.choice(grid.lines).id,)))]
        for state, excluded in inputs:
            expect = exact(reference_power_flow(grid, PEAK_LOAD, state, excluded))
            with memo:
                assert exact(run_power_flow(grid, PEAK_LOAD, state, excluded)) == expect, seed
            result = run_power_flow(grid, PEAK_LOAD, state, excluded)
            assert exact(result) == expect, seed
            assert_near_joint(result, joint_reference_power_flow(grid, PEAK_LOAD, state,
                                                                 excluded), seed)
        several += len(power_flow._compile(grid, power_flow._state_map(grid),
                                           frozenset())) > 1
    assert several > 20


def test_plan_key_tells_switch_states_and_excluded_lines_apart():
    grid = fx.open_ring_demo()
    closed = {s.id: True for s in grid.switches}
    ring_opened_at_f2 = {**closed, "f2@s1": False}
    inputs = [(None, frozenset()), (closed, frozenset()), (ring_opened_at_f2, frozenset()),
              (closed, frozenset(("f2",))), (closed, frozenset(("f3",)))]
    memo = PlanMemo()
    with memo:
        scoped = [run_power_flow(grid, PEAK_LOAD, state, excluded)
                  for state, excluded in inputs]
    assert plan_count(memo) == len(inputs)
    for (state, excluded), result in zip(inputs, scoped):
        assert exact(result) == exact(run_power_flow(grid, PEAK_LOAD, state, excluded))


def test_plans_are_seen_only_inside_the_memo_block():
    grid = fx.two_bus_grid()
    memo = PlanMemo()
    run_power_flow(grid, PEAK_LOAD)
    assert plan_count(memo) == 0
    bad = Scenario("peak_load", scale_load=2.0, scale_pv=0.0, scale_wind=0.0)
    with pytest.raises(ValueError, match="scale_load"):
        with memo:
            run_power_flow(grid, PEAK_LOAD)
            run_power_flow(grid, bad)
    assert power_flow._memo is None
    assert plan_count(memo) == 1
    run_power_flow(grid, PEAK_LOAD, None, frozenset(("l1",)))
    assert plan_count(memo) == 1


# --------------------------------------------------------------------------
# blocks: components cut at their slack busbars


def diverging_grid():
    """Two feeders off m1, the far one too weak for its load, and a
    separate healthy component behind m2."""
    b = GridBuilder(CABLE_150)
    b.infeed("h1", "m1", 0.0, 0.0)
    b.bus("a1", "secondary_substation", 2000.0, 0.0)
    b.line("la", "m1", "a1", 2.0, CABLE_150, breaker_at=("m1",))
    b.load("a1", 1.0)
    b.bus("z1", "secondary_substation", -5000.0, 0.0)
    b.line("lz", "m1", "z1", 5.0, CABLE_150, breaker_at=("m1",))
    b.load("z1", 500.0)
    b.infeed("h2", "m2", 9000.0, 0.0)
    b.bus("a2", "secondary_substation", 11000.0, 0.0)
    b.line("lb", "m2", "a2", 2.0, CABLE_150, breaker_at=("m2",))
    b.load("a2", 1.0)
    return b.build()


def test_a_diverging_block_drops_its_whole_component():
    # two feeders off m1 are two blocks of one component; the far one cannot
    # carry its load, so neither feeder nor the busbar gets a voltage, while
    # the separate component behind m2 is solved
    grid = diverging_grid()
    plan = power_flow._compile(grid, power_flow._state_map(grid), frozenset())
    assert [len(c.blocks) for c in plan] == [2, 1]

    result = run_power_flow(grid, PEAK_LOAD)
    assert not result.converged
    assert set(result.vm) == {"m2", "a2"} and set(result.loading) == {"lb"}
    assert exact(result) == exact(reference_power_flow(grid, PEAK_LOAD))
    joint = joint_reference_power_flow(grid, PEAK_LOAD)
    assert set(joint.vm) == set(result.vm) and not joint.converged
    report = check_normal_operation(grid, (PEAK_LOAD,))
    assert {(v.kind, v.element) for v in report.entries} >= {
        ("nonconvergence", "peak_load"), ("unsupplied", "a1"), ("unsupplied", "z1")}

    healthy = run_power_flow(grid, PEAK_LOAD, {"lz@m1": False})
    assert healthy.converged and {"m1", "a1", "m2", "a2"} == set(healthy.vm)


def test_unchanged_blocks_come_from_the_memo(monkeypatch):
    # candidates that differ in one feeder's cable type or length solve only
    # that feeder again; every result equals the unscoped solve bit for bit
    grid = fx.example_area()
    plan = power_flow._compile(grid, power_flow._state_map(grid), frozenset())
    blocks = [b for c in plan for b in c.blocks]
    assert len(blocks) > 2
    line = grid.lines[blocks[1].key[0]]
    other_type = next(t.name for t in grid.line_types if t.name != line.line_type)
    variants = [grid.replace(lines=tuple(replace(l, **change) if l.id == line.id else l
                                         for l in grid.lines))
                for change in ({"line_type": other_type}, {"length": line.length + 0.5})]
    newton = power_flow._newton
    calls = []
    monkeypatch.setattr(power_flow, "_newton",
                        lambda *args: calls.append(1) or newton(*args))
    memo = PlanMemo()
    scoped = []
    for candidate, misses in ((grid, len(blocks)), *((v, 1) for v in variants), (grid, 0)):
        calls.clear()
        with memo:
            scoped.append(run_power_flow(candidate, PEAK_LOAD))
        assert len(calls) == misses
    for candidate, result in zip((grid, *variants, grid), scoped):
        assert exact(result) == exact(run_power_flow(candidate, PEAK_LOAD))
    assert scoped[1].loading[line.id] != scoped[0].loading[line.id]
    assert scoped[2].loading[line.id] != scoped[0].loading[line.id]


def test_contingency_check_shares_unchanged_feeders(monkeypatch):
    # outside any memo, the N-1 solves of one check share the blocks a fault
    # leaves as they were
    grid = fx.example_area()
    peak = next(s for s in principles_from_dict(fx.example_principles_dict()).scenarios
                if s.name == "peak_load")
    cases = contingency_cases(grid)
    blocks = sum(len(c.blocks) for case in cases
                 for c in power_flow._compile(grid, case.resulting_state,
                                              frozenset((case.failed_line,))))
    newton = power_flow._newton
    calls = []
    monkeypatch.setattr(power_flow, "_newton",
                        lambda *args: calls.append(1) or newton(*args))
    report = check_contingency_operation(grid, (peak,))
    assert power_flow._memo is None
    assert 0 < len(calls) < blocks
    calls.clear()
    with PlanMemo():
        assert check_contingency_operation(grid, (peak,)) == report


# --------------------------------------------------------------------------
# block results keyed by what they are computed from
#
# A block result is keyed by the id, ends, cable type and length of each of
# its lines, and kept in a bus table shared by every structure with the same
# buses, transformers, sources, injections and line types. A memo made
# inside an entered one shares its tables; a memo made with none entered
# shares them with no other.


def newtons(monkeypatch) -> list:
    """Records one entry per Newton solve."""
    newton = power_flow._newton
    calls = []
    monkeypatch.setattr(power_flow, "_newton", lambda *args: calls.append(1) or newton(*args))
    return calls


def block_count(grid):
    return sum(len(c.blocks) for c in compiled(grid, None))


def tables_of(memo, grid):
    return memo.structures[grid.structure_key].tables


def test_grids_that_differ_in_one_injection_share_no_block_result(monkeypatch):
    grid = fx.example_area()
    first = grid.injections[0]
    other = grid.replace(injections=(replace(first, sn=first.sn * 1.5), *grid.injections[1:]))
    calls = newtons(monkeypatch)
    with PlanMemo() as outer:
        run_power_flow(grid, PEAK_LOAD)
        with PlanMemo() as inner:
            calls.clear()
            scoped = run_power_flow(other, PEAK_LOAD)
    assert len(calls) == block_count(other) > 2  # every feeder solved again
    assert tables_of(inner, other) is not tables_of(outer, grid)
    assert exact(scoped) == exact(run_power_flow(other, PEAK_LOAD))


def test_a_line_id_reused_with_other_ends_shares_no_block_result(monkeypatch):
    # line c sits at the same position, with the same cable and length, in
    # both grids but ends at another station; position, type and length
    # alone would hand the second grid the first one's result
    def grid_with(end):
        b = GridBuilder(CABLE_150)
        b.infeed("h1", "m1", 0.0, 0.0)
        for bus, load in (("a", 0.2), ("z", 0.9)):
            b.bus(bus, "secondary_substation", 2000.0, 0.0)
            b.load(bus, load)
        b.line("c", "m1", end, 2.0, CABLE_150, breaker_at=("m1",))
        return b.build()

    to_a, to_z = grid_with("a"), grid_with("z")
    calls = newtons(monkeypatch)
    with PlanMemo() as outer:
        run_power_flow(to_a, PEAK_LOAD)
        with PlanMemo() as inner:
            calls.clear()
            scoped = run_power_flow(to_z, PEAK_LOAD)
    assert tables_of(inner, to_z) is tables_of(outer, to_a)  # shared inputs
    assert len(calls) == 1
    assert set(scoped.vm) == {"m1", "z"}
    assert exact(scoped) == exact(reference_power_flow(to_z, PEAK_LOAD))


def test_a_memo_made_with_none_entered_shares_no_tables(monkeypatch):
    grid = fx.example_area()
    calls = newtons(monkeypatch)
    first, second = PlanMemo(), PlanMemo()
    with first:
        run_power_flow(grid, PEAK_LOAD)
        inner = PlanMemo()
    calls.clear()
    with second:
        run_power_flow(grid, PEAK_LOAD)
    assert len(calls) == block_count(grid)
    assert tables_of(second, grid) is not tables_of(first, grid)
    calls.clear()
    with inner:  # made inside the first memo, so it shares its tables
        run_power_flow(grid, PEAK_LOAD)
    assert calls == [] and tables_of(inner, grid) is tables_of(first, grid)


@pytest.mark.parametrize("build,principles", [
    (fx.example_area, fx.example_principles_dict),
    (fx.station_tradeoff_area, fx.tradeoff_principles_dict),
    (fx.mesh_tradeoff_area, fx.tradeoff_principles_dict),
], ids=["example", "station", "mesh"])
def test_a_chain_of_structures_in_one_memo_solves_exactly(build, principles, monkeypatch):
    # AddParallel and ReplaceLine measures applied one after another, each
    # grid checked in a memo of its own inside one outer memo, as the
    # searches of one run_area call: normal and N-1 solves equal fresh
    # memos and the reference to the last bit, and fewer Newtons run
    grid = build()
    pr = principles_from_dict(principles())
    peak = next(s for s in pr.scenarios if s.name == "peak_load")
    pool = _reinforcement_pool(grid, pr.planner, pr.cost_model)
    rng = random.Random(build.__name__)
    chain = rng.sample(pool, min(6, len(pool)))
    assert {m.kind for m in chain} == {"AddParallel", "ReplaceLine"}
    candidates = [apply_measures(grid, tuple(chain[:n])) for n in range(len(chain) + 1)]
    inputs = []
    for candidate in candidates:
        steps = [(s, None, frozenset()) for s in pr.scenarios]
        for case in contingency_cases(candidate):
            steps.append((peak, case.resulting_state, frozenset((case.failed_line,))))
        inputs.append((candidate, steps))
    calls = newtons(monkeypatch)
    scoped = []
    with PlanMemo():
        for candidate, steps in inputs:
            with PlanMemo():
                scoped.append([exact(run_power_flow(candidate, *step)) for step in steps])
    shared = len(calls)
    calls.clear()
    for (candidate, steps), results in zip(inputs, scoped):
        for step, result in zip(steps, results):
            assert result == exact(run_power_flow(candidate, *step))
            assert result == exact(reference_power_flow(candidate, *step))
    assert shared < len(calls)


# --------------------------------------------------------------------------
# reports kept per grid state
#
# Each check keeps its report in the entered memo, per structure key and
# keyed by the scenarios (the peak load for the N-1 check), the open
# switches, the cable types and the lengths. The report dicts are shared
# like the bus tables: by every memo made inside an entered one, and by no
# other memo for one made with none entered.


def counted_solves(monkeypatch) -> list:
    """Records one entry per call of ``power_flow.run_power_flow``."""
    solve = power_flow.run_power_flow
    calls = []
    monkeypatch.setattr(power_flow, "run_power_flow",
                        lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
    return calls


def both_checks(grid, scenarios):
    return (check_normal_operation(grid, scenarios),
            check_contingency_operation(grid, scenarios))


def test_grids_that_differ_only_in_remote_control_share_one_report(monkeypatch):
    # the remote-control flags reach only the FMEA and the labels of the
    # resupply actions, never the checks, so they are not in the key
    grid = fx.example_area()
    scenarios = principles_from_dict(fx.example_principles_dict()).scenarios
    remote = grid.replace(switches=tuple(replace(s, remote_controlled=not s.remote_controlled)
                                         for s in grid.switches))
    calls = counted_solves(monkeypatch)
    with PlanMemo():
        with PlanMemo():
            first = both_checks(grid, scenarios)
        assert calls
        calls.clear()
        with PlanMemo():
            second = both_checks(remote, scenarios)
    assert calls == []
    assert second[0] is first[0] and second[1] is first[1]
    assert second == both_checks(remote, scenarios)


def with_line(grid, **change):
    line = grid.lines_by_id["a_2"]
    return grid.replace(lines=tuple(replace(l, **change) if l.id == line.id else l
                                    for l in grid.lines))


def with_switch(grid, sid, **change):
    return grid.replace(switches=tuple(replace(s, **change) if s.id == sid else s
                                       for s in grid.switches))


def with_bus_flag(grid):
    bus = next(b for b in grid.buses if b.kind == "secondary_substation")
    return grid.replace(buses=tuple(
        replace(b, requires_contingency_supply=not b.requires_contingency_supply)
        if b.id == bus.id else b for b in grid.buses))


def with_peak(scenarios, **change):
    return tuple(replace(s, **change) if s.name == "peak_load" else s for s in scenarios)


@pytest.mark.parametrize("variant", [
    lambda g, sc: (with_line(g, line_type=next(t.name for t in g.line_types
                                                if t.name != g.lines_by_id["a_2"].line_type)),
                   sc),
    lambda g, sc: (with_line(g, length=g.lines_by_id["a_2"].length + 0.5), sc),
    lambda g, sc: (with_switch(g, "b_tie@b3", closed=True), sc),
    lambda g, sc: (with_switch(g, "a_1@mv", kind="load_break"), sc),
    lambda g, sc: (with_bus_flag(g), sc),
    lambda g, sc: (g, with_peak(sc, v_max=1.03)),
    lambda g, sc: (g, with_peak(sc, loading_max=40.0)),
], ids=["cable_type", "length", "open_switch", "switch_kind", "contingency_supply",
        "v_max", "loading_max"])
def test_a_change_to_any_checked_input_gets_a_report_of_its_own(variant, monkeypatch):
    grid = fx.example_area()
    scenarios = principles_from_dict(fx.example_principles_dict()).scenarios
    other, other_scenarios = variant(grid, scenarios)
    fresh = both_checks(other, other_scenarios)
    calls = counted_solves(monkeypatch)
    with PlanMemo():
        with PlanMemo():
            both_checks(grid, scenarios)
        with PlanMemo():
            for check, expected in zip((check_normal_operation, check_contingency_operation),
                                       fresh):
                calls.clear()
                assert check(other, other_scenarios) == expected
                assert calls, check.__name__  # computed, not taken from the first grid


def test_a_memo_made_with_none_entered_shares_no_report(monkeypatch):
    # the large_checks workload of perfbench counts the solves of lone
    # checks, so a lone check must find no report of an earlier one
    grid = fx.example_area()
    scenarios = principles_from_dict(fx.example_principles_dict()).scenarios
    n_cases = len(contingency_cases(grid))
    calls = counted_solves(monkeypatch)
    for _ in range(2):
        calls.clear()
        check_contingency_operation(grid, scenarios)
        assert len(calls) == n_cases
        calls.clear()
        check_normal_operation(grid, scenarios)
        assert len(calls) == len(scenarios)
    first, second = PlanMemo(), PlanMemo()
    with first:
        report = check_contingency_operation(grid, scenarios)
        inner = PlanMemo()
    calls.clear()
    with second:
        assert check_contingency_operation(grid, scenarios) == report
    assert len(calls) == n_cases
    calls.clear()
    with inner:  # made inside the first memo, so it shares its reports
        assert check_contingency_operation(grid, scenarios) is report
    assert calls == []


@pytest.mark.parametrize("build,principles", [
    (fx.example_area, fx.example_principles_dict),
    (fx.station_tradeoff_area, fx.tradeoff_principles_dict),
    (fx.mesh_tradeoff_area, fx.tradeoff_principles_dict),
], ids=["example", "station", "mesh"])
def test_a_chain_of_candidates_in_one_memo_reports_exactly(build, principles, monkeypatch):
    # sectioning moves, ReplaceLine, AddParallel and CloseRing measures
    # applied one after another, each grid checked in a memo of its own
    # inside one outer memo, as the searches of one run_area call, and
    # every grid of the chain checked again at its end: every report
    # equals a fresh memo's, and the repeats run no load flow
    grid = build()
    pr = principles_from_dict(principles())
    pool = _reinforcement_pool(grid, pr.planner, pr.cost_model)
    rng = random.Random(build.__name__)
    chain = [m for kind in ("ReplaceLine", "AddParallel")
             for m in rng.sample([m for m in pool if m.kind == kind], 2)]
    for tie, ring in _tie_points(grid):
        opened = next(s for line in ring for s in grid.switches_by_line.get(line, ())
                      if s.closed and s.kind == "load_break")
        chain += [Measure(kind="SetSectioningPoint", target=tie.id, closed=True),
                  Measure(kind="SetSectioningPoint", target=opened.id, closed=False),
                  Measure(kind="CloseRing", target=opened.id)]
    assert {m.kind for m in chain} >= {"AddParallel", "ReplaceLine", "SetSectioningPoint",
                                       "CloseRing"}
    candidates = [apply_measures(grid, tuple(chain[:n])) for n in range(len(chain) + 1)]
    calls = counted_solves(monkeypatch)
    scoped = []
    with PlanMemo():
        for candidate in candidates:
            with PlanMemo():
                scoped.append(both_checks(candidate, pr.scenarios))
        shared = len(calls)
        for candidate, reports in zip(candidates, scoped):
            with PlanMemo():
                assert both_checks(candidate, pr.scenarios) == reports
        assert len(calls) == shared
    for candidate, reports in zip(candidates, scoped):
        assert reports == both_checks(candidate, pr.scenarios)


# --------------------------------------------------------------------------
# N-1 case plans derived from the base plan
#
# The contingency check compiles the plan of the normal state and derives
# each case's plan from it. A derived plan must equal a full compile of the
# case's state in every field. Four hand-built grids hold the situations a
# derivation must get right: a resupply tie between feeders of two
# substations, a busbar whose only feeder fails, a tie that lights a dark
# region, and a transformer busbar fed over an MV line, where the set of
# energized busbars changes with the switches and every case is compiled.
# A fifth joins two busbars by a line, a block without PQ buses.


def plan_fields(grid, plan):
    """Every field of a solve plan as plain values: an index array as its
    dtype and values, a block's itemgetter as what it picks of the line
    positions."""
    positions = range(len(grid.lines))

    def plain(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.tolist()
        if isinstance(value, itemgetter):
            return value(positions)
        if hasattr(value, "_fields"):
            return {name: plain(getattr(value, name)) for name in value._fields}
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        return value

    return plain(plan)


def compiled(grid, state, excluded=frozenset()):
    return power_flow._compile(grid, {**power_flow._state_map(grid), **(state or {})},
                               excluded)


def case_plans(grid, monkeypatch):
    """Per N-1 case of the normal state: the case, the plan the contingency
    check left in its memo and a full compile of the case. The check
    compiles the base plan alone and derives every case's plan from it."""
    compile_ = power_flow._compile
    compiles = []
    monkeypatch.setattr(power_flow, "_compile",
                        lambda *args: compiles.append(args) or compile_(*args))
    memo = PlanMemo()
    with memo:
        check_contingency_operation(grid, (PEAK_LOAD,))
    structure = memo.structures[grid.structure_key]
    (cases,) = structure.cases.values()
    assert len(compiles) == 1
    monkeypatch.setattr(power_flow, "_compile", compile_)
    return [(case, structure.plans[(power_flow._open_switches(grid, case.resulting_state),
                                    (case.failed_line,))],
             compiled(grid, case.resulting_state, frozenset((case.failed_line,))))
            for case in cases]


def two_substations_tie():
    """Feeders a (two stations) and b off m1, feeder c off m2, and an open
    tie between the far ends of a and c: a fault on a's head is resupplied
    from m2."""
    b = GridBuilder(CABLE_150)
    b.infeed("h1", "m1", 0.0, 0.0)
    b.infeed("h2", "m2", 6000.0, 0.0)
    for bus, x, y in (("a1", 1000.0, 500.0), ("a2", 2500.0, 500.0), ("b1", 1000.0, -500.0),
                      ("c1", 5000.0, 500.0), ("c2", 3500.0, 500.0)):
        b.bus(bus, "secondary_substation", x, y)
        b.load(bus, 0.3)
    b.line("la1", "m1", "a1", 1.1, CABLE_150, breaker_at=("m1",))
    b.line("la2", "a1", "a2", 1.5, CABLE_150)
    b.line("lb1", "m1", "b1", 1.1, CABLE_150, breaker_at=("m1",))
    b.line("lc1", "m2", "c1", 1.1, CABLE_150, breaker_at=("m2",))
    b.line("lc2", "c1", "c2", 1.5, CABLE_150)
    b.line("tie", "a2", "c2", 1.0, CABLE_150, open_at="a2")
    return b.build()


def lone_busbar_after_fault():
    """m2 feeds one station over one line, tied open to m1's feeder: a
    fault on that line leaves m2 with no line at all."""
    b = GridBuilder(CABLE_150)
    b.infeed("h1", "m1", 0.0, 0.0)
    b.infeed("h2", "m2", 4000.0, 0.0)
    b.bus("a1", "secondary_substation", 1000.0, 0.0)
    b.bus("d1", "secondary_substation", 3000.0, 0.0)
    b.load("a1", 0.3)
    b.load("d1", 0.3)
    b.line("la1", "m1", "a1", 1.1, CABLE_150, breaker_at=("m1",))
    b.line("ld1", "m2", "d1", 1.1, CABLE_150, breaker_at=("m2",))
    b.line("tie", "a1", "d1", 2.0, CABLE_150, open_at="d1")
    return b.build()


def dark_station_beside_a_ring():
    """An open ring of feeders a and b off m1, and a station z1 that no
    line feeds in the normal state: its line to a2 is open at z1."""
    b = GridBuilder(CABLE_150)
    b.infeed("h1", "m1", 0.0, 0.0)
    for bus, x, y in (("a1", 1000.0, 500.0), ("a2", 2000.0, 500.0), ("b1", 1000.0, -500.0),
                      ("b2", 2000.0, -500.0), ("z1", 3000.0, 500.0)):
        b.bus(bus, "secondary_substation", x, y)
        b.load(bus, 0.3)
    b.line("la1", "m1", "a1", 1.1, CABLE_150, breaker_at=("m1",))
    b.line("la2", "a1", "a2", 1.0, CABLE_150)
    b.line("lb1", "m1", "b1", 1.1, CABLE_150, breaker_at=("m1",))
    b.line("lb2", "b1", "b2", 1.0, CABLE_150)
    b.line("tie", "a2", "b2", 1.0, CABLE_150, open_at="a2")
    b.line("lz", "a2", "z1", 1.0, CABLE_150, open_at="z1")
    return b.build()


def coupled_busbars():
    """Two substations joined by a closed line between their busbars, a
    block of its own and a feeder of its own, and one feeder each."""
    b = GridBuilder(CABLE_150)
    b.infeed("h1", "m1", 0.0, 0.0)
    b.infeed("h2", "m2", 4000.0, 0.0)
    b.bus("a1", "secondary_substation", 1000.0, 500.0)
    b.bus("c1", "secondary_substation", 3000.0, 500.0)
    b.load("a1", 0.3)
    b.load("c1", 0.3)
    b.line("la1", "m1", "a1", 1.1, CABLE_150, breaker_at=("m1",))
    b.line("lc1", "m2", "c1", 1.1, CABLE_150, breaker_at=("m2",))
    b.line("tie", "a1", "c1", 2.0, CABLE_150, open_at="c1")
    b.line("lk", "m1", "m2", 4.0, CABLE_150, breaker_at=("m1", "m2"))
    return b.build()


def busbar_fed_over_a_line():
    """Transformer x_m2 has its HV side on the MV bus x, which m1 feeds
    over line lx, so m2 would be dark after a fault on lx. No source sits
    on x: ``validate_grid`` flags the HV side and the power flow refuses
    the grid."""
    b = GridBuilder(CABLE_150)
    b.infeed("h1", "m1", 0.0, 0.0)
    b.bus("x", "secondary_substation", 2000.0, 0.0)
    b.bus("m2", "primary_substation", 2100.0, 0.0)
    b.bus("c1", "secondary_substation", 3000.0, 0.0)
    b.load("x", 0.3)
    b.load("c1", 0.3)
    b.line("lx", "m1", "x", 2.0, CABLE_150, breaker_at=("m1",))
    b.line("lc", "m2", "c1", 1.0, CABLE_150, breaker_at=("m2",))
    grid = b.build()
    return grid.replace(transformers=grid.transformers + (
        Transformer("x_m2", "x", "m2", 10.0, dict(fx.SETPOINTS)),))


HAND_BUILT = [two_substations_tie, lone_busbar_after_fault, dark_station_beside_a_ring,
              coupled_busbars]


@pytest.mark.parametrize("build", [
    fx.example_area, fx.resupply_demo, fx.double_feeder_grid, fx.station_ring_demo,
    fx.station_tradeoff_area, fx.mesh_tradeoff_area, *HAND_BUILT,
], ids=lambda build: build.__name__)
def test_case_plans_equal_full_compiles(build, monkeypatch):
    grid = build()
    plans = case_plans(grid, monkeypatch)
    assert plans
    for case, plan, full in plans:
        assert plan_fields(grid, plan) == plan_fields(grid, full), case.failed_line


@pytest.mark.parametrize("build", [
    fx.example_area, fx.station_tradeoff_area, fx.mesh_tradeoff_area,
], ids=lambda build: build.__name__)
def test_case_plans_are_keyed_by_the_open_switches_of_the_restored_state(build):
    # a case's key is built from the base key and the switches its sequence
    # moved, never from a scan of every switch
    grid = build()
    opened = power_flow._open_switches(grid, None)
    cases = contingency_cases(grid)
    plans = {}
    power_flow._derive_case_plans(grid, plans, opened, cases)
    keys = {(power_flow._open_switches(grid, case.resulting_state), (case.failed_line,))
            for case in cases}
    assert set(plans) == {(opened, ())} | keys
    assert all(key[0] != opened for key in keys)


@pytest.mark.parametrize("build", HAND_BUILT, ids=lambda build: build.__name__)
def test_plans_derive_for_any_switch_flip_or_line_outage(build):
    # beyond the N-1 cases: every single switch flipped from the normal
    # state, and every single line excluded
    grid = build()
    state = power_flow._state_map(grid)
    base = compiled(grid, state)
    for sw in grid.switches:
        flipped = {**state, sw.id: not state[sw.id]}
        derived = power_flow._derive(grid, base, [sw.line], flipped, frozenset())
        assert plan_fields(grid, derived) == plan_fields(grid, compiled(grid, flipped)), sw.id
    for line in grid.lines:
        excluded = frozenset((line.id,))
        derived = power_flow._derive(grid, base, [line.id], state, excluded)
        assert plan_fields(grid, derived) == plan_fields(grid, compiled(grid, state, excluded))


def test_a_tie_between_substations_moves_and_merges_components(monkeypatch):
    grid = two_substations_tie()
    plans = {case.failed_line: plan for case, plan, _ in case_plans(grid, monkeypatch)}
    assert [c.bus_ids for c in plans["la1"]] == [("a1", "a2", "c1", "c2", "m2"), ("b1", "m1")]
    # closed in the normal state, the tie joins the two substations
    state = power_flow._state_map(grid)
    closed = {**state, "tie@a2": True}
    merged = power_flow._derive(grid, compiled(grid, state), ["tie"], closed, frozenset())
    assert [c.bus_ids for c in merged] == [("a1", "a2", "b1", "c1", "c2", "m1", "m2")]


def test_a_busbar_whose_only_feeder_fails_stands_alone(monkeypatch):
    grid = lone_busbar_after_fault()
    plans = {case.failed_line: plan for case, plan, _ in case_plans(grid, monkeypatch)}
    lone = plans["ld1"][1]
    assert (lone.bus_ids, lone.blocks) == (("m2",), ())
    assert plans["ld1"][0].bus_ids == ("a1", "d1", "m1")


def test_a_tie_lights_a_dark_region(monkeypatch):
    grid = dark_station_beside_a_ring()
    state = power_flow._state_map(grid)
    base = compiled(grid, state)
    assert "z1" not in base[0].bus_ids
    plans = {case.failed_line: plan for case, plan, _ in case_plans(grid, monkeypatch)}
    (comp,) = plans["la1"]
    assert [block.bus_ids for block in comp.blocks] == [("a1", "a2", "b1", "b2", "m1")]
    lit = {**state, "lz@z1": True}
    (comp,) = power_flow._derive(grid, base, ["lz"], lit, frozenset())
    assert "z1" in comp.bus_ids


@pytest.mark.parametrize("check", [
    lambda grid: run_power_flow(grid, PEAK_LOAD),
    lambda grid: check_normal_operation(grid, (PEAK_LOAD,)),
    lambda grid: check_contingency_operation(grid, (PEAK_LOAD,)),
], ids=["run_power_flow", "check_normal_operation", "check_contingency_operation"])
def test_a_transformer_without_a_source_is_refused(check):
    grid = busbar_fed_over_a_line()
    with pytest.raises(ValueError, match="transformer 'x_m2' has no external source"):
        check(grid)
    with PlanMemo() as memo:  # a refused structure is not kept, so it fails again
        for _ in range(2):
            with pytest.raises(ValueError, match="'x_m2'"):
                check(grid)
    assert memo.structures == {}
    assert [(f.element, f.rule) for f in validate_grid(grid)
            if f.rule == "unsourced_hv_side"] == [("x_m2", "unsourced_hv_side")]


def test_pf_on_a_transformer_without_a_source_exits_2(tmp_path, capsys):
    save_grid(busbar_fed_over_a_line(), tmp_path / "grid.json")
    assert main(["pf", str(tmp_path / "grid.json")]) == 2
    assert "transformer 'x_m2' has no external source" in capsys.readouterr().err


def ghost_lv_bus():
    """The two-bus grid with its transformer's LV bus renamed to a bus that
    the grid does not hold."""
    grid = fx.two_bus_grid()
    (transformer,) = grid.transformers
    return grid.replace(transformers=(replace(transformer, lv_bus="ghost"),))


@pytest.mark.parametrize("check", [
    lambda grid: run_power_flow(grid, PEAK_LOAD),
    lambda grid: check_normal_operation(grid, (PEAK_LOAD,)),
    lambda grid: check_contingency_operation(grid, (PEAK_LOAD,)),
], ids=["run_power_flow", "check_normal_operation", "check_contingency_operation"])
def test_a_transformer_with_a_missing_lv_bus_is_refused(check):
    grid = ghost_lv_bus()
    with PlanMemo() as memo:
        with pytest.raises(ValueError, match="transformer 'hv_mv' has an LV bus 'ghost'"):
            check(grid)
    assert memo.structures == {}
    assert ("hv_mv", "dangling_bus") in [(f.element, f.rule) for f in validate_grid(grid)]


def test_pf_on_a_transformer_with_a_missing_lv_bus_exits_2(tmp_path, capsys):
    save_grid(ghost_lv_bus(), tmp_path / "grid.json")
    assert main(["pf", str(tmp_path / "grid.json")]) == 2
    assert "transformer 'hv_mv' has an LV bus 'ghost'" in capsys.readouterr().err


def test_a_contingency_checks_plans_flood_nothing(monkeypatch):
    # every busbar is fed from its transformer's source, so neither the
    # base plan nor a case plan searches for the energized buses
    grid = fx.example_area()
    cases = contingency_cases(grid)
    monkeypatch.setattr(power_flow, "contingency_cases", lambda *args: cases)
    floods = []
    for module, name in ((power_flow, "_energized"), (topology, "_flood")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, original=original:
                            floods.append(args) or original(*args))
    report = check_contingency_operation(grid, (PEAK_LOAD,))
    assert len(cases) > 2 and floods == []
    monkeypatch.undo()
    assert report == check_contingency_operation(grid, (PEAK_LOAD,))


# --------------------------------------------------------------------------
# reports from block verdicts
#
# The checks build each report from the band verdicts of the solved blocks
# and never merge a load flow into dicts. The reference is the report logic
# that read the merged result: every solved bus and line, sorted by id,
# judged against the band, and a station without a voltage unsupplied.


def merged_band_violations(result, scenario, contingency):
    v_min = scenario.v_min_cont if contingency else scenario.v_min
    v_max = scenario.v_max_cont if contingency else scenario.v_max
    out = []
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


def merged_reports(grid, scenarios):
    """The normal and the N-1 report, each from merged load flows."""
    normal = []
    for scenario in scenarios:
        result = run_power_flow(grid, scenario)
        normal += merged_band_violations(result, scenario, None)
        normal += [Violation("unsupplied", station.id, 1.0, scenario.name)
                   for station in grid.stations() if station.id not in result.vm]
    peak = next(s for s in scenarios if s.name == "peak_load")
    n1 = []
    for case in contingency_cases(grid):
        failed = case.failed_line
        result = run_power_flow(grid, peak, case.resulting_state, frozenset((failed,)))
        n1 += merged_band_violations(result, peak, failed)
        n1 += [Violation("unsupplied", bus, 1.0, peak.name, failed) for bus in case.unsupplied
               if grid.buses_by_id[bus].requires_contingency_supply]
    return ViolationReport(tuple(normal)), ViolationReport(tuple(n1))


def narrowed(grid, scenario):
    """``scenario`` with bands whose edges are voltages and a loading that
    ``grid`` has in its normal state."""
    result = run_power_flow(grid, scenario)
    vms = sorted(result.vm.values())
    loadings = sorted(result.loading.values())
    n = len(vms)
    return replace(scenario, v_min=vms[n // 3], v_max=vms[2 * n // 3], v_min_cont=vms[n // 4],
                   v_max_cont=vms[3 * n // 4], loading_max=loadings[len(loadings) // 2])


@pytest.mark.parametrize("build,principles", [
    (fx.example_area, fx.example_principles_dict),
    (fx.station_tradeoff_area, fx.tradeoff_principles_dict),
    (fx.mesh_tradeoff_area, fx.tradeoff_principles_dict),
], ids=["example", "station", "mesh"])
def test_reports_from_block_verdicts_equal_the_merged_reference(build, principles):
    # the base grid and reinforced candidates checked in one memo, as in a
    # search, under the planning scenarios and under narrowed bands
    grid = build()
    pr = principles_from_dict(principles())
    pool = _reinforcement_pool(grid, pr.planner, pr.cost_model)
    rng = random.Random(build.__name__)
    candidates = [grid] + [apply_measures(grid, tuple(m for m in pool if rng.random() < 0.3))
                           for _ in range(3)]
    bands = (pr.scenarios, tuple(narrowed(grid, s) for s in pr.scenarios))
    kinds = set()
    with PlanMemo():
        for candidate in candidates:
            for scenarios in bands:
                reports = both_checks(candidate, scenarios)
                assert reports == merged_reports(candidate, scenarios)
                kinds.update(v.kind for report in reports for v in report.entries)
    assert kinds >= {"undervoltage", "overvoltage", "overload"}


def test_a_value_on_a_band_edge_is_no_violation():
    grid = fx.example_area()
    result = run_power_flow(grid, PEAK_LOAD)
    pq = sorted((vm, bus) for bus, vm in result.vm.items() if bus not in grid.slack_buses)
    flows = sorted((pct, line) for line, pct in result.loading.items())
    (vm, bus), (pct, line) = pq[len(pq) // 2], flows[len(flows) // 2]
    for edge in (replace(PEAK_LOAD, v_min=vm, loading_max=pct), replace(PEAK_LOAD, v_max=vm)):
        report = check_normal_operation(grid, (edge,))
        assert report == merged_reports(grid, (edge,))[0]
        kinds = {v.kind for v in report.entries}
        assert bus not in {v.element for v in report.entries}
        assert kinds & {"undervoltage", "overvoltage"}
        if edge.loading_max == pct:
            assert line not in {v.element for v in report.entries} and "overload" in kinds


def test_a_lone_busbar_out_of_band_is_reported_once():
    # the fault on ld1 leaves busbar m2 as a component without a line; with
    # both setpoints above the band each busbar is reported once per solve
    grid = lone_busbar_after_fault()
    setpoint = min(apply_scenario(grid, PEAK_LOAD).setpoints.values())
    high = replace(PEAK_LOAD, v_max=setpoint - 0.01, v_max_cont=setpoint - 0.01)
    normal, n1 = both_checks(grid, (high,))
    assert (normal, n1) == merged_reports(grid, (high,))
    over = [(v.element, v.contingency) for v in normal.entries + n1.entries
            if v.kind == "overvoltage" and v.element in grid.slack_buses]
    assert len(over) == len(set(over))
    assert {("m1", None), ("m2", None), ("m2", "ld1")} <= set(over)


def test_reports_of_a_grid_with_a_diverging_block_equal_the_merged_reference():
    grid = diverging_grid()
    normal, n1 = both_checks(grid, (PEAK_LOAD,))
    assert (normal, n1) == merged_reports(grid, (PEAK_LOAD,))
    assert normal.entries[0].kind == "nonconvergence"
    assert any(v.kind == "nonconvergence" for v in n1.entries)


def test_overloads_of_interleaved_feeders_are_sorted_by_id():
    # the feeder of x1 and z1 is the first block, so its verdicts come
    # before those of y1; the report still lists the lines by id
    b = GridBuilder(CABLE_150)
    b.infeed("h1", "m1", 0.0, 0.0)
    for bus, x in (("a1", 1000.0), ("a2", 2000.0), ("b1", -1000.0)):
        b.bus(bus, "secondary_substation", x, 0.0)
        b.load(bus, 0.3)
    b.line("x1", "m1", "a1", 1.0, CABLE_150, breaker_at=("m1",))
    b.line("y1", "m1", "b1", 1.0, CABLE_150, breaker_at=("m1",))
    b.line("z1", "a1", "a2", 1.0, CABLE_150)
    grid = b.build()
    tight = replace(PEAK_LOAD, loading_max=0.0)
    report = check_normal_operation(grid, (tight,))
    assert report == merged_reports(grid, (tight,))[0]
    assert [v.element for v in report.entries if v.kind == "overload"] == ["x1", "y1", "z1"]


def values(result):
    return (result.converged, result.iterations, dict(result.vm), dict(result.va),
            dict(result.loading), result.p_slack_mw, result.q_slack_mvar)


def test_the_checks_merge_no_load_flow(monkeypatch):
    merge = PfResult._merge
    merges = []
    monkeypatch.setattr(PfResult, "_merge", lambda self: merges.append(self) or merge(self))
    solves = counted_solves(monkeypatch)
    grid = fx.example_area()
    scenarios = principles_from_dict(fx.example_principles_dict()).scenarios
    both_checks(grid, scenarios)
    assert len(solves) > len(scenarios) and merges == []

    # a result merges once, on the first read of any of its dicts, into
    # what the reference solve gives; it equals a result built from its values
    for first in ("vm", "va", "loading"):
        result = run_power_flow(grid, scenarios[0])
        getattr(result, first)
        assert exact(result) == exact(reference_power_flow(grid, scenarios[0]))
        assert result == PfResult(*values(result))
    assert len(merges) == 3
    assert result != PfResult(*values(result)[:-1], result.q_slack_mvar + 1.0)
