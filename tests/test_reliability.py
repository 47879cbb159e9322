"""Outage bookkeeping: fault effects, annual outage energies, ASIDI and the
automation loop that repairs violated limits.

The oracle enumerates instead of searching: for every line fault it walks
the galvanic closure by hand, and decides remote resuppliability by trying
all 2^r position assignments of the remote-controlled switches. Agreement
with the package has to be exact — both sides do the same finite sums.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import gridforge.fixtures as fx
from gridforge import reliability
from gridforge.fixtures import CABLE_150, GridBuilder
from gridforge.reliability import (
    FmeaResult,
    ReliabilityError,
    ReliabilityParams,
    _automate,
    apply_automation,
    check_reliability,
    fmea,
    installed_power_kw,
    outage_matrix,
)

from test_topology import with_switch_state

PARAMS = ReliabilityParams()


# --------------------------------------------------------------------------
# oracle: reachability, fault closure, trip set, remote enumeration


def live_buses(grid, state, exclude=frozenset()):
    buses = sorted(b.id for b in grid.buses)
    index = {b: i for i, b in enumerate(buses)}
    rows, cols = [], []
    for line in grid.lines:
        if not line.in_service or line.id in exclude:
            continue
        if all(state[s.id] for s in grid.switches_by_line.get(line.id, ())):
            rows.append(index[line.from_bus])
            cols.append(index[line.to_bus])
    for t in grid.transformers:
        rows.append(index[t.hv_bus])
        cols.append(index[t.lv_bus])
    n = len(buses)
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    sourced = {labels[index[s.bus]] for s in grid.external_sources}
    return frozenset(b for b in buses if labels[index[b]] in sourced)


def fault_zone(grid, failed, state, *, collect_breakers=False):
    """Buses galvanically tied to the fault spot through closed switches.

    With ``collect_breakers`` the walk stops at closed circuit breakers and
    reports them instead — exactly the devices whose protection sees the
    fault current.
    """
    breakers = set()
    zone, bodies = set(), {failed.id}

    def passes(bus, line):
        sw = grid.switch_at.get((bus, line.id))
        if sw is None:
            return True
        if not state[sw.id]:
            return False
        if collect_breakers and sw.kind == "circuit_breaker":
            breakers.add(sw.id)
            return False
        return True

    frontier = []
    for end in (failed.from_bus, failed.to_bus):
        if passes(end, failed) and end not in zone:
            zone.add(end)
            frontier.append(end)
    while frontier:
        bus = frontier.pop()
        for line in grid.lines_at_bus.get(bus, ()):
            if not line.in_service or line.id in bodies:
                continue
            if not passes(bus, line):
                continue
            bodies.add(line.id)
            other = line.to_bus if line.from_bus == bus else line.from_bus
            if passes(other, line) and other not in zone:
                zone.add(other)
                frontier.append(other)
    return (breakers, zone, bodies) if collect_breakers else (zone, bodies)


def fault_effects_oracle(grid, line_id, state):
    """(affected stations, remote-resuppliable subset) for one line fault."""
    failed = grid.lines_by_id[line_id]
    stations = {b.id for b in grid.stations()}
    pre = live_buses(grid, state)
    if failed.from_bus not in pre and failed.to_bus not in pre:
        return frozenset(), frozenset()

    tripped, _, _ = fault_zone(grid, failed, state, collect_breakers=True)
    post = dict(state)
    for sid in tripped:
        post[sid] = False
    after = live_buses(grid, post, exclude={line_id})
    affected = (pre - after) & stations

    remotes = sorted(s.id for s in grid.switches if s.remote_controlled)
    resupplied = set()
    for bits in itertools.product((False, True), repeat=len(remotes)):
        trial = dict(post)
        trial.update(zip(remotes, bits))
        zone, _ = fault_zone(grid, failed, trial)
        live = live_buses(grid, trial, exclude={line_id})
        if zone & live:
            continue  # this switching set would feed the fault
        resupplied |= affected & live
    return frozenset(affected), frozenset(resupplied)


def outage_matrix_oracle(grid, params, state, *, ring_protection=False):
    matrix = {}
    t_fast = params.t_locate + params.t_remote
    t_slow = params.t_locate + params.t_onsite
    for line in grid.lines:
        if not line.in_service:
            continue
        if ring_protection:
            # single-source fixtures: a conducting line sits on a loop iff
            # both its ends stay energized once the line itself is ignored
            conducting = all(state[s.id]
                             for s in grid.switches_by_line.get(line.id, ()))
            still_live = live_buses(grid, state, exclude={line.id})
            if (conducting and line.from_bus in still_live
                    and line.to_bus in still_live):
                matrix[line.id] = {}
                continue
        affected, remote = fault_effects_oracle(grid, line.id, state)
        matrix[line.id] = {st: t_fast if st in remote else t_slow
                           for st in affected}
    return matrix


def fmea_oracle(grid, params, state, *, ring_protection=False):
    matrix = outage_matrix_oracle(grid, params, state,
                                  ring_protection=ring_protection)
    installed = {b.id: 0.0 for b in grid.stations()}
    for inj in grid.injections:
        if inj.category == "load" and inj.bus in installed:
            installed[inj.bus] += inj.sn * inj.p_factor * 1000.0
    t_out = {st: 0.0 for st in installed}
    for line_id, row in matrix.items():
        line = grid.lines_by_id[line_id]
        lt = grid.line_types_by_name[line.line_type]
        h = params.failure_rate[lt.construction] * line.length
        for st, t in row.items():
            t_out[st] += h * t
    e_out = {st: installed[st] * t_out[st] for st in installed}
    asidi = sum(e_out.values()) / sum(installed.values())
    return matrix, t_out, e_out, asidi


def assert_fmea_matches(grid, state=None, *, ring_protection=False):
    if state is not None:
        grid = with_switch_state(grid, state)
    state = {s.id: s.closed for s in grid.switches}
    result = fmea(grid, PARAMS, ring_protection=ring_protection)
    matrix, t_out, e_out, asidi = fmea_oracle(grid, PARAMS, state,
                                              ring_protection=ring_protection)
    assert set(result.outage_matrix) == set(matrix)
    for line_id, row in matrix.items():
        assert result.outage_matrix[line_id] == row, line_id
    for st in t_out:
        assert result.t_out[st] == pytest.approx(t_out[st], rel=1e-12, abs=1e-15)
        assert result.e_out[st] == pytest.approx(e_out[st], rel=1e-12, abs=1e-15)
    assert result.asidi == pytest.approx(asidi, rel=1e-12)


# --------------------------------------------------------------------------
# exhaustive equivalence on every small fixture


@pytest.mark.parametrize("build", [
    fx.single_station_grid,
    fx.two_bus_grid,
    fx.open_ring_demo,
    fx.coupled_ring_demo,
    fx.station_ring_demo,
    fx.resupply_demo,
    fx.double_feeder_grid,
], ids=lambda f: f.__name__)
def test_fmea_equals_exhaustive_enumeration(build):
    assert_fmea_matches(build())


def test_fmea_matches_on_ring_pair():
    assert_fmea_matches(fx.ring_pair_grid(1.6))
    assert_fmea_matches(fx.ring_pair_grid(1.9))


def test_fmea_matches_under_random_switch_states():
    grid = fx.double_feeder_grid()
    rng = random.Random(5)
    for _ in range(8):
        state = {s.id: rng.random() < 0.75 for s in grid.switches}
        assert_fmea_matches(grid, state)


def test_fmea_matches_with_ring_protection():
    assert_fmea_matches(fx.coupled_ring_demo(), ring_protection=True)
    assert_fmea_matches(fx.open_ring_demo(), ring_protection=True)


# --------------------------------------------------------------------------
# hand-checkable case


def test_single_station_hand_numbers():
    result = fmea(fx.single_station_grid(), PARAMS)
    # 10 km * 0.02 faults/(km a) = 0.2 faults/a, each 0.75 + 0.25 = 1 h
    assert result.t_out["s1"] == pytest.approx(0.2, abs=1e-12)
    assert result.e_out["s1"] == pytest.approx(20.0, abs=1e-9)
    assert result.asidi == pytest.approx(0.2, abs=1e-12)


def test_installed_power_counts_loads_only():
    grid = fx.example_area()
    installed = installed_power_kw(grid)
    assert installed["b3"] == pytest.approx(1.0 * 0.97 * 1000.0)  # wind ignored
    assert all(v >= 0 for v in installed.values())
    total = sum(inj.sn * inj.p_factor for inj in grid.injections
                if inj.category == "load")
    assert sum(installed.values()) == pytest.approx(total * 1000.0)


def test_fmea_requires_installed_load():
    grid = fx.two_bus_grid().replace(injections=())
    with pytest.raises(ValueError, match="no installed load"):
        fmea(grid, PARAMS)


# --------------------------------------------------------------------------
# failure-rate table


def test_rate_for_prefers_insulation_specific_rates():
    params = ReliabilityParams(failure_rate={
        "cable": 0.02, "overhead": 0.05, "cable:paper": 0.08})
    assert params.rate_for("cable", None) == 0.02
    assert params.rate_for("cable", "vpe") == 0.02  # no specific entry
    assert params.rate_for("cable", "paper") == 0.08
    with pytest.raises(ValueError, match="no failure rate"):
        params.rate_for("subsea", None)


def test_ring_protection_suppresses_loop_faults_only():
    grid = fx.coupled_ring_demo()
    matrix = outage_matrix(grid, PARAMS, ring_protection=True)
    loop_lines = {"f1", "f2", "f3", "f4", "f5", "f6", "tie"}
    for line_id in loop_lines:
        assert matrix[line_id] == {}
    result = fmea(grid, PARAMS, ring_protection=True)
    assert result.asidi == 0.0


# --------------------------------------------------------------------------
# constraint comparison and grandfathering


def test_check_reliability_accepts_the_baseline_itself():
    grid = fx.double_feeder_grid()
    baseline = fmea(grid, PARAMS)
    assert check_reliability(grid, PARAMS, baseline) == []


def test_station_energy_limit_fires():
    params = ReliabilityParams(e_out_max=10.0)
    grid = fx.single_station_grid()
    generous = FmeaResult({}, {"s1": 0.0}, {"s1": 0.0}, {"s1": 100.0}, asidi=1.0)
    violations = check_reliability(grid, params, generous)
    assert [(v.kind, v.element) for v in violations] == [("station_energy", "s1")]
    assert violations[0].value == pytest.approx(20.0)
    assert violations[0].limit == pytest.approx(10.0)
    assert violations[0].magnitude == pytest.approx(10.0)


def test_grandfathered_station_may_stay_over_the_limit():
    params = ReliabilityParams(e_out_max=10.0)
    grid = fx.single_station_grid()
    baseline = fmea(grid, params)  # e_out 20 kWh/a, already over the limit
    assert baseline.e_out["s1"] == pytest.approx(20.0)
    assert check_reliability(grid, params, baseline) == []
    # but any further increase is a violation
    worse = grid.replace(lines=tuple(
        dataclasses.replace(l, length=12.0) for l in grid.lines))
    violations = check_reliability(worse, params, baseline)
    kinds = {v.kind for v in violations}
    assert "station_energy" in kinds and "asidi_increase" in kinds


def test_asidi_increase_is_flagged():
    base_grid = fx.ring_pair_grid(1.6)
    baseline = fmea(base_grid, PARAMS)
    worse = fmea(fx.ring_pair_grid(1.9), PARAMS)
    assert worse.asidi > baseline.asidi
    violations = check_reliability(fx.ring_pair_grid(1.9), PARAMS, baseline)
    assert any(v.kind == "asidi_increase" and v.element == "grid"
               for v in violations)


# --------------------------------------------------------------------------
# automation


def test_automation_marks_all_switches_of_the_station():
    grid = fx.double_feeder_grid()
    automated = apply_automation(grid, "s4")
    for s in automated.switches:
        if s.bus == "s4":
            assert s.remote_controlled
    untouched = [s for s in automated.switches if s.bus != "s4"]
    assert untouched == [s for s in grid.switches if s.bus != "s4"]


@pytest.mark.parametrize("build", [fx.double_feeder_grid,
                                   lambda: fx.ring_pair_grid(1.8)],
                         ids=["double_feeder", "ring_pair"])
def test_automation_never_worsens_any_outage_time(build):
    grid = build()
    before = fmea(grid, PARAMS)
    for station in sorted(b.id for b in grid.stations()):
        after = fmea(apply_automation(grid, station), PARAMS)
        for st in before.t_out:
            assert after.t_out[st] <= before.t_out[st] + 1e-12, (station, st)
        assert after.asidi <= before.asidi + 1e-12


def test_automation_loop_repairs_the_ring_pair():
    baseline = fmea(fx.ring_pair_grid(1.6), PARAMS)
    grid = fx.ring_pair_grid(1.9)
    assert check_reliability(grid, PARAMS, baseline), "fixture must start violated"

    chosen = _automate(grid, PARAMS, baseline)[0]
    assert chosen == ["r6", "r5", "r7", "r8", "r3", "r4", "r2"]
    for bus in chosen:
        grid = apply_automation(grid, bus)
    result = fmea(grid, PARAMS)
    assert check_reliability(grid, PARAMS, baseline) == []
    assert result.asidi <= baseline.asidi + 1e-9
    assert max(result.e_out.values()) <= PARAMS.e_out_max


def test_automation_loop_runs_one_fmea_per_round(monkeypatch):
    # a round with an ASIDI violation ranks the feeders on the FMEA that
    # found the violation, not on a second one
    baseline = fmea(fx.ring_pair_grid(1.6), PARAMS)
    grid = fx.ring_pair_grid(1.9)
    assert any(v.kind == "asidi_increase" for v in check_reliability(grid, PARAMS, baseline))
    calls = []
    monkeypatch.setattr(reliability, "fmea", lambda *args: calls.append(1) or fmea(*args))
    chosen = _automate(grid, PARAMS, baseline)[0]
    assert len(calls) == len(chosen) + 1


def test_automation_loop_returns_empty_when_already_compliant():
    grid = fx.double_feeder_grid()
    baseline = fmea(grid, PARAMS)
    assert _automate(grid, PARAMS, baseline)[0] == []


def test_automation_loop_raises_when_out_of_options():
    short = fx.single_station_grid().replace(lines=tuple(
        dataclasses.replace(l, length=1.0)
        for l in fx.single_station_grid().lines))
    baseline = fmea(short, PARAMS)
    grid = fx.single_station_grid()  # ten times the failure exposure
    with pytest.raises(ReliabilityError) as info:
        _automate(grid, PARAMS, baseline)[0]
    assert info.value.violations, "the error must carry the residual violations"
