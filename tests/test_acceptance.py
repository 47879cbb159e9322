"""The acceptance gate: one test per shipped guarantee.

Each test re-checks a headline property of the engine end to end, against
the independent oracles that live next to the unit tests (closed-form and
fixed-point power flow, exhaustive failure enumeration, annuity
amortization, subset enumeration, empty-circumcircle neighbours).  Every
test appends a PASS/FAIL one-liner to RESULTS, which conftest prints as a
block after the run, so the verdict on each guarantee is visible at a
glance even in a long pytest log.

The tolerances and budgets asserted here are contractual: loosening one is
an interface change, not a test fix.
"""

import functools
import itertools
import math
import random
import time

import numpy as np
import pytest

from gridforge import fixtures as fx
from gridforge import power_flow
from gridforge.economics import CostModel, annualize
from gridforge.grid_model import validate_grid
from gridforge.pipeline import _flag_contingency_supply, run_area, write_report
from gridforge.planner import PlannerParams, _delaunay_pairs, ils
from gridforge.power_flow import (
    S_BASE_MVA,
    check_contingency_operation,
    check_normal_operation,
    run_power_flow,
)
from gridforge.principles import principles_from_dict
from gridforge.reliability import (
    ReliabilityParams,
    _automate,
    apply_automation,
    check_reliability,
    fmea,
)
from gridforge.topology import (
    check_contingency_supply,
    check_radiality,
    _energized,
    check_supply,
)

import test_economics
import test_pipeline
import test_planner
import test_power_flow
import test_reliability
import test_topology

RESULTS: list[str] = []


def _verdict(name: str, ok: bool, detail: str) -> None:
    RESULTS.append(f"{'PASS' if ok else 'FAIL'}  {name} -- {detail}")


def criterion(name: str):
    """Record one summary line per test, even when the test blows up."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                _verdict(name, False, f"{type(exc).__name__}: {exc}")
                raise
            _verdict(name, True, detail or "ok")

        return wrapper

    return deco


# --------------------------------------------------------------------------
# solver correctness


@criterion("newton voltages match two independent solvers")
def test_01_power_flow_matches_independent_solvers():
    started = time.perf_counter()
    peak = test_power_flow.PEAK_LOAD

    # closed form on the two-bus case
    grid = fx.two_bus_grid(length_km=5.0, sn_mva=4.0, p_factor=0.97)
    result = run_power_flow(grid, peak)
    assert result.converged
    iterations = result.iterations
    z_base = 20.0 ** 2 / S_BASE_MVA
    p = 4.0 * 0.97
    q = 4.0 * math.sqrt(1.0 - 0.97 ** 2)
    expected = test_power_flow.closed_form_two_bus(
        1.0, p, q,
        fx.CABLE_150.r_per_km * 5.0 / z_base,
        fx.CABLE_150.x_per_km * 5.0 / z_base)
    worst = abs(result.vm["s1"] - expected)
    assert worst <= 1e-6

    # fixed point on a dozen random radial grids of up to 30 buses
    for seed in range(12):
        rng = random.Random(9000 + seed)
        grid = test_power_flow.random_radial_grid(rng, rng.randint(5, 28))
        assert len(grid.buses) <= 30
        result = run_power_flow(grid, peak)
        assert result.converged, f"seed {seed} did not converge"
        iterations += result.iterations
        vm, va = test_power_flow.fixed_point_solve(grid, peak)
        for bus in result.vm:
            nr = result.vm[bus] * complex(math.cos(result.va[bus]),
                                          math.sin(result.va[bus]))
            fp = vm[bus] * complex(math.cos(va[bus]), math.sin(va[bus]))
            worst = max(worst, abs(nr - fp))
    assert worst <= 1e-6
    elapsed = time.perf_counter() - started
    # a Newton budget that machine speed cannot move
    assert iterations <= 35, f"{iterations} Newton iterations in {elapsed:.2f} s"
    return (f"closed form + 12 random radial grids, max |dV| {worst:.2e} pu, "
            f"{iterations} Newton iterations in {elapsed:.2f} s")


@criterion("analytic jacobian matches central differences")
def test_02_jacobian_matches_finite_differences():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(100):
        ybus, vm, va, sbus, pq = test_power_flow.random_state(rng)
        analytic = test_power_flow.polar_jacobian(ybus, vm, va, pq)
        numeric = test_power_flow.finite_difference_jacobian(ybus, vm, va, sbus, pq)
        rel = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(analytic))
        worst = max(worst, rel)
        assert rel <= 1e-6
    return f"100 random states, worst relative error {worst:.2e}"


# --------------------------------------------------------------------------
# outage bookkeeping


@criterion("failure effects equal exhaustive enumeration")
def test_03_fmea_equals_brute_force_enumeration():
    small = [fx.single_station_grid, fx.two_bus_grid, fx.open_ring_demo,
             fx.coupled_ring_demo, fx.station_ring_demo, fx.resupply_demo,
             fx.double_feeder_grid,
             lambda: fx.ring_pair_grid(1.6), lambda: fx.ring_pair_grid(1.9)]
    for build in small:
        grid = build()
        assert len(grid.lines) <= 12
        test_reliability.assert_fmea_matches(grid)

    # the hand-checkable single-station numbers
    result = fmea(fx.single_station_grid(), ReliabilityParams())
    assert result.t_out["s1"] == pytest.approx(0.2, abs=1e-12)
    assert result.e_out["s1"] == pytest.approx(20.0, abs=1e-9)
    assert result.asidi == pytest.approx(0.2, abs=1e-12)
    return (f"{len(small)} fixtures exact vs enumeration; hand case "
            f"0.2 h/a, 20 kWh/a, ASIDI 0.2 h/a")


# --------------------------------------------------------------------------
# money


@criterion("annuities are exact and a station buys over 5 km of cable")
def test_04_cost_annualization_matches_amortization():
    assert annualize(1000.0, 10.0, 1.0) == 1100.0  # exact, not approx

    worst = 0.0
    for c, i, m in itertools.product((1.0, 740.0, 35000.0, 123456.78),
                                     (0.5, 2.0, 5.0, 7.3, 10.0),
                                     (1, 2, 5, 10, 35, 40, 80)):
        expected = test_economics.annuity_by_amortization(c, i, m)
        rel = abs(annualize(c, i, m) - expected) / expected
        worst = max(worst, rel)
        assert rel <= 1e-9, (c, i, m)

    model = CostModel()
    ratio = model.switching_station / model.cable_per_km
    assert 5.128 < ratio < 5.129
    return (f"140-point amortization grid, worst rel {worst:.1e}; "
            f"station/cable ratio {ratio:.4f} km")


# --------------------------------------------------------------------------
# search quality


@criterion("measure search finds the exhaustive optimum")
def test_05_search_matches_exhaustive_enumeration():
    params = PlannerParams(max_evaluations=6000, non_improving_limit=12,
                           restarts=3, perturbation=0.3)
    hits = evaluations = 0
    started = time.perf_counter()
    for seed in range(100):
        pool, objective, cover, costs, full = test_planner.make_cover_instance(seed)
        want = test_planner.exhaustive_subset_optimum(cover, costs, full)
        result = ils(pool, objective, params, seed=seed)
        got = result.best
        evaluations += result.evaluations
        if want[0] == 0:
            # a feasible subset exists, so the search must never settle on
            # an infeasible one, optimal or not
            assert got.feasible, f"instance {seed} lost feasibility"
        if got.violation_count == want[0] and abs(got.cost - want[1]) <= 1e-9:
            hits += 1
    elapsed = time.perf_counter() - started
    assert hits >= 95, f"only {hits}/100 runs found the exhaustive optimum"
    # a budget that machine speed cannot move
    assert evaluations <= 39_433, f"{evaluations} evaluations in {elapsed:.1f} s"
    return (f"{hits}/100 exhaustive optima (95 required), {evaluations} "
            f"evaluations in {elapsed:.1f} s")


# --------------------------------------------------------------------------
# structure verdicts and switching drills


@criterion("structure verdicts and the resupply drill behave")
def test_06_radiality_triptych_and_resupply_sequence():
    assert check_radiality(fx.open_ring_demo()) == []  # open ring: fine
    coupled = check_radiality(fx.coupled_ring_demo())  # closed tie: flagged
    assert [v.kind for v in coupled] == ["feeder_coupling"]
    assert check_radiality(fx.station_ring_demo()) == []  # via station: fine

    grid = fx.resupply_demo()
    seq = test_topology.resupply(grid, "l2")
    # four steps: the breaker trips, the fault is isolated on both sides,
    # the breaker re-closes, the tie picks up the far section
    assert [(a.switch, a.action, a.stage) for a in seq.actions] == [
        ("l1@mv", "open", "trip"),
        ("l2@s1", "open", "isolate"),
        ("l2@s2", "open", "isolate"),
        ("l1@mv", "close", "resupply"),
        ("tie@s2", "close", "resupply"),
    ]
    assert seq.unsupplied == ()
    live = _energized(grid, seq.resulting_state, frozenset(("l2",)))
    assert {b.id for b in grid.stations()} <= live
    return ("verdicts pass/fail/pass; trip, isolate, re-close and tie "
            "resupply every station")


@criterion("neighbour pairs satisfy the empty-circumcircle test")
def test_07_neighbour_pairs_match_brute_force():
    for case in range(100):
        rng = random.Random(31000 + case)
        points = test_planner.random_points(rng, rng.randint(4, 25))
        want = test_planner.brute_force_delaunay(points)
        assert _delaunay_pairs(points) == want, f"case {case}"

    # degenerate input falls back to a deterministic chain along the line
    points = [(float(3 * k % 7), float(3 * k % 7)) for k in range(7)]
    order = sorted(range(len(points)), key=lambda i: points[i])
    chain = {tuple(sorted(p)) for p in zip(order, order[1:])}
    assert _delaunay_pairs(points) == chain
    return "100/100 random sets agree; collinear input yields the sorted chain"


# --------------------------------------------------------------------------
# the whole machine


@criterion("whole-area comparison is feasible, valid and byte-stable")
def test_08_example_area_end_to_end(tmp_path, monkeypatch):
    area = fx.example_area()
    principles = principles_from_dict(fx.example_principles_dict())
    assert 20 <= len(area.stations()) <= 30

    started = time.perf_counter()
    first = run_area(area, principles, area="example")
    t_first = time.perf_counter() - started

    # every concept must deliver a reference plan, and each reference must
    # survive the full validator battery re-run here, from the stored grid
    assert set(first.references) == {"radial", "closed_ring", "switching_station"}
    baseline = fmea(_flag_contingency_supply(area), principles.reliability)
    for concept, ref in first.references.items():
        assert ref is not None and ref.feasible, concept
        grid = ref.grid
        findings = [str(f) for f in validate_grid(grid)]
        findings += [str(v) for v in check_supply(grid)]
        if concept != "closed_ring":
            findings += [str(v) for v in check_radiality(grid)]
        findings += [str(v) for v in check_contingency_supply(grid)]
        report = check_normal_operation(grid, principles.scenarios).merged(
            check_contingency_operation(grid, principles.scenarios))
        findings += [str(v) for v in report.entries]
        if concept != "closed_ring":
            findings += [str(v) for v in
                         check_reliability(grid, principles.reliability, baseline)]
        assert findings == [], (concept, findings)

    # a second run from scratch must serialize to the very same bytes; it
    # also counts its load flows, block Newtons and N-1 case computations,
    # a budget that machine speed cannot move
    solves, blocks, cases = (test_pipeline.counted(monkeypatch, power_flow, name) for name in
                             ("run_power_flow", "_solve_block", "contingency_cases"))
    second = run_area(area, principles, area="example")
    assert 0 < len(solves) <= 9_289
    assert 0 < len(blocks) <= 1_616
    assert 0 < len(cases) <= 345
    stamp = "2026-01-01T00:00:00+00:00"
    write_report(first, tmp_path / "a", timestamp=stamp)
    write_report(second, tmp_path / "b", timestamp=stamp)
    files_a = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b")
                     for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
    return (f"3 references revalidated clean; {len(files_a)} report files "
            f"byte-identical across runs; winner {first.winner}; "
            f"run took {t_first:.1f} s with {len(solves)} load flows, "
            f"{len(blocks)} block Newtons and {len(cases)} N-1 case computations")


@criterion("cost trade-offs point in the documented directions")
def test_09_tradeoffs_follow_the_price_signals():
    principles = principles_from_dict(fx.tradeoff_principles_dict())

    # station area: removal needs little extra cable, so radial must win
    station = run_area(fx.station_tradeoff_area(), principles, area="station")
    radial_km = sum(m.length_km for m in station.references["radial"].measures
                    if m.kind == "AddTrail")
    keep_km = sum(m.length_km
                  for m in station.references["switching_station"].measures
                  if m.kind == "AddTrail")
    breakeven = CostModel().switching_station / CostModel().cable_per_km
    assert radial_km - keep_km < breakeven
    assert station.winner == "radial"
    assert station.deltas["radial"]["switching_station"] < 0.0

    # mesh area: a cheap communication link makes the closed ring pay off...
    cheap = run_area(fx.mesh_tradeoff_area(), principles, area="mesh")
    delta_cheap = cheap.deltas["closed_ring"]["radial"]
    assert cheap.winner == "closed_ring" and delta_cheap < 0.0

    # ...and pricing the link above the saved reinforcement flips the call
    dear_principles = principles_from_dict(
        fx.tradeoff_principles_dict(communication_link=30000.0))
    dear = run_area(fx.mesh_tradeoff_area(), dear_principles, area="mesh")
    delta_dear = dear.deltas["closed_ring"]["radial"]
    assert dear.winner == "radial" and delta_dear > 0.0
    return (f"station removal wins with {radial_km - keep_km:.2f} km extra "
            f"cable (break-even {breakeven:.2f} km); ring delta "
            f"{delta_cheap:+.0f} EUR/a flips to {delta_dear:+.0f} with dear links")


@criterion("the automation loop repairs reliability violations")
def test_10_automation_loop_terminates_and_complies():
    params = ReliabilityParams()
    baseline = fmea(fx.ring_pair_grid(1.6), params)
    grid = fx.ring_pair_grid(1.9)
    before = check_reliability(grid, params, baseline)
    assert before, "fixture must start in violation"

    chosen = _automate(grid, params, baseline)[0]
    assert chosen
    for bus in chosen:
        grid = apply_automation(grid, bus)
    after = fmea(grid, params)
    assert check_reliability(grid, params, baseline) == []
    assert after.asidi <= baseline.asidi + 1e-9
    assert params.e_out_max == 150.0
    assert max(after.e_out.values()) <= params.e_out_max
    return (f"{len(before)} violations cleared by automating {len(chosen)} "
            f"stations; ASIDI {after.asidi:.3f} <= {baseline.asidi:.3f} h/a, "
            f"worst station {max(after.e_out.values()):.0f} <= "
            f"{params.e_out_max:.0f} kWh/a")
