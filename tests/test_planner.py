"""Planner tests.

The two search components get independent oracles: the subset search is
checked against exhaustive enumeration of every measure combination, and
the neighbour-pair generator against a brute-force empty-circumcircle
test.  The staged phases run on small fixtures with frozen outcomes.
"""

import itertools
import math
import random
import time
from contextlib import nullcontext
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridforge import fixtures as fx
from gridforge import planner, power_flow
from gridforge.economics import CostModel, concept_overhead
from gridforge.grid_model import air_line_km, default_scenarios
from gridforge.planner import (
    Measure,
    PlannerError,
    PlannerParams,
    _delaunay_pairs,
    apply_measures,
    candidate_trails,
    dismantle,
    ils,
    phase1_topologies,
    phase2_reinforce,
    phase3_automate,
    phase4_mesh,
)
from gridforge.pipeline import _flag_contingency_supply, run_area
from gridforge.power_flow import (
    PlanMemo,
    check_contingency_operation,
    check_normal_operation,
    contingency_cases,
)
from gridforge.principles import principles_from_dict
from gridforge.reliability import ReliabilityParams, check_reliability, fmea
from gridforge.topology import check_contingency_supply, check_radiality, check_supply

# The planning fixtures hold their slack busbars at 1.05 pu, so operational
# checks run with the relaxed upper band the principles files use.
SCENARIOS = tuple(replace(s, v_max=1.06) for s in default_scenarios())


# --------------------------------------------------------------------------
# oracle 1: exhaustive subset enumeration
#
# Weighted cover instances: each measure covers a few elements of a small
# universe, uncovered elements count as violations.  The search documents
# that any feasible subset beats every infeasible one and that cost breaks
# ties, so the exhaustive optimum is the lexicographic minimum of
# (uncovered elements, total cost) over all 2^n activation vectors.


def make_cover_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(8, 13)
    universe = rng.randint(5, 9)
    cover, costs = [], []
    for i in range(n):
        bits = 0
        for e in rng.sample(range(universe), rng.randint(1, max(2, universe // 2))):
            bits |= 1 << e
        cover.append(bits)
        costs.append(float(rng.randrange(500, 4000, 7)))
    pool = [Measure(kind="AutomateStation", target=f"m{i}", cost_per_year=costs[i])
            for i in range(n)]
    index = {f"m{i}": i for i in range(n)}
    full = (1 << universe) - 1

    def objective(active):
        covered, cost = 0, 0.0
        for m in active:
            covered |= cover[index[m.target]]
            cost += m.cost_per_year
        return cost, lambda: ((full & ~covered).bit_count(), 0.0)

    return pool, objective, cover, costs, full


def exhaustive_subset_optimum(cover, costs, full):
    """(uncovered, cost) minimum over all subsets, by incremental masks."""
    n = len(cover)
    cost_of = [0.0] * (1 << n)
    bits_of = [0] * (1 << n)
    best = (full.bit_count() + 1, float("inf"))
    for mask in range(1 << n):
        if mask:
            low = mask & -mask
            i = low.bit_length() - 1
            cost_of[mask] = cost_of[mask ^ low] + costs[i]
            bits_of[mask] = bits_of[mask ^ low] | cover[i]
        key = ((full & ~bits_of[mask]).bit_count(), cost_of[mask])
        if key < best:
            best = key
    return best


# --------------------------------------------------------------------------
# oracle 2: brute-force empty-circumcircle neighbour test
#
# An edge belongs to the triangulation exactly when some triangle through
# it has a circumcircle free of all other points (general position).


def brute_force_delaunay(points):
    n = len(points)
    if n <= 1:
        return set()
    if n <= 3:
        return {(i, j) for i in range(n) for j in range(i + 1, n)}
    edges = set()
    for i, j, k in itertools.combinations(range(n), 3):
        ax, ay = points[i]
        bx, by = points[j]
        cx, cy = points[k]
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if d == 0.0:
            continue  # collinear triple spans no circle
        a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
        ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
        uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
        r2 = (ax - ux) ** 2 + (ay - uy) ** 2
        if any((px - ux) ** 2 + (py - uy) ** 2 < r2 * (1.0 - 1e-9)
               for m, (px, py) in enumerate(points) if m not in (i, j, k)):
            continue
        edges.update(((min(i, j), max(i, j)), (min(i, k), max(i, k)),
                      (min(j, k), max(j, k))))
    return edges


def random_points(rng, n):
    return [(rng.uniform(0.0, 5000.0), rng.uniform(0.0, 5000.0)) for _ in range(n)]


# --------------------------------------------------------------------------
# search core


def test_search_matches_exhaustive_enumeration():
    params = PlannerParams(max_evaluations=6000, non_improving_limit=12,
                           restarts=3, perturbation=0.3)
    hits = evaluations = 0
    started = time.monotonic()
    for seed in range(100):
        pool, objective, cover, costs, full = make_cover_instance(seed)
        want = exhaustive_subset_optimum(cover, costs, full)
        result = ils(pool, objective, params, seed=seed)
        got = result.best
        evaluations += result.evaluations
        if want[0] == 0:
            # a feasible subset exists, so the search must never settle on
            # an infeasible one, optimal or not
            assert got.feasible, f"instance {seed} lost feasibility"
        if got.violation_count == want[0] and abs(got.cost - want[1]) <= 1e-9:
            hits += 1
    elapsed = time.monotonic() - started
    assert hits >= 95, f"only {hits}/100 runs found the exhaustive optimum"
    # a budget that machine speed cannot move
    assert evaluations <= 39_433, f"{evaluations} evaluations in {elapsed:.1f} s"


def test_search_rejects_an_empty_pool():
    with pytest.raises(ValueError, match="empty"):
        ils([], lambda active: (0.0, lambda: (0, 0.0)), PlannerParams())


def test_search_rejects_a_zero_evaluation_budget():
    pool = [Measure(kind="AutomateStation", target="a")]
    with pytest.raises(ValueError, match="budget"):
        ils(pool, lambda active: (0.0, lambda: (0, 0.0)), PlannerParams(max_evaluations=0))


def test_search_rejects_a_start_vector_of_the_wrong_length():
    pool = [Measure(kind="AutomateStation", target="a"),
            Measure(kind="AutomateStation", target="b")]
    with pytest.raises(ValueError, match="start vector"):
        ils(pool, lambda active: (0.0, lambda: (0, 0.0)), PlannerParams(), start=[True])


def test_search_evaluates_the_all_off_vector_first():
    pool, objective, *_ = make_cover_instance(4)
    seen = []

    def recorder(active):
        seen.append(active)
        return objective(active)

    ils(pool, recorder, PlannerParams(max_evaluations=50), seed=1)
    assert seen[0] == ()


def test_search_is_deterministic_for_a_fixed_seed():
    pool, objective, *_ = make_cover_instance(7)
    params = PlannerParams(max_evaluations=800, non_improving_limit=5, restarts=1)
    a = ils(pool, objective, params, seed=42)
    b = ils(pool, objective, params, seed=42)
    assert a.best == b.best
    assert a.evaluations == b.evaluations
    assert a.trace == b.trace


def test_search_memoizes_and_respects_the_budget():
    pool, objective, *_ = make_cover_instance(9)
    calls = []

    def counting(active):
        calls.append(active)
        return objective(active)

    result = ils(pool, counting, PlannerParams(max_evaluations=300), seed=5)
    # every objective call is one evaluation; revisited vectors are free
    assert len(calls) == result.evaluations
    assert result.evaluations <= 300


def test_search_survives_a_tiny_budget():
    pool, objective, *_ = make_cover_instance(2)
    result = ils(pool, objective, PlannerParams(max_evaluations=7), seed=0)
    assert result.evaluations <= 7
    assert result.best is not None


def test_search_trace_is_strictly_improving():
    pool, objective, *_ = make_cover_instance(11)
    result = ils(pool, objective, PlannerParams(max_evaluations=2000), seed=3)
    assert result.trace[0][0] == 1  # the first evaluation opens the record
    evals = [e for e, _ in result.trace]
    scores = [s for _, s in result.trace]
    assert evals == sorted(set(evals))
    assert all(b < a for a, b in zip(scores, scores[1:]))


def test_search_keeps_a_cost_free_optimum():
    pool = [Measure(kind="AutomateStation", target=f"m{i}", cost_per_year=100.0)
            for i in range(6)]
    result = ils(pool,
                 lambda active: (sum(m.cost_per_year for m in active), lambda: (0, 0.0)),
                 PlannerParams(max_evaluations=500), seed=8)
    assert result.best.active == (False,) * 6
    assert result.best.cost == 0.0


# --------------------------------------------------------------------------
# oracle 3: the search with eager violations
#
# The search asks for a candidate's violations only when its score can
# matter.  The reference is the search that computes them at every
# evaluation; both must take the same path: the same best candidate,
# evaluation count and trace, also when the budget runs out mid-climb.


def reference_ils(pool, objective, params, *, seed=None, start=None):
    """``objective`` maps the active measures to (cost, count, magnitude).
    Returns (best, evaluations, trace)."""
    n = len(pool)
    rng = random.Random(params.seed if seed is None else seed)
    count_weight = 10.0 * max(sum(m.cost_per_year for m in pool), 1.0)
    memo = {}
    best, evaluations, trace = None, 0, []

    def evaluate(vec):
        nonlocal best, evaluations
        if vec in memo:
            return memo[vec]
        if evaluations >= params.max_evaluations:
            raise planner._BudgetExhausted
        evaluations += 1
        cost, count, magnitude = objective(tuple(m for m, on in zip(pool, vec) if on))
        cand = memo[vec] = planner.CandidateSolution(
            vec, cost, count, magnitude,
            cost + count_weight * count + planner.MAGNITUDE_WEIGHT * magnitude)
        if best is None or cand.score < best.score:
            best = cand
            trace.append((evaluations, cand.score))
        return cand

    def climb(cand):
        improved = True
        while improved:
            improved = False
            order = list(range(n))
            rng.shuffle(order)
            for i in order:
                trial = evaluate(cand.active[:i] + (not cand.active[i],) + cand.active[i + 1:])
                if trial.score < cand.score:
                    cand, improved = trial, True
        return cand

    try:
        current = evaluate((False,) * n)
        if start is not None:
            current = evaluate(tuple(bool(b) for b in start))
        current = climb(current)
        non_improving, restarts_left = 0, params.restarts
        while True:
            score_before = best.score
            kicked = list(current.active)
            for i in rng.sample(range(n), max(1, math.ceil(params.perturbation * n))):
                kicked[i] = not kicked[i]
            cand = climb(evaluate(tuple(kicked)))
            if cand.score <= current.score:
                current = cand
            non_improving = 0 if best.score < score_before else non_improving + 1
            if non_improving >= params.non_improving_limit:
                if restarts_left <= 0:
                    break
                restarts_left -= 1
                non_improving = 0
                current = climb(evaluate(tuple(rng.random() < 0.5 for _ in range(n))))
    except planner._BudgetExhausted:
        pass
    return best, evaluations, tuple(trace)


def eager(objective):
    """The objective with the (cost, count, magnitude) contract."""

    def scored(active):
        cost, violations = objective(active)
        return (cost, *violations())

    return scored


@pytest.mark.parametrize("seed", range(10))
def test_search_takes_the_path_of_eager_violations(seed):
    pool, objective, cover, costs, full = make_cover_instance(seed)
    # every third measure free, so flips tie the bound exactly; and costs
    # below 4 EUR/a, so flips come within a fraction of it
    free = [replace(m, cost_per_year=0.0) if i % 3 == 0 else m
            for i, m in enumerate(pool)]
    tiny = [replace(m, cost_per_year=m.cost_per_year / 1000.0) for m in pool]

    def weighted(active):  # uncovered elements also carry a magnitude
        cost, violations = objective(active)
        return cost, lambda: (violations()[0], 0.25 * violations()[0])

    rng = random.Random(seed)
    start = [rng.random() < 0.5 for _ in pool]
    bounded = 0
    for instance, obj in ((pool, objective), (free, objective), (tiny, objective),
                          (pool, weighted)):
        for budget, restarts, begin in itertools.product(
                (1, 2, 5, 9, 17, 60, 600), (0, 2), (None, start)):
            params = PlannerParams(max_evaluations=budget, restarts=restarts,
                                   non_improving_limit=4,
                                   perturbation=0.3 if seed % 2 else 0.05)
            got = ils(instance, obj, params, seed=seed, start=begin)
            want = reference_ils(instance, eager(obj), params, seed=seed, start=begin)
            assert (got.best, got.evaluations, got.trace) == want
            assert 0 <= got.bounded <= got.evaluations
            bounded += got.bounded
    if exhaustive_subset_optimum(cover, costs, full)[0] == 0:
        # a flip that adds a measure to a feasible candidate is bounded
        assert bounded > 0


def test_a_pending_flip_reached_by_a_kick_is_resolved():
    # from the free all-off optimum both one-bit flips cost more than its
    # score, so the first climb leaves them pending; the one-bit kick then
    # lands on one of them and needs its exact score
    pool = [Measure(kind="AutomateStation", target=f"m{i}", cost_per_year=100.0)
            for i in range(2)]
    called, resolved = [], []

    def objective(active):
        called.append(active)

        def violations():
            resolved.append(active)
            return 0, 0.0

        return sum(m.cost_per_year for m in active), violations

    params = PlannerParams(max_evaluations=50, non_improving_limit=1, restarts=0)
    result = ils(pool, objective, params, seed=0)
    assert sorted(map(len, called[:3])) == [0, 1, 1]  # all-off, then both flips
    assert len(called) == len(set(called)) == result.evaluations == 3
    assert resolved[0] == () and len(resolved) == 2
    kicked = resolved[1]
    assert len(kicked) == 1 and called.index(kicked) < 3  # evaluated in the climb
    assert result.bounded == 1  # the other flip stays pending
    assert (result.best, result.evaluations, result.trace) == reference_ils(
        pool, eager(objective), params, seed=0)


# --------------------------------------------------------------------------
# neighbour pairs


def test_neighbour_pairs_for_tiny_point_sets():
    assert _delaunay_pairs([]) == set()
    assert _delaunay_pairs([(0.0, 0.0)]) == set()
    assert _delaunay_pairs([(0.0, 0.0), (1.0, 1.0)]) == {(0, 1)}
    # three points pair completely, even collinear ones
    assert _delaunay_pairs([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]) == {(0, 1), (0, 2), (1, 2)}
    assert _delaunay_pairs([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]) == {(0, 1), (0, 2), (1, 2)}


def test_neighbour_pairs_match_the_circumcircle_definition():
    for case in range(100):
        rng = random.Random(1000 + case)
        points = random_points(rng, rng.randint(4, 25))
        assert _delaunay_pairs(points) == brute_force_delaunay(points), f"case {case}"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_neighbour_pairs_match_the_oracle_for_random_seeds(seed):
    rng = random.Random(seed)
    points = random_points(rng, rng.randint(4, 12))
    assert _delaunay_pairs(points) == brute_force_delaunay(points)


def test_collinear_points_fall_back_to_a_sorted_chain():
    rng = random.Random(5)
    xs = [float(v) for v in rng.sample(range(-40, 90), 9)]
    points = [(x, 2.0 * x - 7.0) for x in xs]  # shuffled points on one line
    order = sorted(range(len(points)), key=lambda i: points[i])
    chain = {tuple(sorted(p)) for p in zip(order, order[1:])}
    assert _delaunay_pairs(points) == chain


# --------------------------------------------------------------------------
# dismantling


def test_dismantle_strips_only_lines_beyond_the_threshold():
    gone = dismantle(fx.two_bus_grid(length_km=5.0), 2.0)
    assert [l.id for l in gone.lines] == []
    assert gone.meta["removed_lines"] == ["l1"]
    # the threshold itself survives: strictly-longer only
    kept = dismantle(fx.two_bus_grid(length_km=2.0), 2.0)
    assert [l.id for l in kept.lines] == ["l1"]
    assert kept.meta["removed_lines"] == []


def test_dismantle_records_stations_and_busbars_but_not_junctions():
    gone = dismantle(fx.two_bus_grid(), 2.0)
    assert gone.meta["dismantled_stations"] == ["mv", "s1"]
    assert gone.meta["removed_station"] is None
    # switches of removed lines disappear with them
    assert [s for s in gone.switches if s.line == "l1"] == []


def test_dismantle_on_the_station_area():
    area = dismantle(fx.station_tradeoff_area(), 2.0)
    assert area.meta["removed_lines"] == ["sup1a", "sup1b", "sup2a", "sup2b"]
    assert area.meta["dismantled_stations"] == ["m1", "m2", "mv", "ss"]
    assert area.meta["removed_station"] is None
    assert "ss" in area.buses_by_id  # stays unless explicitly removed


def test_dismantle_can_take_the_switching_station_with_it():
    area = dismantle(fx.station_tradeoff_area(), 2.0, remove_station=True)
    assert area.meta["removed_station"] == "ss"
    assert area.meta["removed_lines"] == ["c_1", "c_4", "sup1a", "sup1b",
                                          "sup2a", "sup2b"]
    # the station itself is not on the rebuild list
    assert area.meta["dismantled_stations"] == ["c1", "c4", "m1", "m2", "mv"]
    assert sorted(b.id for b in area.buses) == ["c1", "c2", "c3", "c4",
                                                "hv", "m1", "m2", "mv"]
    assert sorted(l.id for l in area.lines) == ["c_2", "c_3", "c_tie"]
    assert all(s.bus != "ss" for s in area.switches)


def test_dismantle_requires_exactly_one_switching_station():
    with pytest.raises(ValueError, match="found 0"):
        dismantle(fx.two_bus_grid(), 2.0, remove_station=True)


# --------------------------------------------------------------------------
# trail candidates


def test_trail_candidates_cover_the_neighbour_pairs():
    area = dismantle(fx.station_tradeoff_area(), 2.0, remove_station=True)
    trails = candidate_trails(area, fx.CABLE_150.name)
    assert [(m.target, m.to_station) for m in trails] == [
        ("c1", "c4"), ("c1", "m1"), ("c1", "m2"), ("c4", "m2"),
        ("m1", "m2"), ("m1", "mv"), ("m2", "mv")]
    for m in trails:
        assert m.kind == "AddTrail"
        assert m.line_type == fx.CABLE_150.name
        air = air_line_km(area.buses_by_id[m.target], area.buses_by_id[m.to_station])
        assert m.length_km == pytest.approx(air * 1.5)
        assert m.cost_per_year == pytest.approx(m.length_km * 7000.0)
    assert trails[0].length_km == pytest.approx(2.4)  # 1.6 km air line


def test_trail_candidates_skip_pairs_already_joined_by_a_line():
    area = fx.station_tradeoff_area()
    assert candidate_trails(area, fx.CABLE_150.name, stations=["c1", "c2"]) == []
    # an open sectioning point still counts as joined: the line exists
    assert candidate_trails(area, fx.CABLE_150.name, stations=["c2", "c3"]) == []
    free = candidate_trails(area, fx.CABLE_150.name, stations=["c1", "c3"])
    assert [(m.target, m.to_station) for m in free] == [("c1", "c3")]


def test_trail_candidates_need_a_dismantling_record():
    with pytest.raises(ValueError, match="dismantling record"):
        candidate_trails(fx.two_bus_grid(), fx.CABLE_150.name)


def test_trail_candidates_ignore_unknown_station_ids():
    area = dismantle(fx.station_tradeoff_area(), 2.0, remove_station=True)
    trails = candidate_trails(area, fx.CABLE_150.name,
                              stations=["c1", "c4", "ghost"])
    assert [(m.target, m.to_station) for m in trails] == [("c1", "c4")]


def test_trail_candidates_skip_coincident_stations():
    b = fx.GridBuilder(fx.CABLE_150)
    b.infeed("hv", "mv", 0.0, 0.0)
    b.bus("a", "secondary_substation", 100.0, 100.0)
    b.bus("b", "secondary_substation", 100.0, 100.0)  # same cabinet location
    b.bus("c", "secondary_substation", 400.0, 500.0)
    grid = b.build()
    trails = candidate_trails(grid, fx.CABLE_150.name, stations=["a", "b", "c"])
    assert [(m.target, m.to_station) for m in trails] == [("a", "c"), ("b", "c")]


# --------------------------------------------------------------------------
# measure application


def test_replace_line_swaps_the_conductor_type():
    grid = fx.double_feeder_grid()
    out = apply_measures(grid, [Measure(kind="ReplaceLine", target="d2",
                                        line_type=fx.CABLE_300.name)])
    assert out.lines_by_id["d2"].line_type == fx.CABLE_300.name
    assert out.lines_by_id["d1"].line_type == grid.lines_by_id["d1"].line_type
    with pytest.raises(ValueError, match="does not exist"):
        apply_measures(grid, [Measure(kind="ReplaceLine", target="nope",
                                      line_type=fx.CABLE_300.name)])


def test_parallel_lines_get_numbered_ids_and_end_switches():
    grid = fx.double_feeder_grid()
    once = apply_measures(grid, [Measure(kind="AddParallel", target="d2")])
    twin = once.lines_by_id["d2__p1"]
    assert (twin.from_bus, twin.to_bus, twin.length) == ("s1", "s2", 0.8)
    assert twin.line_type == grid.lines_by_id["d2"].line_type
    assert twin.origin == "parallel"
    ends = [s for s in once.switches if s.line == "d2__p1"]
    assert [(s.id, s.bus, s.kind, s.remote_controlled, s.closed) for s in ends] == [
        ("d2__p1_a", "s1", "load_break", False, True),
        ("d2__p1_b", "s2", "load_break", False, True)]
    twice = apply_measures(once, [Measure(kind="AddParallel", target="d2")])
    assert "d2__p2" in twice.lines_by_id


def test_parallel_from_a_busbar_gets_a_remote_breaker():
    grid = fx.double_feeder_grid()
    out = apply_measures(grid, [Measure(kind="AddParallel", target="d1",
                                        line_type="OVERHEAD_50")])
    assert out.lines_by_id["d1__p1"].line_type == "OVERHEAD_50"
    ends = {s.id: s for s in out.switches if s.line == "d1__p1"}
    assert ends["d1__p1_a"].bus == "mv"
    assert ends["d1__p1_a"].kind == "circuit_breaker"
    assert ends["d1__p1_a"].remote_controlled
    assert ends["d1__p1_b"].kind == "load_break"
    assert not ends["d1__p1_b"].remote_controlled


def test_parallel_of_an_open_tie_stays_open_where_the_tie_is():
    mesh = fx.mesh_tradeoff_area()  # h_tie runs r4-r5, open at r4
    out = apply_measures(mesh, [Measure(kind="AddParallel", target="h_tie")])
    ends = {s.bus: s.closed for s in out.switches if s.line == "h_tie__p1"}
    assert ends == {"r4": False, "r5": True}
    assert check_radiality(out) == []


@pytest.mark.parametrize("seed,radial,closed_ring", [
    (16, 26600.0, 15540.0), (19, 31400.0, 19140.0)])
def test_trade_off_seeds_that_double_the_tie_find_plans(seed, radial, closed_ring):
    # these search seeds pick AddParallel on the open tie; a twin built
    # closed closed the ring, and phase 3 then failed every topology
    pr = principles_from_dict(fx.tradeoff_principles_dict(seed=seed))
    report = run_area(fx.mesh_tradeoff_area(), pr, area="mesh")
    costs = {c: r.cost.total for c, r in report.references.items() if r is not None}
    assert costs["radial"] == pytest.approx(radial)
    assert costs["closed_ring"] == pytest.approx(closed_ring)
    assert report.winner == "closed_ring"


def test_trail_measures_build_the_line_and_its_switches():
    grid = fx.double_feeder_grid()
    out = apply_measures(grid, [Measure(kind="AddTrail", target="mv",
                                        to_station="s5", line_type=fx.CABLE_150.name,
                                        length_km=2.5)])
    line = out.lines_by_id["trail__mv__s5"]
    assert (line.length, line.origin) == (2.5, "new_trail")
    ends = {s.id: (s.bus, s.kind, s.remote_controlled)
            for s in out.switches if s.line == "trail__mv__s5"}
    assert ends == {"trail__mv__s5_a": ("mv", "circuit_breaker", True),
                    "trail__mv__s5_b": ("s5", "load_break", False)}


def test_trail_measures_validate_their_inputs():
    grid = fx.double_feeder_grid()
    with pytest.raises(ValueError, match="line type"):
        apply_measures(grid, [Measure(kind="AddTrail", target="mv", to_station="s5")])
    with pytest.raises(ValueError, match="does not exist"):
        apply_measures(grid, [Measure(kind="AddTrail", target="mv", to_station="xx",
                                      line_type=fx.CABLE_150.name, length_km=1.0)])
    trail = Measure(kind="AddTrail", target="mv", to_station="s5",
                    line_type=fx.CABLE_150.name, length_km=2.5)
    with pytest.raises(ValueError, match="already built"):
        apply_measures(grid, [trail, trail])


def test_sectioning_point_measures_move_switch_positions():
    grid = fx.double_feeder_grid()
    # without an explicit position the point is opened
    opened = apply_measures(grid, [Measure(kind="SetSectioningPoint", target="d2@s1")])
    assert not opened.switches_by_id["d2@s1"].closed
    closed = apply_measures(opened, [Measure(kind="CloseRing", target="d2@s1")])
    assert closed.switches_by_id["d2@s1"].closed
    with pytest.raises(ValueError, match="does not exist"):
        apply_measures(grid, [Measure(kind="SetSectioningPoint", target="ghost@x")])


def test_automate_station_measure_marks_every_switch_remote():
    grid = fx.double_feeder_grid()
    out = apply_measures(grid, [Measure(kind="AutomateStation", target="s4")])
    assert all(s.remote_controlled for s in out.switches if s.bus == "s4")
    with pytest.raises(ValueError, match="does not exist"):
        apply_measures(grid, [Measure(kind="AutomateStation", target="s99")])


def test_renewal_is_pure_bookkeeping():
    grid = fx.station_tradeoff_area()
    out = apply_measures(grid, [Measure(kind="RenewSwitchingStation", target="ss")])
    assert out is grid
    with pytest.raises(ValueError, match="does not exist"):
        apply_measures(grid, [Measure(kind="RenewSwitchingStation", target="zz")])


def test_station_removal_measure_takes_the_attached_lines():
    grid = fx.station_tradeoff_area()
    out = apply_measures(grid, [Measure(kind="RemoveSwitchingStation", target="ss")])
    assert "ss" not in out.buses_by_id
    for line_id in ("sup1b", "sup2b", "c_1", "c_4"):
        assert line_id not in out.lines_by_id
    assert all(s.bus != "ss" for s in out.switches)
    assert "sup1a" in out.lines_by_id  # mv-m1 does not touch the station


# --------------------------------------------------------------------------
# phase 1: topology


def test_phase1_without_candidates_repositions_the_switches():
    grid = fx.double_feeder_grid()
    params = PlannerParams(n_topologies=3, max_evaluations=500, seed=11)
    plans = phase1_topologies(grid, [], params)
    assert len(plans) == 3
    assert all(p.grid == plans[0].grid and p.measures == plans[0].measures
               for p in plans)
    assert [(m.kind, m.target, m.closed) for m in plans[0].measures] == [
        ("SetSectioningPoint", "d3@s2", False),
        ("SetSectioningPoint", "tie@s3", True)]
    built = plans[0].grid
    assert check_radiality(built, None) == []
    assert check_supply(built, None) == []
    assert check_contingency_supply(built, None) == []


def test_phase1_without_candidates_raises_on_a_broken_grid():
    broken = dismantle(fx.two_bus_grid(), 2.0)
    with pytest.raises(PlannerError, match="not viable") as info:
        phase1_topologies(broken, [], PlannerParams(n_topologies=1))
    assert [(v.kind, v.element) for v in info.value.violations] == [("unsupplied", "s1")]


def test_phase1_builds_feasible_radial_topologies_from_trails():
    area = dismantle(fx.station_tradeoff_area(), 2.0, remove_station=True)
    trails = candidate_trails(area, fx.CABLE_150.name)
    params = PlannerParams(n_topologies=3, max_evaluations=600,
                           non_improving_limit=4, restarts=0, seed=3)
    plans = phase1_topologies(area, trails, params)
    assert len(plans) == 3
    picks = [[(m.target, m.to_station) for m in p.measures if m.kind == "AddTrail"]
             for p in plans]
    # the runs land on two cost-equal three-trail skeletons
    assert picks[0] == [("c4", "m2"), ("m1", "m2"), ("m1", "mv")]
    assert picks[1] == picks[2] == [("c1", "m1"), ("m1", "m2"), ("m1", "mv")]
    for plan in plans:
        assert sum(m.cost_per_year for m in plan.measures) == pytest.approx(47609.433, abs=1e-2)
        assert plan.grid.switches_by_id["c_tie@c2"].closed
        assert check_radiality(plan.grid, None) == []
        assert check_supply(plan.grid, None) == []
        assert check_contingency_supply(plan.grid, None) == []


# --------------------------------------------------------------------------
# phase 2: operational reinforcement


def _lopsided_ring(load_sn=2.4, segment_km=4.0):
    """Four stations on one leg of an open ring; the return leg is empty.
    Moving the open point rebalances the feeders without any new cable."""
    b = fx.GridBuilder(fx.CABLE_150)
    b.infeed("hv", "mv", 0.0, 0.0)
    for i in range(1, 5):
        b.bus(f"g{i}", "secondary_substation", i * segment_km * 1000.0, 0.0)
        b.load(f"g{i}", load_sn)
    b.line("k1", "mv", "g1", segment_km, fx.CABLE_150,
           breaker_at=("mv",), remote_at=("mv",))
    b.line("k2", "g1", "g2", segment_km, fx.CABLE_150)
    b.line("k3", "g2", "g3", segment_km, fx.CABLE_150)
    b.line("k4", "g3", "g4", segment_km, fx.CABLE_150)
    b.line("k5", "g4", "mv", segment_km, fx.CABLE_150,
           breaker_at=("mv",), open_at="g4")
    return b.build()


def test_phase2_rebalances_feeders_for_free():
    grid = _lopsided_ring()
    assert not check_normal_operation(grid, SCENARIOS).feasible
    plan = phase2_reinforce(grid, SCENARIOS, CostModel(), PlannerParams())
    assert plan.cable_measures == ()
    assert [(m.kind, m.target, m.closed) for m in plan.measures] == [
        ("SetSectioningPoint", "k5@g4", True),
        ("SetSectioningPoint", "k4@g3", False)]
    assert plan.grid is plan.base_grid
    report = check_normal_operation(plan.grid, SCENARIOS).merged(
        check_contingency_operation(plan.grid, SCENARIOS))
    assert report.feasible


def test_phase2_chooses_cables_when_switching_cannot_help():
    mesh = fx.mesh_tradeoff_area()
    pr = principles_from_dict(fx.tradeoff_principles_dict())
    plan = phase2_reinforce(mesh, pr.scenarios, pr.cost_model, pr.planner)
    assert plan.measures == plan.cable_measures  # no free moves existed
    assert sorted((m.kind, m.target) for m in plan.cable_measures) == [
        ("AddParallel", "h3"), ("ReplaceLine", "h7")]
    assert all(m.cost_per_year == pytest.approx(13300.0) for m in plan.cable_measures)
    assert plan.base_grid == mesh
    report = check_normal_operation(plan.grid, pr.scenarios).merged(
        check_contingency_operation(plan.grid, pr.scenarios))
    assert report.feasible


def test_phase2_raises_without_reinforcement_candidates():
    grid = fx.two_bus_grid(sn_mva=12.0)  # overloaded, nothing in the catalog
    with pytest.raises(PlannerError, match="catalog empty"):
        phase2_reinforce(grid, SCENARIOS, CostModel(), PlannerParams(cable_catalog=()))


def test_phase2_raises_when_the_catalog_cannot_clear_the_violations():
    grid = _lopsided_ring(load_sn=4.8)  # beyond any split and any rung
    params = PlannerParams(max_evaluations=2000, non_improving_limit=6, restarts=1,
                           cable_catalog=(fx.CABLE_150.name, fx.CABLE_300.name))
    with pytest.raises(PlannerError, match="within the catalog") as info:
        phase2_reinforce(grid, SCENARIOS, CostModel(), params)
    assert info.value.violations


def test_phase2_on_the_example_area_skips_the_checks_of_bounded_flips(monkeypatch):
    # most climb flips add a cable to a candidate that scores less than
    # their cost alone, so the search never builds or checks them
    pr = principles_from_dict(fx.example_principles_dict())
    params = replace(pr.planner, n_topologies=1)
    area = dismantle(_flag_contingency_supply(fx.example_area()),
                     params.dismantle_threshold_km, remove_station=True)
    trails = candidate_trails(area, params.cable_catalog[-1],
                              trail_factor=params.trail_factor, cost_model=pr.cost_model)
    topology = phase1_topologies(area, trails, params)[0]
    results = []
    search = planner.ils

    def recorded(*args, **kwargs):
        results.append(search(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(planner, "ils", recorded)
    phase2_reinforce(topology.grid, pr.scenarios, pr.cost_model, params)
    [result] = results
    assert result.best.feasible
    assert 0 < result.bounded <= result.evaluations


@pytest.mark.parametrize("seed", range(4))
def test_searches_with_and_without_report_memos_agree(seed, monkeypatch):
    # the memos only skip recomputing what an earlier candidate, search or
    # grid already gave, so phases that share one memo must end where
    # phases whose every check runs in a memo of its own do
    pr = principles_from_dict(fx.tradeoff_principles_dict(seed=seed))
    params = replace(pr.planner, seed=seed)
    area = dismantle(fx.station_tradeoff_area(), 2.0, remove_station=True)
    trails = candidate_trails(area, fx.CABLE_300.name)
    grids = [fx.mesh_tradeoff_area(),
             *(plan.grid for plan in phase1_topologies(area, trails, params))]

    def plans():
        out = []
        for grid in grids:
            reinf = phase2_reinforce(grid, pr.scenarios, pr.cost_model, params)
            mesh = phase4_mesh(reinf, [], pr.scenarios, pr.cost_model, params)
            out.append((reinf.measures, reinf.grid, mesh.measures, mesh.grid))
        return out

    with PlanMemo():
        memoized = plans()
    monkeypatch.setattr(planner, "_scope", nullcontext)
    assert power_flow._memo is None
    assert plans() == memoized


def test_a_direct_phase2_call_shares_its_contingency_cases(monkeypatch):
    # phase 2 enters a memo of its own when none is entered, so a direct
    # call computes the N-1 cases of a switch state no more often than the
    # same call inside a planning task's memo
    mesh = fx.mesh_tradeoff_area()
    pr = principles_from_dict(fx.tradeoff_principles_dict())
    cases = power_flow.contingency_cases
    calls = []
    monkeypatch.setattr(power_flow, "contingency_cases",
                        lambda grid: calls.append(grid) or cases(grid))
    direct = phase2_reinforce(mesh, pr.scenarios, pr.cost_model, pr.planner)
    n_direct = len(calls)
    calls.clear()
    with PlanMemo():
        assert phase2_reinforce(mesh, pr.scenarios, pr.cost_model, pr.planner) == direct
    assert 0 < n_direct <= len(calls)


def _two_ties(load_sn: float = 3.0):
    """Feeder A (mv-a1-a2) with two open ties at a2: t1 over a weak
    overhead line to feeder C, t2 to feeder B. After a fault on A's head
    the resupply closes t1, the lower switch id; with the ring over t2
    closed, B's re-closed breaker carries A instead and t1 stays open."""
    b = fx.GridBuilder(fx.CABLE_150, fx.OVERHEAD_50)
    b.infeed("hv", "mv", 0.0, 0.0)
    for bus, x, y in (("a1", 1000, 0), ("a2", 2000, 0), ("b1", 2000, 1000),
                      ("c1", 2000, -3000)):
        b.bus(bus, "secondary_substation", x, y)
        b.load(bus, load_sn)
    for line_id, to_bus, km in (("A1", "a1", 1.0), ("B1", "b1", 2.0), ("C1", "c1", 3.0)):
        b.line(line_id, "mv", to_bus, km, fx.CABLE_150,
               breaker_at=("mv",), remote_at=("mv",))
    b.line("A2", "a1", "a2", 1.0, fx.CABLE_150)
    b.line("t1", "a2", "c1", 3.0, fx.OVERHEAD_50, open_at="a2")
    b.line("t2", "a2", "b1", 1.0, fx.CABLE_150, open_at="a2")
    return b.build()


def test_a_closed_ring_gets_its_own_contingency_cases():
    # the N-1 cases are keyed by the structure and the open switches: a
    # ring closure changes which tie the resupply closes, so it must not
    # reuse the radial topology's cases
    radial = _two_ties()
    close = Measure(kind="CloseRing", target="t2@a2")
    ring = apply_measures(radial, (close,))
    head_fault = {case.failed_line: case for case in contingency_cases(radial)}["A1"]
    ring_fault = {case.failed_line: case for case in contingency_cases(ring)}["A1"]
    assert head_fault.resulting_state["t1@a2"] and not head_fault.resulting_state["t2@a2"]
    assert ring_fault.resulting_state["t2@a2"] and not ring_fault.resulting_state["t1@a2"]

    with PlanMemo():
        assert [(v.kind, v.element, v.contingency)
                for v in planner._operation_report(radial, SCENARIOS).entries] == [
            ("overload", "t1", "A1")]
        ring_report = planner._operation_report(ring, SCENARIOS)
    assert ring_report == planner._operation_report(ring, SCENARIOS)
    assert ring_report.feasible


# --------------------------------------------------------------------------
# phase 3: automation


def test_phase3_wraps_the_automation_loop_into_measures():
    reliability = ReliabilityParams()
    baseline = fmea(fx.ring_pair_grid(1.6), reliability)
    grid = fx.ring_pair_grid(1.9)
    plan = phase3_automate(grid, baseline, reliability, CostModel())
    assert [m.target for m in plan.measures] == ["r6", "r5", "r7", "r8",
                                                 "r3", "r4", "r2"]
    assert all(m.kind == "AutomateStation" for m in plan.measures)
    assert all(m.cost_per_year == 1200.0 for m in plan.measures)
    automated = {m.target for m in plan.measures}
    assert all(s.remote_controlled for s in plan.grid.switches
               if s.bus in automated)
    assert check_reliability(plan.grid, reliability, baseline) == []
    # the loop's last round computed the FMEA of the automated grid
    assert plan.fmea == fmea(plan.grid, reliability)


def test_phase3_on_a_compliant_grid_keeps_the_grid_and_its_fmea():
    reliability = ReliabilityParams()
    grid = fx.ring_pair_grid(1.6)
    baseline = fmea(grid, reliability)
    plan = phase3_automate(grid, baseline, reliability, CostModel())
    assert (plan.grid, plan.measures, plan.fmea) == (grid, (), baseline)


# --------------------------------------------------------------------------
# phase 4: meshing

MESH_SEARCH = PlannerParams(n_topologies=3, max_evaluations=3000,
                            non_improving_limit=10, restarts=1,
                            perturbation=0.12, seed=3,
                            cable_catalog=(fx.CABLE_300.name,))


def test_phase4_closes_the_ring_when_links_are_cheap():
    mesh = fx.mesh_tradeoff_area()
    pr = principles_from_dict(fx.tradeoff_principles_dict(communication_link=1200.0))
    reinf = phase2_reinforce(mesh, pr.scenarios, pr.cost_model, pr.planner)
    plan = phase4_mesh(reinf, [], pr.scenarios, pr.cost_model, MESH_SEARCH, seed=3)
    assert [(m.kind, m.target, m.cost_per_year) for m in plan.measures] == [
        ("AddParallel", "h3", 13300.0),
        ("CloseRing", "h_tie@r4", 0.0),
        ("AutomateStation", "r4", 1200.0)]  # the closure drags its link along
    assert all(s.closed for s in plan.grid.switches)
    total = (sum(m.cost_per_year for m in plan.measures)
             + concept_overhead(plan.grid, "closed_ring", pr.cost_model).total)
    assert total == pytest.approx(15540.0)


def test_phase4_stays_radial_when_links_are_dear():
    mesh = fx.mesh_tradeoff_area()
    pr = principles_from_dict(fx.tradeoff_principles_dict(communication_link=30000.0))
    reinf = phase2_reinforce(mesh, pr.scenarios, pr.cost_model, pr.planner)
    plan = phase4_mesh(reinf, [], pr.scenarios, pr.cost_model, MESH_SEARCH, seed=3)
    assert sorted((m.kind, m.target) for m in plan.measures) == [
        ("AddParallel", "h3"), ("ReplaceLine", "h7")]
    assert not plan.grid.switches_by_id["h_tie@r4"].closed


def test_phase4_with_nothing_to_decide_returns_the_base():
    grid = fx.two_bus_grid()
    reinf = phase2_reinforce(grid, SCENARIOS, CostModel(), PlannerParams())
    plan = phase4_mesh(reinf, [], SCENARIOS, CostModel(), PlannerParams())
    assert plan.measures == ()
    assert plan.grid == reinf.base_grid


# --------------------------------------------------------------------------
# parameter validation


def test_planner_params_validation():
    with pytest.raises(ValueError, match="n_topologies"):
        PlannerParams(n_topologies=0)
    with pytest.raises(ValueError, match="trail_factor"):
        PlannerParams(trail_factor=0.9)
    with pytest.raises(ValueError, match="perturbation"):
        PlannerParams(perturbation=0.0)
    with pytest.raises(ValueError, match="perturbation"):
        PlannerParams(perturbation=1.5)
    PlannerParams(perturbation=1.0)  # the inclusive end is legal
