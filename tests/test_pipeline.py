"""End-to-end pipeline tests: concept comparison on the trade-off areas,
independent re-validation, report files, determinism."""

import json
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import pytest

from gridforge import fixtures as fx
from gridforge import pipeline, power_flow
from gridforge.economics import plan_cost
from gridforge.grid_model import grid_from_dict, load_grid, validate_grid
from gridforge.pipeline import (
    ConceptPlan,
    _flag_contingency_supply,
    _select_reference,
    run_area,
    write_report,
)
from gridforge.power_flow import check_contingency_operation, check_normal_operation
from gridforge.principles import (
    load_principles,
    principles_from_dict,
)
from gridforge.reliability import fmea
from gridforge.topology import find_stubs


@pytest.fixture(scope="module")
def tradeoff_principles():
    return principles_from_dict(fx.tradeoff_principles_dict())


@pytest.fixture(scope="module")
def station_report(tradeoff_principles):
    return run_area(fx.station_tradeoff_area(), tradeoff_principles,
                    area="station_tradeoff")


@pytest.fixture(scope="module")
def mesh_report(tradeoff_principles):
    return run_area(fx.mesh_tradeoff_area(), tradeoff_principles, area="mesh")


# --------------------------------------------------------------------------
# contingency flagging


def test_contingency_flags_cover_every_non_stub_station():
    grid = fx.example_area()
    assert not any(b.requires_contingency_supply for b in grid.buses)
    flagged = _flag_contingency_supply(grid)
    stubs = set(find_stubs(grid))
    assert stubs == {"d25", "s23", "z24"}
    for bus in flagged.buses:
        if bus.kind in ("secondary_substation", "switching_station"):
            assert bus.requires_contingency_supply == (bus.id not in stubs), bus.id
        else:
            assert not bus.requires_contingency_supply


def test_explicit_contingency_flags_win():
    grid = fx.station_ring_demo()  # ships with a flagged switching station
    assert _flag_contingency_supply(grid) is grid


# --------------------------------------------------------------------------
# input validation


def test_run_area_rejects_unknown_concepts(tradeoff_principles):
    with pytest.raises(ValueError, match="unknown concept"):
        run_area(fx.station_tradeoff_area(), tradeoff_principles,
                 concepts=("radial", "spider_web"))


def test_run_area_requires_a_cable_catalog():
    pr = principles_from_dict({})
    assert pr.planner.cable_catalog == ()
    with pytest.raises(ValueError, match="cable_catalog"):
        run_area(fx.station_tradeoff_area(), pr)


def test_run_area_rejects_catalog_entries_missing_from_the_grid():
    pr = principles_from_dict({"planner_params": {"cable_catalog": ["unobtainium"]}})
    with pytest.raises(ValueError, match="unknown line type"):
        run_area(fx.station_tradeoff_area(), pr)


def test_run_area_needs_some_load(tradeoff_principles):
    b = fx.GridBuilder(fx.CABLE_300)
    b.infeed("hv", "mv", 0.0, 0.0)
    b.bus("s1", "secondary_substation", 500.0, 0.0)
    b.line("l1", "mv", "s1", 0.5, fx.CABLE_300, breaker_at=("mv",))
    with pytest.raises(ValueError, match="load"):
        run_area(b.build(), tradeoff_principles)


# --------------------------------------------------------------------------
# the station trade-off: dismantle vs. renew


def test_station_area_prefers_dismantling(station_report):
    assert station_report.winner == "radial"
    refs = station_report.references
    assert refs["radial"].cost.total == pytest.approx(74818.865, abs=1e-2)
    assert refs["closed_ring"].cost.total == pytest.approx(75798.865, abs=1e-2)
    assert refs["switching_station"].cost.total == pytest.approx(96060.704, abs=1e-2)
    for concept, ref in refs.items():
        assert ref.topology == 0, concept
        assert ref.reference
        assert ref.violations == ()  # survived the independent re-validation


def test_station_area_deltas_are_pairwise_cost_gaps(station_report):
    deltas = station_report.deltas
    assert deltas["radial"]["switching_station"] == pytest.approx(-21241.838936320186)
    assert deltas["closed_ring"]["radial"] == pytest.approx(980.0)
    for a in deltas:
        for b, value in deltas[a].items():
            assert value == pytest.approx(-deltas[b][a])


# --------------------------------------------------------------------------
# the meshing trade-off: link price flips the winner


def test_cheap_links_make_the_closed_ring_win(mesh_report):
    assert mesh_report.winner == "closed_ring"
    assert mesh_report.references["closed_ring"].cost.total == pytest.approx(15540.0)
    assert mesh_report.references["radial"].cost.total == pytest.approx(26600.0)
    assert mesh_report.deltas["closed_ring"]["radial"] == pytest.approx(-11060.0)
    # no switching station exists, so that concept reports why it is out
    assert mesh_report.references["switching_station"] is None
    assert mesh_report.deltas["radial"]["switching_station"] is None
    assert all(p.error == "no switching station in the area"
               for p in mesh_report.plans["switching_station"])


def test_dear_links_keep_the_radial_winner():
    pr = principles_from_dict(fx.tradeoff_principles_dict(communication_link=30000.0))
    report = run_area(fx.mesh_tradeoff_area(), pr, area="mesh")
    assert report.winner == "radial"
    assert report.references["closed_ring"].cost.total == pytest.approx(27640.0)
    assert report.deltas["closed_ring"]["radial"] == pytest.approx(1040.0)


def test_every_topology_column_is_reported(mesh_report):
    for concept, plans in mesh_report.plans.items():
        assert [p.topology for p in plans] == [0, 1, 2], concept
    # run 0 of the chain concepts ends dearer; the reference comes from run 1
    assert [p.cost.total for p in mesh_report.plans["radial"]] == [33800.0, 26600.0, 26600.0]
    assert mesh_report.plans["radial"][1].reference


def test_a_dead_end_topology_keeps_its_column():
    # under search seed 1, run 0 of the chain concepts cannot meet the
    # reliability limits by automation alone; its column says why
    pr = principles_from_dict(fx.tradeoff_principles_dict(seed=1))
    report = run_area(fx.mesh_tradeoff_area(), pr, area="mesh")
    for concept in ("radial", "closed_ring"):
        plans = report.plans[concept]
        assert [p.feasible for p in plans] == [False, True, True], concept
        assert plans[0].error.startswith("reliability constraints cannot be met"), concept
        assert plans[0].grid is None and plans[0].cost is None, concept


# --------------------------------------------------------------------------
# independent re-validation


def test_reference_selection_distrusts_the_optimizer(mesh_report, tradeoff_principles):
    grid = _flag_contingency_supply(fx.mesh_tradeoff_area())
    baseline = fmea(grid, tradeoff_principles.reliability)
    # a fraudulent plan: the untouched grid (voltage violations) at zero cost
    fake = ConceptPlan("radial", 0, feasible=True, grid=grid, measures=(),
                       cost=plan_cost(()),
                       fmea=baseline)
    genuine = replace(mesh_report.references["radial"],
                      topology=1, feasible=True, reference=False, violations=())
    chosen = _select_reference([fake, genuine], tradeoff_principles, baseline)
    assert chosen is genuine
    assert genuine.reference
    assert not fake.feasible
    assert fake.error == "independent validation failed"
    assert fake.violations  # the findings say what was wrong


# --------------------------------------------------------------------------
# report files


TIMESTAMP = "2026-01-01T00:00:00+00:00"


def test_report_layout_on_disk(mesh_report, tmp_path):
    area_dir = write_report(mesh_report, tmp_path, timestamp=TIMESTAMP)
    assert area_dir == tmp_path / "mesh"
    files = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert files == [
        "mesh/closed_ring/topology_0.json",
        "mesh/closed_ring/topology_1.json",
        "mesh/closed_ring/topology_2.json",
        "mesh/comparison.csv",
        "mesh/comparison.json",
        "mesh/radial/topology_0.json",
        "mesh/radial/topology_1.json",
        "mesh/radial/topology_2.json",
        "mesh/switching_station/topology_0.json",
        "mesh/switching_station/topology_1.json",
        "mesh/switching_station/topology_2.json",
    ]


def test_comparison_json_contents(mesh_report, tmp_path):
    area_dir = write_report(mesh_report, tmp_path, timestamp=TIMESTAMP)
    doc = json.loads((area_dir / "comparison.json").read_text(encoding="utf-8"))
    assert sorted(doc) == ["area", "concepts", "deltas", "generated_at", "winner"]
    assert doc["area"] == "mesh"
    assert doc["generated_at"] == TIMESTAMP
    assert doc["winner"] == "closed_ring"
    assert doc["concepts"]["radial"] == {
        "feasible": True,
        "reference_topology": 1,
        "reference_cost": 26600.0,
        "topology_costs": [33800.0, 26600.0, 26600.0],
    }
    assert doc["concepts"]["switching_station"] == {
        "feasible": False,
        "reference_topology": None,
        "reference_cost": None,
        "topology_costs": [None, None, None],
    }
    assert doc["deltas"] == {
        a: {b: v for b, v in row.items()} for a, row in mesh_report.deltas.items()}


def test_comparison_csv_contents(mesh_report, tmp_path):
    area_dir = write_report(mesh_report, tmp_path, timestamp=TIMESTAMP)
    assert (area_dir / "comparison.csv").read_text(encoding="utf-8") == (
        "concept,topology,feasible,cost_total,reference\n"
        "closed_ring,0,True,21540.00,False\n"
        "closed_ring,1,True,15540.00,True\n"
        "closed_ring,2,True,15540.00,False\n"
        "radial,0,True,33800.00,False\n"
        "radial,1,True,26600.00,True\n"
        "radial,2,True,26600.00,False\n"
        "switching_station,0,False,,False\n"
        "switching_station,1,False,,False\n"
        "switching_station,2,False,,False\n")


def test_topology_files_round_trip(mesh_report, tmp_path):
    area_dir = write_report(mesh_report, tmp_path, timestamp=TIMESTAMP)
    doc = json.loads((area_dir / "radial" / "topology_1.json").read_text(encoding="utf-8"))
    assert sorted(doc) == ["asidi", "concept", "cost", "error", "feasible", "grid",
                           "measures", "reference", "topology", "violations",
                           "worst_station_energy"]
    assert doc["feasible"] and doc["reference"]
    assert doc["cost"]["total"] == 26600.0
    assert sorted(doc["cost"]["categories"]) == [
        "cables", "communication_links", "protection", "switching_stations"]
    assert doc["asidi"] > 0.0
    rebuilt = grid_from_dict(doc["grid"])
    assert validate_grid(rebuilt) == []
    assert rebuilt == mesh_report.references["radial"].grid

    dead = json.loads((area_dir / "switching_station" / "topology_0.json")
                      .read_text(encoding="utf-8"))
    assert dead["feasible"] is False
    assert dead["grid"] is None and dead["cost"] is None
    assert dead["error"] == "no switching station in the area"


def test_reports_are_byte_deterministic(mesh_report, tmp_path):
    write_report(mesh_report, tmp_path / "a", timestamp=TIMESTAMP)
    write_report(mesh_report, tmp_path / "b", timestamp=TIMESTAMP)
    rels = sorted(p.relative_to(tmp_path / "a")
                  for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert rels
    for rel in rels:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_the_default_timestamp_is_valid_iso8601(mesh_report, tmp_path):
    area_dir = write_report(mesh_report, tmp_path)
    doc = json.loads((area_dir / "comparison.json").read_text(encoding="utf-8"))
    assert datetime.fromisoformat(doc["generated_at"]).tzinfo is not None


# --------------------------------------------------------------------------
# determinism knobs


@pytest.mark.parametrize("build,area,serial", [
    (fx.mesh_tradeoff_area, "mesh", "mesh_report"),
    (fx.station_tradeoff_area, "station_tradeoff", "station_report"),
], ids=["mesh", "station"])
def test_parallel_execution_matches_serial(build, area, serial, tradeoff_principles, request):
    # the station area sends both task families, radial and switching
    # station, through the pool
    parallel = run_area(build(), tradeoff_principles, area=area, jobs=2)
    assert power_flow._memo is None
    assert parallel == request.getfixturevalue(serial)


def test_environment_seed_overrides_the_configured_seed(
        monkeypatch, mesh_report, tradeoff_principles):
    monkeypatch.setenv("GRIDFORGE_SEED", "999")
    from_env = run_area(fx.mesh_tradeoff_area(), tradeoff_principles, area="mesh")
    monkeypatch.delenv("GRIDFORGE_SEED")
    explicit = replace(tradeoff_principles,
                       planner=replace(tradeoff_principles.planner, seed=999))
    assert from_env == run_area(fx.mesh_tradeoff_area(), explicit, area="mesh")
    assert from_env != mesh_report  # a different seed explores differently


@pytest.mark.parametrize("concepts", [("radial",), ("radial", "closed_ring", "switching_station")])
def test_two_switching_stations_make_every_concept_infeasible(
        two_station_area, tradeoff_principles, concepts):
    assert validate_grid(two_station_area) == []
    report = run_area(two_station_area, tradeoff_principles, area="two", concepts=concepts)
    assert set(report.plans) == set(concepts)
    for plans in report.plans.values():
        assert [(p.topology, p.feasible, p.error) for p in plans] == [
            (k, False, "more than one switching station in the area")
            for k in range(tradeoff_principles.planner.n_topologies)]
    assert report.winner is None


def test_all_infeasible_concepts_give_no_winner(tradeoff_principles):
    report = run_area(fx.mesh_tradeoff_area(), tradeoff_principles, area="mesh",
                      concepts=("switching_station",))
    assert report.winner is None
    assert report.references == {"switching_station": None}
    assert report.deltas == {"switching_station": {}}


# --------------------------------------------------------------------------
# work shared within one run_area call


def counted(monkeypatch, module, name) -> list:
    """Records the arguments of every call of ``module.name``."""
    original = getattr(module, name)
    calls = []
    monkeypatch.setattr(module, name, lambda *args, **kwargs:
                        calls.append(args) or original(*args, **kwargs))
    return calls


def test_run_area_solves_each_distinct_feeder_once(monkeypatch, data_dir):
    # block results are keyed by their lines' ids, ends, cable types and
    # lengths and live for the run_area call, so a feeder that an earlier
    # candidate, search or task solved is not solved again; so do the
    # reports, so a grid state that an earlier search or task checked
    # runs no load flow and computes no N-1 case again; the N-1 cases live
    # for one planning task, so its phases 2 and 4 share them
    blocks = counted(monkeypatch, power_flow, "_solve_block")
    solves = counted(monkeypatch, power_flow, "run_power_flow")
    cases = counted(monkeypatch, power_flow, "contingency_cases")
    run_area(load_grid(data_dir / "example_area.json"),
             load_principles(data_dir / "principles.json"), area="example")
    assert (len(blocks), len(solves), len(cases)) == (1_616, 9_289, 345)
    assert power_flow._memo is None


def test_each_planning_task_enters_one_memo_inside_the_run_memo(monkeypatch, tradeoff_principles):
    # plans and N-1 cases live for one task, block results and reports for
    # the run_area call; no search or check inside a task enters a memo
    entered = []
    enter = power_flow.PlanMemo.__enter__
    monkeypatch.setattr(power_flow.PlanMemo, "__enter__",
                        lambda memo: entered.append((memo, power_flow._memo)) or enter(memo))
    tasks = counted(monkeypatch, pipeline, "_run_task")
    run_area(fx.mesh_tradeoff_area(), tradeoff_principles, area="mesh")
    assert power_flow._memo is None
    run_memo, outer = entered[0]
    assert outer is None
    task_memos = [memo for memo, outer in entered if outer is run_memo]
    assert len(task_memos) == len(tasks) > 1
    assert not any(outer in task_memos for _, outer in entered)
    first, second = task_memos[:2]
    assert first.structures is not second.structures
    assert first._tables is second._tables is run_memo._tables
    assert first._reports is second._reports is run_memo._reports


def test_run_area_leaves_no_memo_entered_when_it_raises(tradeoff_principles):
    # a second transformer whose HV bus holds no source: the searches'
    # power flow refuses the grid inside run_area's memo
    grid = fx.station_tradeoff_area()
    hv, mv = grid.buses_by_id["hv"], grid.buses_by_id["mv"]
    (transformer,) = grid.transformers
    grid = grid.replace(
        buses=grid.buses + (replace(hv, id="x"), replace(mv, id="xm")),
        transformers=(transformer, replace(transformer, id="x_xm", hv_bus="x", lv_bus="xm")))
    with pytest.raises(ValueError, match="transformer 'x_xm' has no external source"):
        run_area(grid, tradeoff_principles, area="x")
    assert power_flow._memo is None


def test_the_re_validation_shares_nothing_with_the_searches(monkeypatch, tradeoff_principles):
    # _select_reference runs outside run_area's memo, so each reference's
    # checks run every load flow that a lone check of its grid runs
    findings = pipeline._validation_findings
    solves = counted(monkeypatch, power_flow, "run_power_flow")
    validated = []

    def validation(plan, principles, baseline):
        assert power_flow._memo is None
        before = len(solves)
        out = findings(plan, principles, baseline)
        validated.append((plan.grid, len(solves) - before))
        return out

    monkeypatch.setattr(pipeline, "_validation_findings", validation)
    report = run_area(fx.station_tradeoff_area(), tradeoff_principles, area="station")
    monkeypatch.undo()
    assert len(validated) >= sum(r is not None for r in report.references.values()) > 1
    solves = counted(monkeypatch, power_flow, "run_power_flow")
    for grid, count in validated:
        solves.clear()
        check_normal_operation(grid, tradeoff_principles.scenarios).merged(
            check_contingency_operation(grid, tradeoff_principles.scenarios))
        assert len(solves) == count > 0


def test_planning_tasks_reuse_the_fmea_of_phase_3(monkeypatch, tradeoff_principles):
    # the radial plans carry the FMEA of the automation loop's last round,
    # so run_area computes only the baseline's; each equals a fresh FMEA
    calls = counted(monkeypatch, pipeline, "fmea")
    report = run_area(fx.mesh_tradeoff_area(), tradeoff_principles, area="mesh",
                      concepts=("radial",))
    assert len(calls) == 1
    monkeypatch.undo()
    feasible = [p for p in report.plans["radial"] if p.feasible]
    assert feasible
    for plan in feasible:
        assert plan.fmea == fmea(plan.grid, tradeoff_principles.reliability)


# --------------------------------------------------------------------------
# shipped data files


def test_shipped_area_file_matches_the_fixture(data_dir):
    assert load_grid(data_dir / "example_area.json") == fx.example_area()


def test_shipped_principles_match_the_fixture(data_dir):
    assert load_principles(data_dir / "principles.json") == principles_from_dict(
        fx.example_principles_dict())
