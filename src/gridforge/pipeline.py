"""Orchestration: plan one grid area under all three concepts and compare.

For each concept the area is dismantled, rebuilt ``n_topologies`` times,
reinforced, automated and (for closed rings) meshed; the cheapest feasible
plan per concept becomes the reference after an independent re-validation
that trusts nothing the optimizer claimed. Reports land in
``<out>/<area>/<concept>/topology_<k>.json`` plus ``comparison.json`` and
``comparison.csv``.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

from gridforge.economics import (
    CONCEPTS,
    CostBreakdown,
    concept_overhead,
    plan_cost,
)
from gridforge.grid_model import (
    STATION_KINDS,
    Grid,
    grid_to_dict,
    validate_grid,
)
from gridforge.planner import (
    Measure,
    PlannerError,
    ReinforcementPlan,
    candidate_trails,
    dismantle,
    phase1_topologies,
    phase2_reinforce,
    phase3_automate,
    phase4_mesh,
)
from gridforge.power_flow import (
    PlanMemo,
    _scope,
    check_contingency_operation,
    check_normal_operation,
)
from gridforge.principles import PlanningPrinciples
from gridforge.reliability import (
    FmeaResult,
    ReliabilityError,
    check_reliability,
    fmea,
)
from gridforge.topology import (
    check_contingency_supply,
    check_radiality,
    check_supply,
    find_stubs,
)

SEED_ENV_VAR = "GRIDFORGE_SEED"


@dataclass
class ConceptPlan:
    """One optimized topology under one concept, plus its paper trail."""

    concept: str
    topology: int
    feasible: bool
    grid: Grid | None = None
    measures: tuple[Measure, ...] = ()
    cost: CostBreakdown | None = None
    fmea: FmeaResult | None = None
    violations: tuple[str, ...] = ()
    reference: bool = False
    error: str | None = None


@dataclass
class ComparisonReport:
    area: str
    plans: dict[str, list[ConceptPlan]] = field(default_factory=dict)
    references: dict[str, ConceptPlan | None] = field(default_factory=dict)
    winner: str | None = None
    deltas: dict[str, dict[str, float | None]] = field(default_factory=dict)


def _flag_contingency_supply(grid: Grid) -> Grid:
    """Mark which stations must survive any single line failure.

    Explicit flags in the input win; otherwise every station that is not a
    structural stub in the baseline is required to keep a second path.
    """
    if any(b.requires_contingency_supply for b in grid.buses):
        return grid
    stubs = find_stubs(grid)
    buses = tuple(
        replace(b, requires_contingency_supply=True)
        if b.kind in STATION_KINDS and b.id not in stubs else b
        for b in grid.buses)
    return grid.replace(buses=buses)


def _run_task(task) -> dict[str, ConceptPlan]:
    """Phases 1-3 for topology ``k`` of one family, plus the closed-ring
    plan derived from it when the family asks for one; the unit of work
    of the ``--jobs`` pool. A family is the concept, the seed offset of its
    searches, its bookkeeping measures, whether it meshes, the dismantled
    grid, the trail candidates, the principles and the baseline FMEA.

    The task runs in the entered :class:`~gridforge.power_flow.PlanMemo`,
    so its searches share block results and reports with the tasks before
    it: in :func:`run_area`'s memo when serial or in a forked pool worker,
    else in a memo of the task's own."""
    k, (concept, seed_offset, bookkeeping, mesh, dismantled, trails,
        principles, baseline) = task
    params = principles.planner
    seed = params.seed + seed_offset
    base = seed + 104729 * (k + 1)  # phase 2 seeds base + 1, phase 4 base + 3
    with _scope():
        try:
            topo = phase1_topologies(
                dismantled, trails, replace(params, n_topologies=1, seed=seed + k))[0]
            reinf = phase2_reinforce(topo.grid, principles.scenarios,
                                     principles.cost_model, params, seed=base + 1)
            auto = phase3_automate(reinf.grid, baseline, principles.reliability,
                                   principles.cost_model)
        except (PlannerError, ReliabilityError) as exc:
            return {c: ConceptPlan(c, k, feasible=False, error=str(exc))
                    for c in ((concept, "closed_ring") if mesh else (concept,))}

        measures = topo.measures + reinf.measures + auto.measures + bookkeeping
        out = {concept: ConceptPlan(
            concept, k, feasible=True, grid=auto.grid, measures=measures,
            cost=plan_cost(auto.grid, measures, principles.cost_model), fmea=auto.fmea)}
        if mesh:
            out["closed_ring"] = _mesh_plan(k, reinf, auto.measures, topo.measures,
                                            bookkeeping, principles, base + 3)
    return out


def _mesh_plan(k: int, reinf: ReinforcementPlan, auto_measures: tuple[Measure, ...],
               topo_measures: tuple[Measure, ...], bookkeeping: tuple[Measure, ...],
               principles: PlanningPrinciples, seed: int) -> ConceptPlan:
    try:
        mesh = phase4_mesh(reinf, [m.target for m in auto_measures],
                           principles.scenarios, principles.cost_model,
                           principles.planner, seed=seed)
    except PlannerError as exc:
        return ConceptPlan("closed_ring", k, feasible=False, error=str(exc))
    moves = tuple(m for m in reinf.measures if m.kind == "SetSectioningPoint")
    measures = topo_measures + moves + auto_measures + mesh.measures + bookkeeping
    cost = (plan_cost(mesh.grid, measures, principles.cost_model)
            + concept_overhead(mesh.grid, "closed_ring", principles.cost_model))
    return ConceptPlan(
        "closed_ring", k, feasible=True, grid=mesh.grid, measures=measures,
        cost=cost,
        fmea=fmea(mesh.grid, principles.reliability, ring_protection=True))


def _validation_findings(plan: ConceptPlan, principles: PlanningPrinciples,
                         baseline: FmeaResult) -> tuple[str, ...]:
    """Re-run every validator the concept must satisfy, from scratch."""
    grid = plan.grid
    findings = [str(f) for f in validate_grid(grid)]
    findings += [str(v) for v in check_supply(grid)]
    if plan.concept != "closed_ring":
        findings += [str(v) for v in check_radiality(grid)]
    findings += [str(v) for v in check_contingency_supply(grid)]
    report = check_normal_operation(grid, principles.scenarios).merged(
        check_contingency_operation(grid, principles.scenarios))
    findings += [str(v) for v in report.entries]
    if plan.concept != "closed_ring":
        # closed rings are at least as reliable by construction: every
        # closed sectioning point is automated and ring faults clear
        # selectively, so the radial FMEA verdict carries over
        findings += [str(v) for v in
                     check_reliability(grid, principles.reliability, baseline)]
    return tuple(findings)


def _select_reference(plans: list[ConceptPlan], principles: PlanningPrinciples,
                      baseline: FmeaResult) -> ConceptPlan | None:
    """Cheapest plan that survives independent re-validation."""
    for plan in sorted((p for p in plans if p.feasible),
                       key=lambda p: (p.cost.total, p.topology)):
        plan.violations = _validation_findings(plan, principles, baseline)
        if not plan.violations:
            plan.reference = True
            return plan
        plan.feasible = False
        plan.error = "independent validation failed"
    return None


def compare(area: str, plans: dict[str, list[ConceptPlan]]) -> ComparisonReport:
    """Pick the winner and the pairwise annual cost deltas."""
    references = {
        concept: next((p for p in concept_plans if p.reference), None)
        for concept, concept_plans in plans.items()}
    costed = {c: r.cost.total for c, r in references.items() if r is not None}
    winner = min(sorted(costed), key=costed.get) if costed else None
    deltas: dict[str, dict[str, float | None]] = {}
    for a in sorted(plans):
        deltas[a] = {}
        for b in sorted(plans):
            if a == b:
                continue
            deltas[a][b] = (costed[a] - costed[b]
                            if a in costed and b in costed else None)
    return ComparisonReport(area=area, plans=plans, references=references,
                            winner=winner, deltas=deltas)


def run_area(grid: Grid, principles: PlanningPrinciples, *, area: str = "area",
             concepts: tuple[str, ...] = CONCEPTS, jobs: int = 1) -> ComparisonReport:
    """Plan and compare the requested concepts for one grid area.

    The environment variable ``GRIDFORGE_SEED`` overrides the configured
    search seed. Individual topology failures mark that topology (or the
    whole concept, if all fail) infeasible instead of raising. An area with
    more than one switching station gets infeasible plans under every
    concept, and one without any under ``switching_station``.

    Raises:
        ValueError: unknown concept, empty cable catalog, catalog naming
            unknown line types, a grid without any load, or a transformer
            without an external source at its HV bus (from the power flow).
    """
    for concept in concepts:
        if concept not in CONCEPTS:
            raise ValueError(f"unknown concept {concept!r}")
    params = principles.planner
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        params = replace(params, seed=int(env_seed))
        principles = replace(principles, planner=params)
    if not params.cable_catalog:
        raise ValueError("planner_params.cable_catalog must name at least one line type")
    for name in params.cable_catalog:
        if name not in grid.line_types_by_name:
            raise ValueError(f"cable catalog names unknown line type {name!r}")
    trail_type = params.cable_catalog[-1]  # largest standard cable

    baseline_grid = _flag_contingency_supply(grid)
    baseline = fmea(baseline_grid, principles.reliability)

    stations = [b.id for b in grid.buses if b.kind == "switching_station"]
    plans: dict[str, list[ConceptPlan]] = {c: [] for c in concepts}
    tasks = []
    # the radial family (with the closed ring derived from it) removes the
    # switching station, the station family keeps and renews it
    for family, seed_offset in (("radial", 0), ("switching_station", 500009)):
        keep = family == "switching_station"
        wanted = [c for c in concepts if (c == "switching_station") == keep]
        if not wanted:
            continue
        if len(stations) > 1 or (keep and not stations):
            reason = ("no switching station in the area" if not stations
                      else "more than one switching station in the area")
            for concept in wanted:
                plans[concept] = [ConceptPlan(concept, k, feasible=False, error=reason)
                                  for k in range(params.n_topologies)]
            continue
        if keep:
            bookkeeping = (Measure(kind="RenewSwitchingStation", target=stations[0],
                                   cost_per_year=principles.cost_model.switching_station),)
        else:
            bookkeeping = tuple(Measure(kind="RemoveSwitchingStation", target=station)
                                for station in stations)
        dismantled = dismantle(baseline_grid, params.dismantle_threshold_km,
                               remove_station=bool(stations) and not keep)
        trails = candidate_trails(dismantled, trail_type,
                                  trail_factor=params.trail_factor,
                                  cost_model=principles.cost_model)
        job = (family, seed_offset, bookkeeping, "closed_ring" in wanted,
               dismantled, trails, principles, baseline)
        tasks += [(k, job) for k in range(params.n_topologies)]

    with PlanMemo():  # the tasks' searches share block results and reports
        if jobs > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_run_task, tasks))
        else:
            results = [_run_task(t) for t in tasks]

    for result in results:  # in task order, so each concept's in topology order
        for concept, plan in result.items():
            if concept in plans:
                plans[concept].append(plan)

    for concept in concepts:  # outside the memo: the re-validation shares nothing
        _select_reference(plans[concept], principles, baseline)
    return compare(area, plans)


# --------------------------------------------------------------------------
# report files


def _measure_to_dict(m: Measure) -> dict:
    doc = {"kind": m.kind, "target": m.target, "cost_per_year": m.cost_per_year}
    for key in ("to_station", "line_type", "length_km", "closed"):
        value = getattr(m, key)
        if value is not None:
            doc[key] = value
    return doc


def _plan_to_dict(plan: ConceptPlan) -> dict:
    doc = {
        "concept": plan.concept,
        "topology": plan.topology,
        "feasible": plan.feasible,
        "reference": plan.reference,
        "error": plan.error,
        "violations": list(plan.violations),
        "measures": [_measure_to_dict(m) for m in plan.measures],
        "cost": None,
        "asidi": None,
        "grid": grid_to_dict(plan.grid) if plan.grid is not None else None,
    }
    if plan.cost is not None:
        doc["cost"] = {"categories": dict(sorted(plan.cost.categories.items())),
                       "total": plan.cost.total}
    if plan.fmea is not None:
        doc["asidi"] = plan.fmea.asidi
        doc["worst_station_energy"] = max(plan.fmea.e_out.values(), default=0.0)
    return doc


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _comparison_csv(report: ComparisonReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["concept", "topology", "feasible", "cost_total", "reference"])
    for concept in sorted(report.plans):
        for plan in report.plans[concept]:
            writer.writerow([
                concept, plan.topology, plan.feasible,
                f"{plan.cost.total:.2f}" if plan.cost is not None else "",
                plan.reference])
    return buffer.getvalue()


def write_report(report: ComparisonReport, out_dir: str | Path, *,
                 timestamp: str | None = None) -> Path:
    """Write per-topology JSON plans plus the comparison pair; returns the
    area directory. Output is byte-deterministic except ``generated_at``."""
    area_dir = Path(out_dir) / report.area
    for concept in sorted(report.plans):
        concept_dir = area_dir / concept
        concept_dir.mkdir(parents=True, exist_ok=True)
        for plan in report.plans[concept]:
            path = concept_dir / f"topology_{plan.topology}.json"
            path.write_text(_dump(_plan_to_dict(plan)), encoding="utf-8")

    concepts_doc = {}
    for concept in sorted(report.plans):
        reference = report.references.get(concept)
        concepts_doc[concept] = {
            "feasible": reference is not None,
            "reference_topology": reference.topology if reference else None,
            "reference_cost": reference.cost.total if reference else None,
            "topology_costs": [
                plan.cost.total if plan.cost is not None else None
                for plan in report.plans[concept]],
        }
    comparison = {
        "area": report.area,
        "generated_at": timestamp or datetime.now(timezone.utc).isoformat(),
        "winner": report.winner,
        "concepts": concepts_doc,
        "deltas": report.deltas,
    }
    (area_dir / "comparison.json").write_text(_dump(comparison), encoding="utf-8")
    (area_dir / "comparison.csv").write_text(_comparison_csv(report), encoding="utf-8")
    return area_dir
