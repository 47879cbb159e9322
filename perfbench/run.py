"""Area-planning benchmark for gridforge.

    python3 perfbench/run.py --workload example_area --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``example_area`` runs ``gridforge compare`` on
the shipped example area, ``large_checks`` runs the validator battery on
seeded synthetic areas of 110-300 stations, ``tradeoff_batch`` runs
``gridforge compare --jobs 2`` on the two shipped trade-off areas under a
range of planner seeds. A run repeats whole rounds of its operations until
the operations have taken ``--seconds`` of wall time, checks every output
against independent computations (checks.py) and prints one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics from a span trace
with ``--trace 1``. Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

_T_IMPORT = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"
WORKLOADS = ("example_area", "large_checks", "tradeoff_batch")
#: tradeoff_batch plans each trade-off area under these planner seeds. Seeds
#: 16 and 19 would fail on mesh_tradeoff_area: phase 2 closes the ring with a
#: parallel twin of the open tie and phase 3 then fails (CHANGES.md, FOUND).
PLANNER_SEEDS = tuple(range(10))


def process_age_s() -> float:
    """Seconds since this process was started (10 ms resolution)."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_IMPORT


def cpu_s() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


class Verdict:
    """Outcome of one operation's checks.

    ``failure`` says why the operation failed (it produced no usable
    result); ``findings`` are wrong outputs and make the run incorrect.
    The two are independent: a failed operation is still checked.
    """

    def __init__(self):
        self.failure: str | None = None
        self.findings: list[str] = []
        self.signature = ""


# ---------------------------------------------------------------------------
# planning workloads: gridforge compare, in process


class Planning:
    """``gridforge compare`` on shipped areas; one operation = one area."""

    def __init__(self, work: Path, seed: int, name: str):
        self.work, self.seed, self.name = work, seed, name

    def setup(self) -> list[dict]:
        from gridforge import fixtures
        from gridforge.grid_model import grid_to_dict, load_grid
        from gridforge.principles import load_principles

        inputs = self.work / "inputs"
        inputs.mkdir(parents=True)
        cases = []
        if self.name == "example_area":
            # the documented run: shipped files, planner seed 17, one process
            specs = [("example_area", ROOT / "data" / "example_area.json",
                      ROOT / "data" / "principles.json", 1)]
        else:
            import areas

            specs = []
            for area, build in (("station", fixtures.station_tradeoff_area),
                                ("mesh", fixtures.mesh_tradeoff_area)):
                path = inputs / f"{area}.json"
                path.write_text(json.dumps(grid_to_dict(build()), indent=1) + "\n")
                for planner_seed in PLANNER_SEEDS:
                    doc = fixtures.tradeoff_principles_dict(seed=planner_seed)
                    # the cost model spelled out, with the defaults' values,
                    # so the cost check needs no defaults of its own
                    doc["cost_model"] = {**areas.COST_MODEL, **doc["cost_model"]}
                    ppath = inputs / f"principles_{planner_seed}.json"
                    ppath.write_text(json.dumps(doc, indent=1) + "\n")
                    specs.append((f"{area}_{planner_seed}", path, ppath, 2))
            random.Random(self.seed).shuffle(specs)  # the workload seed sets the order
        for area, grid_path, principles_path, jobs in specs:
            grid_doc = json.loads(grid_path.read_text())
            load_grid(grid_path)
            load_principles(principles_path)
            cases.append({
                "area": area, "grid": str(grid_path), "principles": str(principles_path),
                "principles_doc": json.loads(principles_path.read_text()), "jobs": jobs,
                "concepts": self._applicable(grid_doc)})
        return cases

    @staticmethod
    def _applicable(grid_doc: dict) -> tuple[str, ...]:
        stations = sum(1 for b in grid_doc["buses"] if b["kind"] == "switching_station")
        return ("closed_ring", "radial") + (("switching_station",) if stations == 1 else ())

    def run(self, case: dict, round_dir: Path):
        from gridforge.cli import main

        argv = ["compare", case["grid"], "--principles", case["principles"],
                "--out", str(round_dir), "--area", case["area"], "--jobs", str(case["jobs"])]
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)

    def check(self, case: dict, rc, round_dir: Path, full: bool) -> Verdict:
        import checks

        verdict = Verdict()
        area_dir = round_dir / case["area"]
        comparison = json.loads((area_dir / "comparison.json").read_text())
        comparison.pop("generated_at")
        references = {c: d["reference_topology"] for c, d in comparison["concepts"].items()
                      if d["reference_topology"] is not None}
        missing = [c for c in case["concepts"] if c not in references]
        if rc not in (0, 1) or missing:
            verdict.failure = f"{case['area']}: exit {rc}, no plan for {missing}"
        plans = {c: json.loads((area_dir / c / f"topology_{k}.json").read_text())
                 for c, k in references.items()}
        verdict.signature = digest((comparison, sorted(plans.items())))
        case["plan_cost"] = sum(comparison["concepts"][c]["reference_cost"] for c in references)
        if not full:
            return verdict

        cost_model = case["principles_doc"]["cost_model"]
        costs = {}
        for concept, plan in plans.items():
            costs[concept] = checks.plan_cost(plan, cost_model)
            for claimed in (plan["cost"]["total"], comparison["concepts"][concept]["reference_cost"]):
                if abs(claimed - costs[concept]) > checks.COST_REL * max(costs[concept], 1.0):
                    verdict.findings.append(
                        f"{case['area']}/{concept}: cost {claimed} but measures give {costs[concept]}")
            if concept != "closed_ring":
                verdict.findings += checks.reference_findings(plan, case["principles_doc"])
        verdict.findings += checks.comparison_findings(comparison, costs)
        return verdict


# ---------------------------------------------------------------------------
# large_checks: the validator battery on generated areas


class LargeChecks:
    """Validator battery, no search; one operation = one area."""

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.solves: list = []

    def setup(self) -> list[dict]:
        import areas
        from gridforge import power_flow
        from gridforge.grid_model import load_grid
        from gridforge.principles import load_principles

        inputs = self.work / "inputs"
        inputs.mkdir(parents=True)
        principles_path = inputs / "principles.json"
        principles_doc = areas.principles_document()
        principles_path.write_text(areas.dumps(principles_doc))
        self.principles = load_principles(principles_path)
        cases = []
        for slot in areas.LARGE_SLOTS:
            doc = areas.build_area(slot, self.seed)
            path = inputs / f"{slot.name}.json"
            path.write_text(areas.dumps(doc))
            cases.append({"area": slot.name, "grid_obj": load_grid(path),
                          "doc": json.loads(path.read_text()), "principles_doc": principles_doc,
                          "plan_cost": sum(l["length"] for l in doc["lines"])
                          * principles_doc["cost_model"]["cable_per_km"]})

        # keep every Newton solve of the current operation for the checks
        solve = power_flow.run_power_flow

        def captured(grid, scenario, switch_state=None, exclude_lines=frozenset()):
            result = solve(grid, scenario, switch_state, exclude_lines)
            self.solves.append((scenario, switch_state, exclude_lines, result))
            return result

        power_flow.run_power_flow = captured
        return cases

    def run(self, case: dict, round_dir: Path):
        from gridforge.grid_model import validate_grid
        from gridforge.power_flow import check_contingency_operation, check_normal_operation
        from gridforge.reliability import fmea
        from gridforge.topology import check_contingency_supply, check_radiality, check_supply

        grid, p = case["grid_obj"], self.principles
        self.solves = []
        return {
            "faults": validate_grid(grid),
            "supply": check_supply(grid),
            "radiality": check_radiality(grid),
            "contingency_supply": check_contingency_supply(grid),
            "normal": check_normal_operation(grid, p.scenarios),
            "contingency": check_contingency_operation(grid, p.scenarios),
            "fmea": fmea(grid, p.reliability),
            "solves": self.solves,
        }

    def check(self, case: dict, out: dict, round_dir: Path, full: bool) -> Verdict:
        import checks

        verdict = Verdict()
        solves = out["solves"]
        verdict.signature = digest((
            [str(x) for key in ("faults", "supply", "radiality", "contingency_supply")
             for x in out[key]],
            [str(v) for v in out["normal"].entries + out["contingency"].entries],
            sorted(out["fmea"].t_out.items()),
            [(sorted(r.vm.items()), sorted(r.va.items())) for _, _, _, r in solves]))
        area = case["area"]
        if out["contingency_supply"]:
            # every flagged station sits on a ring with a closable tie
            verdict.failure = (f"{area}: {len(out['contingency_supply'])} stations "
                               f"wrongly reported without a second path")
        if not full:
            return verdict
        for key in ("faults", "supply", "radiality"):
            if out[key]:
                verdict.findings.append(f"{area}: generated grid has {key} findings {out[key][:3]}")

        g = checks.GridDoc(case["doc"])
        scenarios = {s["name"]: s for s in checks.scenarios_of(case["principles_doc"])}
        normal = {s.name: [] for s in self.principles.scenarios}
        for v in out["normal"].entries:
            normal[v.scenario].append(v)
        normal_solves = 0
        for scenario, switch_state, exclude, r in solves:
            sc = scenarios[scenario.name]
            if not r.converged:
                verdict.findings.append(f"{area}: solve did not converge")
                continue
            verdict.findings += [f"{area}: {f}" for f in checks.solve_findings(
                g, sc, switch_state, exclude, r.vm, r.va, r.p_slack_mw, r.q_slack_mvar,
                radial=True)]
            if switch_state is None and not exclude:
                normal_solves += 1
                verdict.findings += self._normal_verdict(g, sc, normal[sc["name"]], area)
        if normal_solves != len(scenarios):
            verdict.findings.append(f"{area}: {normal_solves} normal solves checked")

        result = out["fmea"]
        installed = {b: 0.0 for b in g.stations}
        for inj in case["doc"]["injections"]:
            if inj["category"] == "load" and inj["bus"] in installed:
                installed[inj["bus"]] += inj["sn"] * inj["p_factor"] * 1000.0
        for station, (low, high) in checks.fmea_bounds(g, case["principles_doc"]["reliability_params"]).items():
            t = result.t_out[station]
            if not low - 1e-12 <= t <= high + 1e-12:
                verdict.findings.append(f"{area}: t_out({station})={t:.6g} outside [{low:.6g}, {high:.6g}]")
            if abs(result.e_out[station] - installed[station] * t) > 1e-9 * max(result.e_out[station], 1.0):
                verdict.findings.append(f"{area}: e_out({station}) is not installed power x t_out")
        asidi = sum(result.e_out.values()) / sum(installed.values())
        if abs(result.asidi - asidi) > 1e-12 * max(asidi, 1.0):
            verdict.findings.append(f"{area}: ASIDI {result.asidi} but outage energy gives {asidi}")
        return verdict

    @staticmethod
    def _normal_verdict(g, scenario: dict, reported: list, area: str) -> list[str]:
        """Band and loading violations reported for a normal solve against the sweep."""
        import checks

        v = checks.sweep(g, scenario)
        certain, borderline = checks.band_violations(v, scenario)
        got = {(x.kind, x.element) for x in reported if x.kind in ("undervoltage", "overvoltage")}
        found = []
        if not certain <= got <= certain | borderline:
            found.append(f"{area}: voltage violations {sorted(got ^ certain)[:3]} disagree "
                         f"with the sweep in {scenario['name']}")
        loads = checks.loadings(g, v)
        over = {l for l, pct in loads.items() if pct > scenario["loading_max"] + 1e-6}
        edge = {l for l, pct in loads.items() if abs(pct - scenario["loading_max"]) <= 1e-6}
        got = {x.element for x in reported if x.kind == "overload"}
        if not over <= got <= over | edge:
            found.append(f"{area}: overloads {sorted(got ^ over)[:3]} disagree with the sweep")
        if any(x.kind in ("unsupplied", "nonconvergence") for x in reported):
            found.append(f"{area}: unexpected {[str(x) for x in reported][:3]}")
        return found


class Run:
    """What the timed rounds of one benchmark run did."""

    def __init__(self):
        self.attempted = self.failed = self.rounds = 0
        self.wall = self.cpu = 0.0  # seconds the operations took
        self.correct = True
        self.plan_cost = 0.0


def measure(workload, cases: list[dict], work: Path, seconds: float, tracer) -> Run:
    """Whole rounds over ``cases`` until the operations took ``seconds``.

    Only the operations are timed; checks run between them. Round 1 is
    checked against the independent computations, later rounds must
    reproduce round 1 exactly.
    """
    run = Run()
    first: dict[str, str] = {}
    while run.rounds == 0 or run.wall < seconds:
        round_dir = work / f"round_{run.rounds}"
        for case in cases:
            c0, t0 = cpu_s(), time.perf_counter()
            try:
                output = workload.run(case, round_dir)
                error = None
            except Exception:  # an operation that raises counts as failed
                error = traceback.format_exc()
            run.wall += time.perf_counter() - t0
            run.cpu += cpu_s() - c0
            run.attempted += 1
            if tracer is not None:
                tracer.collect_workers()
                tracer.end_operation()
            if error is not None:
                run.failed += 1
                print(f"{case['area']}: raised\n{error}", file=sys.stderr)
                continue
            try:
                verdict = workload.check(case, output, round_dir, full=run.rounds == 0)
            except Exception:  # output missing or malformed
                verdict = Verdict()
                verdict.findings.append(f"{case['area']}: check raised\n{traceback.format_exc()}")
            if run.rounds == 0:
                first[case["area"]] = verdict.signature
                run.plan_cost += case.get("plan_cost", 0.0)
            elif verdict.signature != first[case["area"]]:
                verdict.findings.append(f"{case['area']}: output differs from round 1")
            if verdict.failure is not None:
                run.failed += 1
                if run.rounds == 0:
                    print(f"failed: {verdict.failure}", file=sys.stderr)
            if verdict.findings:
                run.correct = False
            for finding in verdict.findings[:10]:
                print(finding, file=sys.stderr)
        shutil.rmtree(round_dir, ignore_errors=True)
        run.rounds += 1
    return run


# ---------------------------------------------------------------------------
# per-layer metrics from the trace


def layer_metrics(tracer, names: list[str], areas_done: int, traced_s: float,
                  ns_per_span: float) -> dict[str, float]:
    from tracing import LAYER_OF

    summary = tracer.summary()
    counters = tracer.counters
    n = max(areas_done, 1)
    spans = sum(calls for calls, _, _ in summary.values())
    overhead_s = (spans * ns_per_span + tracer.hook_ns) / 1e9
    solves = summary.get("power_flow.run_power_flow", (0, 0, 0))[0]
    layers: dict[str, float] = {}
    for label, (_, _, own) in summary.items():
        layer = label.split(".")[0]
        layer = LAYER_OF.get(layer, layer)
        layers[layer] = layers.get(layer, 0.0) + own / 1e9
    special = {
        "power_flow.newton_iterations": counters["newton_iterations"] / n,
        "power_flow.buses_solved": counters["buses_solved"] / n,
        "power_flow.repeat_input_share": tracer.repeated_solves / max(solves, 1),
        "planner.ils.evaluations": counters["ils_evaluations"] / n,
        "pipeline.plans_attempted": counters["plans_attempted"] / n,
        "pipeline.plans_feasible": counters["plans_feasible"] / n,
        "pipeline.feasible_plan_share":
            counters["plans_feasible"] / max(counters["plans_attempted"], 1),
        "pipeline.report_bytes": counters["report_bytes"] / n,
        "trace.spans": spans / n,
        "trace.worker_spans": counters["worker_spans"] / n,
        "trace.overhead_share": overhead_s / max(traced_s - overhead_s, 1e-9),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.startswith("layer."):
            out[name] = layers.get(name.split(".")[1], 0.0) / n
        else:
            label, field = name.rsplit(".", 1)
            calls, total, own = summary.get(label, (0, 0, 0))
            values = {"calls": calls, "self_s": own / 1e9, "total_s": total / 1e9}
            if field not in values:
                raise KeyError(f"no rule for per-layer metric {name!r}")
            out[name] = values[field] / n
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if not (ROOT / "src" / "gridforge" / "__init__.py").is_file():
        print(f"error: no gridforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("GRIDFORGE_SEED", None)  # the seed comes from the inputs only
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import gridforge.cli  # noqa: F401  (imports every layer)
    import gridforge.fixtures  # noqa: F401

    work = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(work)
        tracer.install()
    try:
        if args.workload == "large_checks":
            workload = LargeChecks(work, args.seed)
        else:
            workload = Planning(work, args.seed, args.workload)
        cases = workload.setup()
        setup_s = process_age_s()
        ns_per_span = tracer.calibrate() if tracer else 0.0

        run = measure(workload, cases, work, args.seconds, tracer)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if tracer is None:
            values = {
                "setup_s": setup_s,
                "areas_per_h": run.attempted / run.wall * 3600.0,
                "cpu_s_per_area": run.cpu / run.attempted,
                "peak_rss_mib": max(own, kids) / 1024.0,
                "plan_cost_eur_a": run.plan_cost,
            }
        else:
            values = layer_metrics(tracer, list(units), run.attempted, run.wall, ns_per_span)
            traces = OUT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(traces / f"{args.workload}.spans.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload}: {run.rounds} round(s), {run.attempted} areas, "
          f"{run.wall:.2f} s timed", file=sys.stderr)
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
