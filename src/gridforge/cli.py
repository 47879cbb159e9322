"""Command-line front end.

Exit codes: 0 success, 1 infeasibility (violations found / no feasible
plan), 2 input error (unreadable files, schema violations, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from gridforge.economics import CONCEPTS
from gridforge.grid_model import SchemaError, load_grid, save_grid, validate_grid
from gridforge.pipeline import run_area, write_report
from gridforge.planner import dismantle
from gridforge.power_flow import check_normal_operation, run_power_flow
from gridforge.principles import default_principles, load_principles
from gridforge.reliability import fmea


def _load_principles(path: str | None):
    return load_principles(path) if path else default_principles()


def _cmd_validate(args) -> int:
    grid = load_grid(args.grid)
    faults = validate_grid(grid)
    for fault in faults:
        print(fault)
    if faults:
        print(f"{len(faults)} fault(s) found")
        return 2
    print(f"ok: {len(grid.buses)} buses, {len(grid.lines)} lines")
    return 0


def _cmd_pf(args) -> int:
    grid = load_grid(args.grid)
    principles = _load_principles(args.principles)
    scenario = next((s for s in principles.scenarios if s.name == args.scenario), None)
    if scenario is None:
        names = ", ".join(s.name for s in principles.scenarios)
        raise SchemaError("$.scenarios", f"unknown scenario {args.scenario!r} (have: {names})")
    result = run_power_flow(grid, scenario)
    report = check_normal_operation(grid, (scenario,))

    if args.json:
        doc = {
            "scenario": scenario.name,
            "converged": result.converged,
            "iterations": result.iterations,
            "vm_pu": dict(sorted(result.vm.items())),
            "loading_percent": dict(sorted(result.loading.items())),
            "violations": [f"{v.kind}({v.element})={v.magnitude:.6g}"
                           for v in report.entries],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"scenario {scenario.name}: converged={result.converged} "
              f"iterations={result.iterations}")
        for bus, vm in sorted(result.vm.items()):
            print(f"  {bus}: {vm:.4f} pu")
        for line, loading in sorted(result.loading.items()):
            print(f"  {line}: {loading:.1f} %")
        for violation in report.entries:
            print(f"  VIOLATION {violation.kind}({violation.element}) "
                  f"magnitude={violation.magnitude:.6g}")
    return 0 if report.feasible else 1


def _cmd_fmea(args) -> int:
    grid = load_grid(args.grid)
    principles = _load_principles(args.principles)
    result = fmea(grid, principles.reliability)
    limit = principles.reliability.e_out_max
    over = [s for s, e in result.e_out.items() if e > limit]

    if args.json:
        doc = {
            "asidi_h_per_a": result.asidi,
            "t_out_h_per_a": dict(sorted(result.t_out.items())),
            "e_out_kwh_per_a": dict(sorted(result.e_out.items())),
            "stations_over_limit": sorted(over),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"ASIDI = {result.asidi:.6f} h/a")
        for station in sorted(result.t_out):
            marker = "  !" if station in over else ""
            print(f"  {station}: t_out={result.t_out[station]:.4f} h/a "
                  f"e_out={result.e_out[station]:.2f} kWh/a{marker}")
    return 1 if over else 0


def _cmd_dismantle(args) -> int:
    grid = load_grid(args.grid)
    stripped = dismantle(grid, args.threshold, remove_station=args.remove_station)
    if args.out:
        save_grid(stripped, args.out)
        print(f"wrote {args.out}")
    else:
        from gridforge.grid_model import grid_to_dict
        print(json.dumps(grid_to_dict(stripped), indent=2))
    removed = stripped.meta.get("removed_lines", [])
    print(f"removed {len(removed)} line(s): {', '.join(removed) or '-'}",
          file=sys.stderr)
    return 0


def _cmd_plan(args) -> int:
    return _plan_or_compare(args, (args.concept,))


def _cmd_compare(args) -> int:
    return _plan_or_compare(args, CONCEPTS)


def _plan_or_compare(args, concepts) -> int:
    grid = load_grid(args.grid)
    faults = validate_grid(grid)
    if faults:
        for fault in faults:
            print(fault, file=sys.stderr)
        raise SchemaError("$", f"grid has {len(faults)} integrity fault(s)")
    principles = _load_principles(args.principles)
    area = args.area or Path(args.grid).stem
    report = run_area(grid, principles, area=area, concepts=tuple(concepts),
                      jobs=args.jobs)
    area_dir = write_report(report, args.out)
    for concept in concepts:
        reference = report.references.get(concept)
        if reference is None:
            print(f"{concept}: no feasible plan")
        else:
            print(f"{concept}: {reference.cost.total:.0f} EUR/a "
                  f"(topology {reference.topology})")
    if report.winner is not None:
        print(f"winner: {report.winner}")
    print(f"reports in {area_dir}")
    return 0 if all(report.references.get(c) for c in concepts) else 1


def _job_count(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridforge",
        description="Target-grid planning for medium-voltage areas: validate, "
                    "analyze and optimize grids, then compare grid concepts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a grid file for integrity faults")
    p.add_argument("grid")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("pf", help="run a power flow for one scenario")
    p.add_argument("grid")
    p.add_argument("--scenario", default="peak_load")
    p.add_argument("--principles")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pf)

    p = sub.add_parser("fmea", help="annual outage times, energies and ASIDI")
    p.add_argument("grid")
    p.add_argument("--principles")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fmea)

    p = sub.add_parser("dismantle", help="strip long lines (and optionally "
                                         "the switching station)")
    p.add_argument("grid")
    p.add_argument("--remove-station", action="store_true")
    p.add_argument("--threshold", type=float, default=2.0, metavar="KM")
    p.add_argument("--out", "-o")
    p.set_defaults(func=_cmd_dismantle)

    p = sub.add_parser("plan", help="optimize one concept for a grid area")
    p.add_argument("grid")
    p.add_argument("--principles")
    p.add_argument("--concept", choices=CONCEPTS, required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--area")
    p.add_argument("--jobs", type=_job_count, default=1)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("compare", help="optimize and compare all three concepts")
    p.add_argument("grid")
    p.add_argument("--principles")
    p.add_argument("--out", default="out")
    p.add_argument("--area")
    p.add_argument("--jobs", type=_job_count, default=1)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
