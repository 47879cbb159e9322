"""Command-line interface tests.

Exit-code contract: 0 success, 1 infeasibility, 2 input errors.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridforge
from gridforge import fixtures as fx
from gridforge.cli import main
from gridforge.grid_model import grid_to_dict, load_grid, save_grid


@pytest.fixture
def files(tmp_path):
    """A directory with the grids and principles the commands get fed."""
    save_grid(fx.two_bus_grid(), tmp_path / "two_bus.json")
    save_grid(fx.two_bus_grid(sn_mva=12.0), tmp_path / "overloaded.json")
    save_grid(fx.single_station_grid(), tmp_path / "single.json")
    save_grid(fx.ring_pair_grid(1.9), tmp_path / "long_ring.json")
    save_grid(fx.station_tradeoff_area(), tmp_path / "station.json")
    save_grid(fx.mesh_tradeoff_area(), tmp_path / "mesh.json")
    (tmp_path / "principles.json").write_text(
        json.dumps(fx.example_principles_dict()), encoding="utf-8")
    (tmp_path / "tradeoff.json").write_text(
        json.dumps(fx.tradeoff_principles_dict()), encoding="utf-8")
    broken = grid_to_dict(fx.two_bus_grid())
    broken["lines"][0]["to_bus"] = "ghost"
    (tmp_path / "faulty.json").write_text(json.dumps(broken), encoding="utf-8")
    (tmp_path / "garbage.json").write_text("{oops", encoding="utf-8")
    return tmp_path


# --------------------------------------------------------------------------
# validate


def test_validate_reports_a_clean_grid(files, capsys):
    assert main(["validate", str(files / "two_bus.json")]) == 0
    out = capsys.readouterr().out
    assert "ok: 3 buses, 1 lines" in out


def test_validate_lists_integrity_faults(files, capsys):
    assert main(["validate", str(files / "faulty.json")]) == 2
    out = capsys.readouterr().out
    assert "ghost" in out
    assert "fault(s) found" in out


def test_missing_files_exit_with_an_input_error(files, capsys):
    assert main(["validate", str(files / "does_not_exist.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unparseable_json_exits_with_an_input_error(files, capsys):
    assert main(["validate", str(files / "garbage.json")]) == 2
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# pf


def test_pf_prints_voltages_and_loadings(files, capsys):
    assert main(["pf", str(files / "two_bus.json")]) == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    assert "s1: 0.9885 pu" in out


def test_pf_json_output_is_machine_readable(files, capsys):
    code = main(["pf", str(files / "two_bus.json"), "--json",
                 "--principles", str(files / "principles.json")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["converged", "iterations", "loading_percent",
                           "scenario", "violations", "vm_pu"]
    assert doc["scenario"] == "peak_load"
    assert doc["converged"] is True
    assert doc["vm_pu"]["s1"] == pytest.approx(0.9885, abs=1e-4)
    assert doc["violations"] == []


def test_pf_flags_violations_with_exit_one(files, capsys):
    code = main(["pf", str(files / "overloaded.json"),
                 "--principles", str(files / "principles.json")])
    assert code == 1
    assert "VIOLATION" in capsys.readouterr().out


def test_pf_rejects_unknown_scenarios(files, capsys):
    code = main(["pf", str(files / "two_bus.json"), "--scenario", "blizzard"])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


# --------------------------------------------------------------------------
# fmea


def test_fmea_json_reports_the_outage_figures(files, capsys):
    code = main(["fmea", str(files / "single.json"), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["asidi_h_per_a"] == pytest.approx(0.2)
    assert doc["t_out_h_per_a"]["s1"] == pytest.approx(0.2)
    assert doc["e_out_kwh_per_a"]["s1"] == pytest.approx(20.0)
    assert doc["stations_over_limit"] == []


def test_fmea_marks_stations_over_the_energy_limit(files, capsys):
    code = main(["fmea", str(files / "long_ring.json"),
                 "--principles", str(files / "principles.json")])
    assert code == 1
    out = capsys.readouterr().out
    assert "ASIDI" in out
    assert "!" in out  # the over-limit marker


# --------------------------------------------------------------------------
# dismantle


def test_dismantle_writes_the_stripped_grid(files, capsys):
    out_path = files / "stripped.json"
    code = main(["dismantle", str(files / "station.json"), "--remove-station",
                 "--out", str(out_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert "removed 6 line(s)" in captured.err
    stripped = load_grid(out_path)
    assert stripped.meta["removed_station"] == "ss"
    assert "ss" not in stripped.buses_by_id


def test_dismantle_threshold_is_adjustable(files, capsys):
    code = main(["dismantle", str(files / "station.json"),
                 "--threshold", "99", "--out", str(files / "kept.json")])
    assert code == 0
    assert "removed 0 line(s): -" in capsys.readouterr().err
    assert load_grid(files / "kept.json").meta["removed_lines"] == []


def test_dismantle_without_out_prints_the_grid(files, capsys):
    assert main(["dismantle", str(files / "two_bus.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lines"] == []  # the 5 km feeder is gone
    assert {b["id"] for b in doc["buses"]} == {"hv", "mv", "s1"}


def test_dismantle_station_removal_needs_a_station(files, capsys):
    code = main(["dismantle", str(files / "two_bus.json"), "--remove-station"])
    assert code == 2
    assert "exactly one switching station" in capsys.readouterr().err


# --------------------------------------------------------------------------
# plan / compare


def test_plan_optimizes_a_single_concept(files, capsys):
    code = main(["plan", str(files / "mesh.json"), "--concept", "radial",
                 "--principles", str(files / "tradeoff.json"),
                 "--out", str(files / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "radial: 26600 EUR/a (topology 1)" in out
    assert "winner: radial" in out
    written = sorted(str(p.relative_to(files / "out"))
                     for p in (files / "out").rglob("*") if p.is_file())
    assert written == ["mesh/comparison.csv", "mesh/comparison.json",
                       "mesh/radial/topology_0.json", "mesh/radial/topology_1.json",
                       "mesh/radial/topology_2.json"]


def test_plan_exits_one_when_the_concept_is_infeasible(files, capsys):
    code = main(["plan", str(files / "mesh.json"), "--concept", "switching_station",
                 "--principles", str(files / "tradeoff.json"),
                 "--out", str(files / "out")])
    assert code == 1
    assert "switching_station: no feasible plan" in capsys.readouterr().out


def test_plan_rejects_unknown_concepts(files):
    with pytest.raises(SystemExit) as info:
        main(["plan", str(files / "mesh.json"), "--concept", "spider_web"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", ["plan", "compare"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_plan_and_compare_reject_jobs_below_one(files, capsys, command, jobs):
    argv = [command, str(files / "mesh.json"), "--jobs", jobs,
            "--out", str(files / "out")]
    if command == "plan":
        argv += ["--concept", "radial"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (files / "out").exists()


def test_compare_runs_all_three_concepts(files, capsys):
    code = main(["compare", str(files / "station.json"),
                 "--principles", str(files / "tradeoff.json"),
                 "--out", str(files / "out"), "--area", "station"])
    assert code == 0
    out = capsys.readouterr().out
    assert "radial: 74819 EUR/a (topology 0)" in out
    assert "closed_ring: 75799 EUR/a (topology 0)" in out
    assert "switching_station: 96061 EUR/a (topology 0)" in out
    assert "winner: radial" in out
    comparison = json.loads(
        (files / "out" / "station" / "comparison.json").read_text(encoding="utf-8"))
    assert comparison["winner"] == "radial"


def test_compare_exits_one_on_an_area_with_two_switching_stations(
        files, capsys, two_station_area):
    save_grid(two_station_area, files / "two.json")
    code = main(["compare", str(files / "two.json"),
                 "--principles", str(files / "tradeoff.json"),
                 "--out", str(files / "out")])
    assert code == 1
    out = capsys.readouterr().out
    for concept in ("radial", "closed_ring", "switching_station"):
        assert f"{concept}: no feasible plan" in out
    assert "winner" not in out


def test_compare_refuses_a_faulty_grid(files, capsys):
    code = main(["compare", str(files / "faulty.json"),
                 "--principles", str(files / "tradeoff.json"),
                 "--out", str(files / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "integrity fault" in err


def test_the_module_is_runnable_as_a_script(files):
    # the child imports the package from where this process found it
    src = str(Path(gridforge.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "gridforge.cli", "validate", str(files / "two_bus.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "ok:" in proc.stdout


# Runs in a fresh interpreter: other tests load scipy into this process.
NO_SCIPY_UNTIL_A_PLAN = """
import contextlib, io, sys
import gridforge, gridforge.cli, gridforge.pipeline, gridforge.fixtures
from gridforge import planner

grid, principles = sys.argv[1:]
codes = []
for argv in (["validate", grid], ["pf", grid, "--principles", principles],
             ["fmea", grid, "--principles", principles]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(gridforge.cli.main(argv))
assert codes == [0, 0, 1], codes
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"{len(loaded)} scipy modules loaded: {loaded[:3]}"

pairs = planner._delaunay_pairs([(0.0, 0.0), (4.0, 0.5), (1.0, 3.0), (5.0, 4.0)])
assert pairs == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}, pairs
assert "scipy.spatial" in sys.modules
print("ok")
"""


def test_scipy_is_loaded_only_when_plan_candidates_are_triangulated(data_dir):
    src = str(Path(gridforge.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_UNTIL_A_PLAN, str(data_dir / "example_area.json"),
         str(data_dir / "principles.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
