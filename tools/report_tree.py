"""Write the report tree that serves as the exactness gate of a refactor.

    python3 tools/report_tree.py OUT

Plans the shipped example area (``data/example_area.json`` with
``data/principles.json``) and both trade-off areas of
``gridforge.fixtures`` under ``tradeoff_principles_dict(seed=0..9)``, and
writes each report under ``OUT`` with a fixed timestamp, so two checkouts
can be compared with ``diff -r``. The areas are written as ``example_area``,
``station_<seed>`` and ``mesh_<seed>``. Runs serially, ignores
``GRIDFORGE_SEED``, and imports gridforge from the ``src`` directory next
to this script.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gridforge import fixtures  # noqa: E402
from gridforge.grid_model import load_grid  # noqa: E402
from gridforge.pipeline import run_area, write_report  # noqa: E402
from gridforge.principles import load_principles, principles_from_dict  # noqa: E402

TIMESTAMP = "2000-01-01T00:00:00+00:00"
PLANNER_SEEDS = range(10)


def areas():
    """(area name, grid, principles) of every report in the tree."""
    yield ("example_area", load_grid(ROOT / "data" / "example_area.json"),
           load_principles(ROOT / "data" / "principles.json"))
    for name, build in (("station", fixtures.station_tradeoff_area),
                        ("mesh", fixtures.mesh_tradeoff_area)):
        grid = build()
        for seed in PLANNER_SEEDS:
            yield (f"{name}_{seed}", grid,
                   principles_from_dict(fixtures.tradeoff_principles_dict(seed=seed)))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    os.environ.pop("GRIDFORGE_SEED", None)  # the planner seeds come from the principles
    files = 0
    for area, grid, principles in areas():
        area_dir = write_report(run_area(grid, principles, area=area), out,
                                timestamp=TIMESTAMP)
        files += sum(1 for p in area_dir.rglob("*") if p.is_file())
    print(f"{files} files under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
