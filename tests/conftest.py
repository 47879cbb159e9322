"""Shared test plumbing.

Keeps the environment hermetic (the seed override variable must never leak
between tests) and collects the acceptance one-liners into a summary block
at the end of the run.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gridforge import fixtures as fx

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"


@pytest.fixture(autouse=True)
def _no_seed_env(monkeypatch):
    monkeypatch.delenv("GRIDFORGE_SEED", raising=False)


@pytest.fixture()
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture()
def two_station_area():
    """The station trade-off area with its first secondary substation made
    a second switching station: valid, but no concept can plan it."""
    grid = fx.station_tradeoff_area()
    first = next(b for b in grid.buses if b.kind == "secondary_substation")
    return grid.replace(buses=tuple(replace(b, kind="switching_station") if b is first
                                    else b for b in grid.buses))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod is not None else None
    if lines:
        terminalreporter.section("acceptance results")
        for line in lines:
            terminalreporter.write_line(line)
