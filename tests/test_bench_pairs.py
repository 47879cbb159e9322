"""tools/bench_pairs.py: alternating run order, win counts and verdicts,
with the benchmark runs replaced by fixed results."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "areas_per_h", "unit": "1/h", "better": "higher", "bound": 0.25},
           {"name": "cpu_s_per_area", "unit": "s", "better": "lower", "bound": 0.25}]


def result(rate, cpu, correct=True, failed=0):
    return {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {"areas_per_h": {"value": rate, "unit": "1/h"},
                        "cpu_s_per_area": {"value": cpu, "unit": "s"}}}


def test_seed_ranges():
    assert bench_pairs.parse_seeds("201-210") == range(201, 211)
    assert bench_pairs.parse_seeds("7") == range(7, 8)
    for bad in ("9-3", "a-b", "-1", ""):
        with pytest.raises(Exception):
            bench_pairs.parse_seeds(bad)


def test_verdicts_follow_the_pair_rule():
    pairs = [(result(100 + i, 1.0), result(200 + i, 1.0 + 0.01 * (i % 2))) for i in range(10)]
    rows = {r["name"]: r for r in bench_pairs.summarize(METRICS, pairs)}
    assert rows["areas_per_h"]["wins"] == 10
    assert rows["areas_per_h"]["verdict"] == "gain"
    assert rows["cpu_s_per_area"]["wins"] == 0
    assert rows["cpu_s_per_area"]["verdict"] == "within bound"
    worse = bench_pairs.summarize(METRICS, [(result(100, 1.0), result(70, 1.3))])
    assert [r["verdict"] for r in worse] == ["worse", "worse"]
    # 8 wins of 10 is no gain, however large the difference
    mixed = [(result(100, 1.0), result(300 if i < 8 else 50, 1.0)) for i in range(10)]
    assert bench_pairs.summarize(METRICS, mixed)[0]["verdict"] == "within bound"
    # 3 wins of 3, or 1 of 1, is too few pairs to call a gain
    for n in (1, 3):
        few = [(result(100 + i, 1.0), result(200 + i, 1.0)) for i in range(n)]
        rows = bench_pairs.summarize(METRICS, few)
        assert rows[0]["wins"] == n
        assert rows[0]["verdict"] == "too few pairs"


def test_the_sides_alternate_and_a_failed_operation_sets_the_exit_status(
        tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 20, "end_to_end": METRICS}))
    calls = []

    def fake(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed, seconds))
        return result(100.0, 1.0, failed=int(checkout.name == "change" and seed == 6))

    monkeypatch.setattr(bench_pairs, "run_once", fake)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "large_checks", "--seeds", "4-6"]
    assert bench_pairs.main(argv) == 1
    assert calls == [("parent", 4, 20), ("change", 4, 20), ("change", 5, 20),
                     ("parent", 5, 20), ("parent", 6, 20), ("change", 6, 20)]
    assert "wins 0/3" in capsys.readouterr().out
    # the run length is the benchmark's own, never an option
    with pytest.raises(SystemExit):
        bench_pairs.main(argv + ["--seconds", "5"])
