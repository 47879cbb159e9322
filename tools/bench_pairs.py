"""Run the benchmark as parent-against-change pairs and summarize each metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --seeds A-B

PARENT and CHANGE are two checkouts. For each seed from A to B, one pair
runs ``perfbench/run.py --workload W --seed SEED --seconds S --trace 0``
once in each checkout, one after the other: the parent goes first on the
first pair, the change on the second, and so on. S is ``run_seconds`` of
CHANGE's ``BENCHMARK.json``, which also names the end-to-end metrics and
which way each is better.

Prints one line per run, then per metric each side's median and quartiles,
the change's median against the parent's, and the number of pairs the
change wins (ties count for neither). The verdict reads ``gain`` when
there are at least ten pairs, the change wins at least nine tenths of them
and the medians differ by more than the parent's interquartile spread; the
same result on fewer pairs reads ``too few pairs``. It reads ``worse``
when the change's median is worse than the parent's by more than the
metric's bound, else ``within bound``. The tool reads only what the benchmark prints. Exit
status 1 when a run fails, is not correct or fails operations; 2 on bad
arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> range:
    """``A-B`` (inclusive) or a single seed ``A``."""
    first, _, last = text.partition("-")
    try:
        a = int(first)
        b = int(last) if last else a
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read A-B, got {text!r}") from None
    if a < 0 or b < a:
        raise argparse.ArgumentTypeError(f"seeds must read A-B with 0 <= A <= B, got {text!r}")
    return range(a, b + 1)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object on the last stdout line of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


MIN_PAIRS = 10  # a gain needs at least this many pairs


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[dict]:
    """One row per end-to-end metric over the (parent, change) run pairs."""
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        rel = (cm - pm) / abs(pm) if pm else 0.0
        if 10 * wins >= 9 * len(pairs) and sign * (cm - pm) > p3 - p1:
            verdict = "gain" if len(pairs) >= MIN_PAIRS else "too few pairs"
        elif -sign * rel > metric["bound"]:
            verdict = "worse"
        else:
            verdict = "within bound"
        rows.append({"name": name, "unit": metric["unit"], "parent": (p1, pm, p3),
                     "change": (c1, cm, c3), "rel": rel, "wins": wins,
                     "pairs": len(pairs), "verdict": verdict})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    args = parser.parse_args(argv)
    # run_once starts each run inside its checkout, so a relative path
    # would be applied twice
    args.parent, args.change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    pairs: list[tuple[dict, dict]] = []
    ok = True
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            try:
                runs[side] = run_once(getattr(args, side), args.workload, seed, seconds)
            except RuntimeError as error:
                print(error, file=sys.stderr)
                return 1
            run = runs[side]
            ok = ok and bool(run["correct"]) and run["failed"] == 0
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in run["metrics"].items())
            print(f"seed {seed} {side}: correct={run['correct']} "
                  f"failed={run['failed']}/{run['attempted']} {values}", flush=True)
        pairs.append((runs["parent"], runs["change"]))

    print(f"\n{args.workload}, {len(pairs)} pairs of {seconds:g} s runs: "
          "median [q1, q3] per side")
    for row in summarize(spec["end_to_end"], pairs):
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        label = f"{row['name']} ({row['unit']})"
        print(f"{label:>24}: {pm:.6g} [{p1:.6g}, {p3:.6g}] -> "
              f"{cm:.6g} [{c1:.6g}, {c3:.6g}]  {row['rel']:+.1%}  "
              f"wins {row['wins']}/{row['pairs']}  {row['verdict']}")
    if not ok:
        print("some run was not correct or failed operations", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
