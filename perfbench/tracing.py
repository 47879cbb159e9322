"""Span tracing of gridforge's public functions, kept in memory.

``Tracer.install`` wraps every public function of the layer modules (plus
``pipeline._run_task``, the unit of work sent to ``--jobs`` workers) and
rebinds each wrapper under every name that refers to the original in any
gridforge module, because ``planner``, ``pipeline`` and ``cli`` bind
functions with ``from ... import``. A span is (id, parent id, name, start,
end); ids carry the process id in their upper 32 bits, so spans recorded in
pool workers keep their own ids and point at the parent-process span that
created the pool. Worker spans are written to a file after each task and
merged by the parent.

A span's self time is its duration minus the time covered by its children
in the same process. Worker spans are linked to the parent's span but not
subtracted from it: at ``--jobs 2`` the parent's self time is pool wait.
"""

from __future__ import annotations

import functools
import inspect
import os
import pickle
import sys
import time
import weakref
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

#: gridforge modules traced, in layer order; cli spans count to ``pipeline``
LAYERS = ("grid_model", "topology", "power_flow", "reliability", "economics",
          "planner", "pipeline", "cli")
LAYER_OF = {"cli": "pipeline"}
EXTRA = {"pipeline": ("_run_task",)}
SPAN_FIELDS = 6  # id, parent, name index, start ns, end ns, children's hook ns
#: ConceptPlan errors that mark a concept as not applicable to the area
INAPPLICABLE = ("no switching station in the area",
                "more than one switching station in the area")

_now = time.perf_counter_ns
_active: "Tracer | None" = None  # the tracer a forked or spawned pool worker resets


class Tracer:
    def __init__(self, work_dir: Path):
        self.work_dir = Path(work_dir)
        self.names: list[str] = []
        self.spans = array("q")
        self.stack: list[list[int]] = []  # open spans: [id, children's hook ns]
        self.next_id = os.getpid() << 32
        self.root_parent = 0
        self.is_worker = False
        self.counters: Counter = Counter()
        self.solve_keys: list[int] = []  # input keys of this operation's solves
        self.repeated_solves = 0  # solves repeating an earlier one of the same operation
        self.hook_ns = 0
        self.flushes = 0
        self._grid_digests: dict[int, tuple[weakref.ref, int]] = {}

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, label: str, hook=None):
        name = len(self.names)
        self.names.append(label)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else self.root_parent
            sid = self.next_id
            self.next_id = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                spans.extend((sid, parent, name, t0, t1, frame[1]))
            if hook is not None:
                h0 = _now()
                hook(args, kwargs, result)
                spent = _now() - h0
                self.hook_ns += spent
                if stack:
                    stack[-1][1] += spent
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self) -> None:
        """Wrap the layer modules' public functions and rebind them everywhere."""
        global _active
        hooks = {
            "power_flow.run_power_flow": self._on_solve,
            "planner.ils": self._on_ils,
            "pipeline.run_area": self._on_run_area,
            "pipeline.write_report": self._on_write_report,
            "pipeline._run_task": self._on_task,
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"gridforge.{layer}"]
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
                    continue
                if getattr(obj, "__wrapped_by_tracer__", False):
                    continue
                label = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(obj, label, hooks.get(label))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gridforge" and not mod_name.startswith("gridforge."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        sys.modules["gridforge.pipeline"].ProcessPoolExecutor = self._pool
        _active = self

    def _pool(self, *args, **kwargs) -> ProcessPoolExecutor:
        parent = self.stack[-1][0] if self.stack else self.root_parent
        return ProcessPoolExecutor(*args, initializer=_worker_init,
                                   initargs=(parent, str(self.work_dir), list(sys.path)),
                                   **kwargs)

    # -- hooks: counters read from arguments and results ------------------

    def _grid_digest(self, grid) -> int:
        cached = self._grid_digests.get(id(grid))
        if cached is not None and cached[0]() is grid:
            return cached[1]
        digest = hash((grid.buses, grid.line_types, grid.lines, grid.switches,
                       grid.transformers, grid.injections, grid.external_sources,
                       tuple(tuple(sorted(t.setpoint_by_scenario.items()))
                             for t in grid.transformers)))
        self._grid_digests[id(grid)] = (weakref.ref(grid), digest)
        return digest

    def _on_solve(self, args, kwargs, result) -> None:
        grid, scenario = args[0], args[1]
        switch_state = args[2] if len(args) > 2 else kwargs.get("switch_state")
        exclude = args[3] if len(args) > 3 else kwargs.get("exclude_lines", frozenset())
        state = {s.id: s.closed for s in grid.switches}
        if switch_state:
            state.update((k, v) for k, v in switch_state.items() if k in state)
        opened = frozenset(k for k, closed in state.items() if not closed)
        self.solve_keys.append(hash((self._grid_digest(grid), scenario, opened,
                                     frozenset(exclude))))
        self.counters["newton_iterations"] += result.iterations
        self.counters["buses_solved"] += len(result.vm)

    def _on_ils(self, args, kwargs, result) -> None:
        self.counters["ils_evaluations"] += result.evaluations

    def _on_run_area(self, args, kwargs, report) -> None:
        for plans in report.plans.values():
            for plan in plans:
                if plan.grid is None and plan.error in INAPPLICABLE:
                    continue  # concept does not apply to the area; nothing was searched
                self.counters["plans_attempted"] += 1
                self.counters["plans_feasible"] += bool(plan.feasible)

    def _on_write_report(self, args, kwargs, area_dir) -> None:
        self.counters["report_bytes"] += sum(
            p.stat().st_size for p in Path(area_dir).rglob("*") if p.is_file())

    def _on_task(self, args, kwargs, result) -> None:
        if self.is_worker:
            self.flush()

    # -- worker plumbing ---------------------------------------------------

    def reset_for_worker(self, parent: int) -> None:
        del self.spans[:]  # cleared in place: the wrappers hold this array
        self.stack.clear()
        self.next_id = os.getpid() << 32
        self.root_parent = parent
        self.is_worker = True
        self.counters = Counter()
        self.solve_keys = []
        self.hook_ns = 0
        self._grid_digests = {}

    def flush(self) -> None:
        """Write this worker's spans and counters since the last flush."""
        self.flushes += 1
        path = self.work_dir / f"worker-{os.getpid()}-{self.flushes}.pkl"
        payload = (self.names, self.spans.tobytes(), dict(self.counters),
                   self.solve_keys, self.hook_ns)
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        del self.spans[:]
        self.counters.clear()
        self.solve_keys = []
        self.hook_ns = 0

    def collect_workers(self) -> int:
        """Merge the files pool workers wrote; returns the spans merged."""
        merged = 0
        index = {label: i for i, label in enumerate(self.names)}
        for path in sorted(self.work_dir.glob("worker-*.pkl")):
            with open(path, "rb") as fh:
                names, raw, counters, keys, hook_ns = pickle.load(fh)
            path.unlink()
            spans = array("q")
            spans.frombytes(raw)
            for i in range(2, len(spans), SPAN_FIELDS):
                label = names[spans[i]]
                if label not in index:
                    index[label] = len(self.names)
                    self.names.append(label)
                spans[i] = index[label]
            self.spans.extend(spans)
            self.counters.update(counters)
            self.solve_keys.extend(keys)
            self.hook_ns += hook_ns
            merged += len(spans) // SPAN_FIELDS
        self.counters["worker_spans"] += merged
        return merged

    def end_operation(self) -> None:
        """Count repeated solve inputs within the operation that just ended."""
        self.repeated_solves += len(self.solve_keys) - len(set(self.solve_keys))
        self.solve_keys = []

    # -- results -------------------------------------------------------------

    def calibrate(self, calls: int = 20000) -> float:
        """Wrapper cost per span in ns: a wrapped no-op against a bare one."""
        def noop():
            return None

        wrapped = self._wrap(noop, "trace.calibration")
        keep_spans, keep_id = len(self.spans), self.next_id
        best = float("inf")
        for _ in range(3):
            t0 = _now()
            for _ in range(calls):
                noop()
            bare = _now() - t0
            t0 = _now()
            for _ in range(calls):
                wrapped()
            best = min(best, (_now() - t0 - bare) / calls)
            del self.spans[keep_spans:]
        self.names.pop()
        self.next_id = keep_id
        return max(best, 0.0)

    def summary(self) -> dict[str, tuple[int, int, int]]:
        """label -> (calls, total ns, self ns)."""
        spans = self.spans
        covered: Counter = Counter()
        for k in range(0, len(spans), SPAN_FIELDS):
            sid, parent = spans[k], spans[k + 1]
            if parent and (parent >> 32) == (sid >> 32):
                covered[parent] += spans[k + 4] - spans[k + 3]
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for k in range(0, len(spans), SPAN_FIELDS):
            sid, name = spans[k], spans[k + 2]
            duration = spans[k + 4] - spans[k + 3]
            calls[name] += 1
            total[name] += duration
            own[name] += duration - covered[sid] - spans[k + 5]
        return {self.names[i]: (calls[i], total[i], own[i]) for i in calls}

    def write_spans(self, path: Path) -> None:
        spans = self.spans
        rows = ["id,parent,name,start_ns,end_ns"]
        for k in range(0, len(spans), SPAN_FIELDS):
            rows.append(f"{spans[k]},{spans[k + 1]},{self.names[spans[k + 2]]},"
                        f"{spans[k + 3]},{spans[k + 4]}")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _worker_init(parent: int, work_dir: str, path: list[str]) -> None:
    """Pool-worker initializer: reset an inherited tracer or install one."""
    if _active is None:  # spawn/forkserver: a fresh interpreter
        sys.path[:] = path
        for layer in LAYERS:
            __import__(f"gridforge.{layer}")
        Tracer(Path(work_dir)).install()
    _active.reset_for_worker(parent)
