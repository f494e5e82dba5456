"""Layer tracing from outside the program.

The benchmark's per-layer numbers come from timing wrappers installed
around each layer's public entry points.  Nothing under ``src/`` knows
about them.  A wrapper records one span per call (layer, name, start, end,
the span that caused it), and a layer's **self time** is its span's
duration minus the part of that interval its child spans cover, tracked
with a per-thread span stack.

The entry points are the single table :data:`POINTS`, resolved when
:meth:`LayerTracer.install` runs.  A name that no longer exists is skipped
and listed in ``missing``, so a refactor of ``src/`` cannot break a run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The root span the harness opens around a timed repetition.  Its self
#: time is what no named layer covers: continuations, muscles, the
#: simulator loop and, on real backends, waiting for the workers.
ROOT = "interpreter"

_BUS = "repro.events.bus"
_REGISTRY = "repro.core.statemachines.registry"
_ANALYSIS = "repro.core.analysis"
_ENGINE = "repro.core.planning.engine"
_ADMISSION = "repro.service.admission"

#: ``(layer, module, dotted attribute)``.  Module functions are patched
#: where the caller looks them up (``compiled_pin`` as bound in
#: ``planning.engine``), methods on the class that defines or inherits them.
POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("events", _BUS, "EventBus.publish"),
    ("events", _BUS, "EventBus.publish_batch"),
    ("statemachines", _REGISTRY, "MachineRegistry.on_event"),
    ("statemachines", _REGISTRY, "MachineRegistry.on_batch"),
    ("analysis.observe", _ANALYSIS, "ExecutionAnalyzer.on_event"),
    ("analysis.observe", _ANALYSIS, "ExecutionAnalyzer.on_batch"),
    ("analysis.observe", _ANALYSIS, "ExecutionAnalyzer.observe"),
    ("analysis.analyze", _ANALYSIS, "ExecutionAnalyzer.analyze"),
    ("controller", "repro.core.controller", "AutonomicController.on_event"),
    ("planning.project", _ENGINE, "PlanEngine.projection"),
    ("planning.project", _ENGINE, "PlanEngine.structural_plan"),
    ("planning.project", _ENGINE, "PlanEngine.structural_projection"),
    ("planning.pin", _ENGINE, "compiled_pin"),
    ("planning.pin", _ENGINE, "compiled_pin_delta"),
    ("planning.pin", "repro.core.planning.compile", "CompiledProjection.pinned_fresh"),
    ("planning.critical_path", _ENGINE, "compiled_critical_path"),
    ("planning.schedule", _ENGINE, "PlanEngine.best_effort"),
    ("planning.schedule", _ENGINE, "PlanEngine.limited"),
    ("planning.schedule", _ENGINE, "PlanEngine.optimal_lp"),
    ("planning.schedule", _ENGINE, "PlanEngine.wct_at"),
    ("planning.schedule", _ENGINE, "PlanEngine.structural_wct"),
    ("planning.minimal_lp", _ENGINE, "PlanEngine.minimal_lp"),
    ("planning.minimal_lp", _ENGINE, "PlanEngine.structural_minimal_lp"),
    ("admission", _ADMISSION, "AdmissionController.evaluate"),
    ("admission", _ADMISSION, "AdmissionController.load_allows"),
    ("admission", _ADMISSION, "AdmissionController.reservation_for"),
    ("arbiter", "repro.service.arbiter", "LPArbiter.rebalance"),
    ("service", "repro.service.service", "SkeletonService.submit"),
    ("platform.apply", "repro.runtime.platform", "Platform.set_shares"),
    ("platform.apply", "repro.runtime.simulator", "SimulatedPlatform.set_parallelism"),
    ("platform.apply", "repro.runtime.threadpool", "ThreadPoolPlatform.set_parallelism"),
    ("platform.apply", "repro.runtime.processpool", "ProcessPoolPlatform.set_parallelism"),
    ("platform.dispatch", "repro.runtime.simulator", "SimulatedPlatform.submit"),
    ("platform.dispatch", "repro.runtime.threadpool", "ThreadPoolPlatform.submit"),
    ("platform.dispatch", "repro.runtime.processpool", "ProcessPoolPlatform.submit"),
    ("obs", "repro.obs.instrument", "BusInstrument.on_event"),
    ("obs", "repro.obs.instrument", "BusInstrument.on_batch"),
    ("obs", "repro.obs.exporters", "FlightRecorder.on_event"),
    ("obs", "repro.obs.exporters", "FlightRecorder.on_batch"),
)

#: Every layer a run reports, the root last.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _m, _a in POINTS)) + (ROOT,)

#: The entry point whose non-``None`` returns are counted as reports.
_COUNT_RESULTS = "ExecutionAnalyzer.analyze"


class _Totals:
    """Accumulated calls and self time of one section, on one thread."""

    __slots__ = ("calls", "self_s", "root_s", "reports")

    def __init__(self) -> None:
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        #: Summed duration of spans that had no parent on their thread.
        self.root_s = 0.0
        #: Non-``None`` returns of the analyzer's ``analyze``.
        self.reports = 0


class _ThreadState:
    """One thread's span stack and totals (no lock: only its thread writes)."""

    def __init__(self) -> None:
        self.child_s: List[float] = []  # per open span: time its children cover
        self.open_ids: List[int] = []
        self.sections: Dict[str, _Totals] = {}
        self.spans: List[Tuple[int, Optional[int], str, str, float, float]] = []

    def totals(self, section: str) -> _Totals:
        totals = self.sections.get(section)
        if totals is None:
            totals = self.sections[section] = _Totals()
        return totals


class LayerTracer:
    """Installs the wrappers, keeps spans in memory, sums self time per layer.

    Totals are kept per *section* (the harness names the part of a
    repetition it is timing: the managed run, its bare twin, ...), so one
    traced repetition can report the twin's layers apart from the run's.
    """

    def __init__(self) -> None:
        self.section = "auto"
        #: Full span records are kept only while this is set (the harness
        #: sets it for the first traced repetition); totals always are.
        self.keep_spans = False
        self.resolved: List[str] = []
        self.missing: List[str] = []
        self._index = {layer: i for i, layer in enumerate(LAYERS)}
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore: List[Tuple[Any, str, bool, Any]] = []

    # -- spans ------------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def _enter(self, state: _ThreadState) -> Optional[int]:
        state.child_s.append(0.0)
        if not self.keep_spans:
            return None
        span_id = next(self._ids)
        state.open_ids.append(span_id)
        return span_id

    def _exit(
        self,
        state: _ThreadState,
        layer: int,
        name: str,
        span_id: Optional[int],
        start: float,
        end: float,
    ) -> None:
        duration = end - start
        covered = state.child_s.pop()
        totals = state.totals(self.section)
        totals.calls[layer] += 1
        totals.self_s[layer] += duration - covered
        if state.child_s:
            state.child_s[-1] += duration
        else:
            totals.root_s += duration
        if span_id is not None:
            state.open_ids.pop()
            parent = state.open_ids[-1] if state.open_ids else None
            state.spans.append((span_id, parent, LAYERS[layer], name, start, end))

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        index = self._index[layer]
        count_results = name == _COUNT_RESULTS

        def traced(*args: Any, **kwargs: Any) -> Any:
            state = self._state()
            span_id = self._enter(state)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(state, index, name, span_id, start, perf_counter())
            if count_results and result is not None:
                state.totals(self.section).reports += 1
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def span(self, section: str, name: str) -> Iterator[None]:
        """The harness's root span around one timed part of a repetition."""
        self.section = section
        state = self._state()
        span_id = self._enter(state)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(state, self._index[ROOT], name, span_id, start, perf_counter())

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Resolve :data:`POINTS` and patch every name that still exists."""
        if self._restore:
            return
        self.resolved, self.missing = [], []
        for layer, module_name, dotted in POINTS:
            label = f"{module_name}:{dotted}"
            try:
                owner: Any = importlib.import_module(module_name)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            own = vars(owner).get(attr)
            if isinstance(own, staticmethod):
                wrapper: Any = staticmethod(self._wrap(own.__func__, layer, dotted))
            elif isinstance(own, classmethod) or not callable(original):
                self.missing.append(label)
                continue
            else:
                wrapper = self._wrap(original, layer, dotted)
            self._restore.append((owner, attr, attr in vars(owner), own))
            setattr(owner, attr, wrapper)
            self.resolved.append(label)

    def uninstall(self) -> None:
        """Put every patched name back exactly as it was."""
        while self._restore:
            owner, attr, had_own, own = self._restore.pop()
            if had_own:
                setattr(owner, attr, own)
            else:
                delattr(owner, attr)

    # -- results ----------------------------------------------------------------

    def totals(self, section: str) -> Dict[str, Any]:
        """Calls and self seconds per layer, summed over threads."""
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        root_s = 0.0
        reports = 0
        with self._states_lock:
            states = list(self._states)
        for state in states:
            totals = state.sections.get(section)
            if totals is None:
                continue
            root_s += totals.root_s
            reports += totals.reports
            for i in range(len(LAYERS)):
                calls[i] += totals.calls[i]
                self_s[i] += totals.self_s[i]
        return {
            "calls": dict(zip(LAYERS, calls)),
            "self_s": dict(zip(LAYERS, self_s)),
            "thread_root_s": root_s,
            "reports": reports,
        }

    def spans(self) -> List[Dict[str, Any]]:
        """Kept span records of all threads, by start time, in ms from the first."""
        with self._states_lock:
            rows = [(t, span) for t, state in enumerate(self._states) for span in state.spans]
        if not rows:
            return []
        origin = min(span[4] for _t, span in rows)
        rows.sort(key=lambda row: row[1][4])
        return [
            {
                "id": span_id,
                "parent": parent,
                "thread": thread,
                "layer": layer,
                "name": name,
                "start_ms": (start - origin) * 1e3,
                "end_ms": (end - origin) * 1e3,
            }
            for thread, (span_id, parent, layer, name, start, end) in rows
        ]

    def dump(self, path: Any, header: Dict[str, Any]) -> None:
        """Write the kept spans and the per-section totals as one JSON file."""
        with self._states_lock:
            sections = sorted({s for state in self._states for s in state.sections})
        document = dict(header)
        document["points_resolved"] = self.resolved
        document["points_missing"] = self.missing
        document["totals"] = {section: self.totals(section) for section in sections}
        document["spans"] = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")
