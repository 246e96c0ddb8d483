"""Per-layer call timing from outside the program, plus Python GC accounting.

The traced run wraps the public functions each layer is entered through
(called once per planning block, epoch, or budget cell — never per visit or
per URL) and installs a :data:`gc.callbacks` hook.  Every wrapped call
records its *self* time: its duration minus the time of wrapped calls nested
inside it and minus the GC pauses that ran while it was the innermost active
call.  GC pauses are attributed to the layer active when they ran.  Nothing
is added inside ``src/``; each function is replaced where it is looked up —
on its class for methods, and in every ``repro`` module that bound the
function by name for module-level functions.

The accounting identity the report relies on holds by construction::

    sum(self time of every wrapped name) + gc.s + untraced_s == traced wall time
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from collections import defaultdict

#: (metric name, module, attribute path) of every wrapped function.  The
#: metric name is ``<module>.<function>``; the layer is the part before the
#: dot except for the plan/execute split of ``core/runner``.
WRAPPED = (
    ("web.generate_site", "repro.web.sites", "SiteGenerator.generate_site"),
    ("task_generation.run", "repro.core.task_generation", "TaskGenerationPipeline.run"),
    ("clients.sample_batch", "repro.population.clients", "ClientFactory.sample_batch"),
    ("scheduler.assign_batch", "repro.core.scheduler", "Scheduler.assign_batch"),
    ("runner.compile_program", "repro.core.runner", "compile_program"),
    ("runner.plan_context", "repro.core.runner", "CampaignRunner.plan_context"),
    ("runner.execute", "repro.core.runner", "BatchExecutor.execute"),
    ("collection.ingest_columns", "repro.core.collection", "CollectionServer.ingest_columns"),
    ("store.seal_pending", "repro.core.store", "MeasurementStore.seal_pending"),
    ("store.spill", "repro.core.store", "MeasurementStore.spill"),
    ("store.adopt_segments_from", "repro.core.store", "MeasurementStore.adopt_segments_from"),
    ("shard.write_manifest", "repro.core.shard", "write_manifest"),
    ("shard.merge", "repro.core.shard", "StoreMerger.merge"),
    ("query.run_query", "repro.core.query", "run_query"),
    ("query.dense_day_series", "repro.core.query", "dense_day_series"),
    ("query.timing_day_series", "repro.core.query", "timing_day_series"),
    ("inference.cusum_resume", "repro.core.inference", "CusumChangePointDetector.resume"),
    ("inference.timing_detect", "repro.core.inference", "TimingCusumDetector.detect_events"),
    ("inference.binomial_detect", "repro.core.inference", "BinomialFilteringDetector.detect"),
    ("inference.binomial_detect", "repro.core.inference",
     "BinomialFilteringDetector.detect_from_counts"),
    ("longitudinal.checkpoint", "repro.core.inference", "CusumState.save"),
    ("robustness.forge_columns", "repro.core.robustness", "PoisoningAttacker.forge_columns"),
    ("robustness.apply_store", "repro.core.robustness", "ReputationFilter.apply_store"),
)

#: Every wrapped name, in table order (``inference.binomial_detect`` wraps two).
NAMES = tuple(dict.fromkeys(name for name, _, _ in WRAPPED))

#: Layer of each wrapped name: the repo module it belongs to, with
#: ``core/runner`` split into planning and execution.
LAYER_OF = {
    "web.generate_site": "web",
    "task_generation.run": "task_generation",
    "clients.sample_batch": "plan",
    "scheduler.assign_batch": "plan",
    "runner.compile_program": "plan",
    "runner.plan_context": "plan",
    "runner.execute": "execute",
    "collection.ingest_columns": "collection",
}
LAYERS = (
    "web", "task_generation", "plan", "execute", "collection", "store", "shard",
    "query", "inference", "longitudinal", "robustness", "gc", "untraced",
)


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name.split(".", 1)[0])


class LayerTimer:
    """Self time, call counts and GC pauses per wrapped name.

    Use as a context manager around each traced region: entering installs
    the wrappers and the GC hook, leaving restores every original.  Totals
    accumulate over every region; ``wall_s`` is their summed wall time,
    install and restore excluded.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.gc_s_by_layer: dict[str, float] = defaultdict(float)
        self.gc_s = 0.0
        self.gc_gen2_s = 0.0
        self.gc_gen2_count = 0
        #: Wall time inside outermost wrapped calls (GC pauses included).
        self.covered_s = 0.0
        #: GC pauses that ran while no wrapped call was active.
        self.gc_outside_s = 0.0
        self.rows_ingested = 0
        self.wall_s = 0.0
        self._entered = 0.0
        self._stack: list[list] = []
        self._gc_start = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------
    def _wrapper(self, name: str, fn):
        stack = self._stack
        perf = time.perf_counter
        counts_rows = name == "collection.ingest_columns"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            # frame = [name, nested wrapped time + GC pauses while innermost]
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.covered_s += elapsed
            if counts_rows:
                self.rows_ingested += int(result)
            return result

        return timed

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for name, module_name, path in WRAPPED:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                self._patch(owner, attr, self._wrapper(name, owner.__dict__[attr]))
                continue
            original = getattr(module, path)
            wrapped = self._wrapper(name, original)
            # Module-level functions are imported by name elsewhere: rebind
            # every repro module that holds this very function object.
            for loaded, other in list(sys.modules.items()):
                if loaded.split(".")[0] != "repro":
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "LayerTimer":
        self.install()
        self._entered = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s += time.perf_counter() - self._entered
        self.uninstall()

    # -- GC accounting --------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        self.gc_s += pause
        if info["generation"] == 2:
            self.gc_gen2_s += pause
            self.gc_gen2_count += 1
        if self._stack:
            top = self._stack[-1]
            top[1] += pause
            self.gc_s_by_layer[layer_of(top[0])] += pause
        else:
            self.gc_outside_s += pause
            self.gc_s_by_layer["untraced"] += pause

    # -- reduction ------------------------------------------------------
    @property
    def untraced_s(self) -> float:
        """Wall time no wrapped call covers, GC pauses outside calls excluded."""
        return self.wall_s - self.covered_s - self.gc_outside_s

    def layer_seconds(self) -> dict[str, float]:
        """Self seconds per layer; with ``gc`` and ``untraced`` they sum to ``wall_s``."""
        seconds = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            seconds[layer_of(name)] += value
        seconds["gc"] = self.gc_s
        seconds["untraced"] = self.untraced_s
        return seconds
