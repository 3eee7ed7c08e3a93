"""Per-layer tracing from outside the program.

``Recorder.install()`` replaces the public callables listed in
``PATCHES`` (and the callbacks handed to ``Simulator.schedule``) with
wrappers that record one span per call; ``uninstall()`` puts every
original back, so an untraced run executes the program's own function
objects.  Nothing under ``src/`` knows it is being traced.

A span is ``(name, layer, start, end, parent, train_id)``.  A layer's
``self_s`` is the sum over its spans of the span's duration minus the
part its child spans cover, so the layers plus the root span's own
self time (``harness.unattributed``) add up to the traced wall clock by
construction.  Self times and counts are folded as spans close; the raw
spans are kept only up to ``MAX_RAW_SPANS`` (a million-tuple row run
closes about a million of them).
"""

from __future__ import annotations

import time
from typing import Any, Callable

MAX_RAW_SPANS = 50_000

# The layer whose outermost span, made directly by the client, starts a
# new train: spans recorded until the next one share its ``train_id``,
# and the time to the last of them is the train's service time.
INGEST_LAYER = "core.engine.ingest"

_MISSING = object()


Measure = Callable[[tuple, Any], int]  # (call arguments, result) -> units of work


def _len_arg(index: int) -> Measure:
    return lambda args, _result: len(args[index])


def _len_result(_args: tuple, result: Any) -> int:
    return len(result)


def _int_result(_args: tuple, result: Any) -> int:
    return int(result)


def _one(_args: tuple, _result: Any) -> int:
    return 1


# Methods see ``self`` at index 0, so a method's first argument is 1.
_len_arg0, _len_arg1, _len_arg2 = _len_arg(0), _len_arg(1), _len_arg(2)


# (layer, "module:owner.attr" or "module:attr", work measure or None).
# A name imported into another module (``from x import f``) is patched
# where it is looked up at call time.
PATCHES: list[tuple[str, str, Measure | None]] = [
    ("workloads.generators", "repro.workloads.generators:FlashCrowdSource.generate", _len_result),
    ("workloads.scenarios", "repro.workloads.scenarios:ScenarioRunner.run", None),
    ("workloads.slo", "repro.workloads.scenarios:evaluate_slos", None),
    ("core.columnar.encode", "repro.core.columnar:ColumnarTrain.from_tuples", _len_arg1),
    ("core.columnar.encode", "benchmarks.e2e.workloads:make_train", _len_result),
    ("core.columnar.decode", "repro.core.columnar:ColumnarTrain.to_tuples", _len_result),
    ("app.consume", "benchmarks.e2e.workloads:consume", _int_result),
    ("core.engine.ingest", "repro.core.engine:AuroraEngine.push", _one),
    ("core.engine.ingest", "repro.core.engine:AuroraEngine.push_many", _int_result),
    ("core.engine.ingest", "repro.core.engine:AuroraEngine.push_train", _int_result),
    ("core.engine.step", "repro.core.engine:AuroraEngine.step", None),
    ("core.engine.step", "repro.core.engine:AuroraEngine.run_until_idle", None),
    ("core.engine.flush", "repro.core.engine:AuroraEngine.flush", None),
    ("core.scheduler", "repro.core.scheduler:RoundRobinScheduler.choose", None),
    ("core.operators.row", "repro.core.operators.filter:Filter.process_batch", _len_arg1),
    ("core.operators.row", "repro.core.operators.map:Map.process_batch", _len_arg1),
    ("core.operators.row", "repro.core.operators.case_filter:CaseFilter.process_batch", _len_arg1),
    ("core.operators.row", "repro.core.operators.tumble:Tumble.process_batch", _len_arg1),
    ("core.operators.columnar", "repro.core.operators.filter:Filter.process_columnar", _len_arg1),
    ("core.operators.columnar", "repro.core.operators.map:Map.process_columnar", _len_arg1),
    ("core.operators.columnar", "repro.core.operators.tumble:Tumble.process_columnar", _len_arg1),
    ("core.storage", "repro.core.storage:StorageManager.rebalance", None),
    ("core.shedder", "repro.core.shedder:LoadShedder.admit", None),
    ("core.shedder", "repro.core.shedder:LoadShedder.update", None),
    ("obs.trace", "repro.obs.trace:Tracer.start_trace", None),
    ("obs.trace", "repro.obs.trace:Tracer.span", None),
    ("obs.trace", "repro.obs.trace:Tracer.event", None),
    ("obs.registry", "repro.obs.registry:MetricsRegistry.snapshot", None),
    ("sim.simulator", "repro.sim.simulator:Simulator.step", None),
    ("sim.simulator", "repro.sim.simulator:Simulator.run", None),
    ("network.overlay", "repro.network.overlay:Overlay.send", None),
    ("distributed.node", "repro.distributed.node:AuroraNode.enqueue_local", None),
    ("distributed.node", "repro.distributed.node:AuroraNode.route_emissions", None),
    ("distributed.node", "repro.distributed.node:AuroraNode.drain_box", None),
    ("distributed.system", "repro.distributed.system:AuroraStarSystem.schedule_source", None),
    ("distributed.system", "repro.distributed.system:AuroraStarSystem.push", None),
    ("distributed.system", "repro.distributed.system:AuroraStarSystem.deliver_output", None),
    ("distributed.system", "repro.distributed.system:AuroraStarSystem.flush", None),
    ("network.framing", "repro.network.framing:encode_data", _len_result),
    ("network.framing", "repro.parallel.coordinator:decode_frame", _len_arg0),
    ("network.framing", "repro.parallel.coordinator:encode_control", _len_result),
    ("parallel.coordinator.push", "repro.parallel.coordinator:ParallelSystem.push", _len_arg2),
    ("parallel.coordinator.drain", "repro.parallel.coordinator:ParallelSystem.drain", None),
]

# Simulator callbacks are classified by the module that defines them.
CALLBACK_LAYERS = {
    "repro.distributed.node": "distributed.node",
    "repro.distributed.system": "distributed.system",
    "repro.network.overlay": "network.overlay",
}

LAYERS = sorted({layer for layer, _target, _measure in PATCHES}
                | set(CALLBACK_LAYERS.values()) | {"sim.simulator"})


def _resolve(target: str) -> tuple[Any, str]:
    """``"module:Owner.attr"`` -> (owner object, attribute name)."""
    import importlib

    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Recorder:
    """Collects spans and folds them into per-layer self times."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}  # spans entered from another layer
        self.work: dict[str, int] = {}  # summed work measure of those spans
        self.spans: list[tuple[str, str, float, float, int, int]] = []
        self.span_count = 0
        self.train_id = 0
        self.train_service_s: list[float] = []
        self._train_start = 0.0
        self._train_end = 0.0
        # One frame per open span: [layer, start, child seconds, index, outermost].
        self._stack: list[list] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, layer: str) -> list | None:
        stack = self._stack
        if not stack:  # outside the timed region (set-up, teardown, checks)
            return None
        outermost = stack[-1][0] != layer
        if outermost and len(stack) == 1 and layer == INGEST_LAYER:
            now = time.perf_counter()
            if self.train_id:
                self.train_service_s.append(self._train_end - self._train_start)
            self.train_id += 1
            self._train_start = now
        index = self.span_count
        self.span_count = index + 1
        frame = [layer, 0.0, 0.0, index, outermost]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list | None, name: str, amount: int) -> None:
        if frame is None:
            return
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        layer, start, child_s, index, outermost = frame
        duration = end - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child_s
        parent = stack[-1]
        parent[2] += duration
        if outermost:
            self.calls[layer] = self.calls.get(layer, 0) + 1
            if amount:
                self.work[layer] = self.work.get(layer, 0) + amount
        if len(stack) == 1:
            self._train_end = end
        if index < MAX_RAW_SPANS:
            self.spans.append((name, layer, start, end, parent[3], self.train_id))

    def wrap(self, layer: str, name: str, fn: Callable,
             measure: Measure | None = None) -> Callable:
        enter, leave = self._enter, self._exit

        if measure is None:
            def traced(*args, **kwargs):
                frame = enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame, name, 0)
        else:
            def traced(*args, **kwargs):
                frame = enter(layer)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    leave(frame, name, 0 if result is None else measure(args, result))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- patching --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = vars(owner).get(attr, _MISSING)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every traced callable; call before building the system
        (fused chains capture their kernels at construction)."""
        for layer, target, measure in PATCHES:
            owner, attr = _resolve(target)
            fn = getattr(owner, attr)
            if isinstance(vars(owner).get(attr), classmethod):
                # from_tuples: wrap the underlying function, keep it a classmethod.
                inner = self.wrap(layer, target, fn.__func__, measure)
                self._patch(owner, attr, classmethod(inner))
            else:
                self._patch(owner, attr, self.wrap(layer, target, fn, measure))
        self._patch_simulator_schedule()
        self._patch_fused_kernels()

    def _patch_simulator_schedule(self) -> None:
        from repro.sim.simulator import Simulator

        original = Simulator.schedule
        enter, leave = self._enter, self._exit

        def run_callback(layer, name, fn, *args):
            frame = enter(layer)
            try:
                fn(*args)
            finally:
                leave(frame, name, 0)

        def schedule(sim, delay, fn, *args):
            frame = enter("sim.simulator")
            try:
                layer = CALLBACK_LAYERS.get(getattr(fn, "__module__", ""))
                if layer is None:
                    return original(sim, delay, fn, *args)
                return original(sim, delay, run_callback, layer, fn.__name__, fn, *args)
            finally:
                leave(frame, "Simulator.schedule", 0)

        self._patch(Simulator, "schedule", schedule)

    def _patch_fused_kernels(self) -> None:
        """Superboxes run interior stages through closures they build at
        construction, not through ``process_batch``/``process_columnar``;
        wrap those public kernel lists as each chain is built."""
        from repro.core.fusion import FusedChain

        original = FusedChain.__init__
        recorder = self

        def init(chain, boxes):
            original(chain, boxes)
            chain.interior_kernels = [
                recorder.wrap("core.operators.row", "FusedChain.row_kernel", k, _len_arg0)
                for k in chain.interior_kernels
            ]
            chain.columnar_kernels = [
                None if k is None else recorder.wrap(
                    "core.operators.columnar", "FusedChain.columnar_kernel", k, _len_arg0)
                for k in chain.columnar_kernels
            ]

        self._patch(FusedChain, "__init__", init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- the root span -----------------------------------------------------

    def begin(self) -> None:
        """Open the root span (the timed region)."""
        self._stack = [["harness", time.perf_counter(), 0.0, -1, True]]

    def end(self) -> float:
        """Close the root span; returns the traced wall seconds."""
        end = time.perf_counter()
        (_layer, start, child_s, _index, _outer), = self._stack
        self._stack = []
        if self.train_id:
            self.train_service_s.append(self._train_end - self._train_start)
        wall = end - start
        self.self_s["harness.unattributed"] = wall - child_s
        return wall
