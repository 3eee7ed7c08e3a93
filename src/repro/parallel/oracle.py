"""The dual-backend oracle: reference semantics vs real worker processes.

The parallel plane is a performance backend.  ``run_dual`` runs the
*same* scenario traffic through the reference and through the workers
and checks that they delivered the same thing:

- **per-stream multiset equality** — every output stream must carry
  the same bag of ``(timestamp, values)`` tuples
  (:func:`repro.reference.output_diff`).  Multisets, not
  sequences: wall-clock interleaving across *independent* streams is
  allowed to differ, but per-arc FIFO order (single producer per arc,
  FIFO IPC queues) plus tree-shaped scenario topologies make even the
  order-sensitive operators (Tumble run-windows) deterministic, so the
  bags must match exactly;
- **obs counter reconciliation** — per-box ``tuples_in``/``tuples_out``
  must agree between the reference's boxes and the workers' boxes.

The oracle side is :func:`repro.reference.execute` on a fresh copy of
the scenario's network: the reference semantics say what a network
delivers, and no scheduling decision of either backend enters into it.
The guarantee holds with load shedding off and no fault injection (both
are wall-clock-dependent policies, not semantics); the workers never
shed.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.tuples import StreamTuple
from repro.parallel.blueprints import blueprint
from repro.parallel.coordinator import ParallelSystem
from repro.reference import execute, output_diff, output_key

# Scenarios the equivalence suite runs by default (>= 3 registered SLO
# scenarios, per the oracle gate): a CaseFilter routing tree, a sensor
# filter chain, two independent tenant chains, and a Tumble aggregate.
ORACLE_SCENARIOS = ("diurnal_checkout", "iot_fleet", "tenant_mix", "fin_ticks")


def stream_multisets(outputs: Mapping[str, Any]) -> dict[str, Counter]:
    return {
        name: Counter(output_key(tup) for tup in tuples)
        for name, tuples in outputs.items()
    }


@dataclass
class DualResult:
    """Outcome of one simulator-vs-parallel equivalence run."""

    scenario: str
    n_workers: int
    outputs_match: bool
    counters_match: bool
    mismatches: list[str] = field(default_factory=list)
    reference_outputs: dict[str, list[StreamTuple]] = field(default_factory=dict)
    parallel_outputs: dict[str, list[StreamTuple]] = field(default_factory=dict)
    reference_boxes: dict[str, dict[str, int]] = field(default_factory=dict)
    parallel_boxes: dict[str, dict[str, int]] = field(default_factory=dict)
    parallel_wall_clock: float = 0.0

    @property
    def ok(self) -> bool:
        return self.outputs_match and self.counters_match

    def summary(self) -> str:
        verdict = "MATCH" if self.ok else "MISMATCH"
        delivered = sum(len(v) for v in self.reference_outputs.values())
        lines = [
            f"{self.scenario}: {verdict} ({self.n_workers} workers, "
            f"{delivered} delivered, parallel wall {self.parallel_wall_clock:.2f}s)"
        ]
        lines.extend(f"  - {m}" for m in self.mismatches)
        return "\n".join(lines)


def run_parallel(
    name: str,
    scale: float = 0.25,
    seed: int = 0,
    n_workers: int = 2,
    train_size: int = 50,
    log_dir: str | None = None,
    drain_timeout: float = 120.0,
) -> tuple[dict[str, list[StreamTuple]], dict[str, dict[str, int]], float]:
    """Run the same scenario on the multiprocessing backend."""
    from repro.workloads.scenarios import make_scenario

    scenario = make_scenario(name, scale)
    traffic = scenario.traffic(seed)
    spec = blueprint(
        "repro.parallel.blueprints:scenario_network", name, scale=scale
    )
    with ParallelSystem(
        spec, n_workers=n_workers, train_size=train_size, log_dir=log_dir
    ) as system:
        started = time.perf_counter()
        system.push_traffic(traffic)
        outputs = system.drain(timeout=drain_timeout)
        wall = time.perf_counter() - started
        boxes = system.stats()["boxes"]
        # Snapshot before shutdown tears the queues down.
        outputs = {stream: list(tuples) for stream, tuples in outputs.items()}
    return outputs, boxes, wall


def run_dual(
    name: str,
    scale: float = 0.25,
    seed: int = 0,
    n_workers: int = 2,
    train_size: int = 50,
    log_dir: str | None = None,
    drain_timeout: float = 120.0,
) -> DualResult:
    """Run both backends and reconcile outputs + per-box counters."""
    from repro.workloads.scenarios import make_scenario

    scenario = make_scenario(name, scale)
    network, _qos = scenario.build()
    ref_outputs = execute(network, scenario.traffic(seed))
    ref_boxes = {
        box_id: {"tuples_in": box.tuples_in, "tuples_out": box.tuples_out}
        for box_id, box in network.boxes.items()
    }
    par_outputs, par_boxes, wall = run_parallel(
        name, scale, seed, n_workers, train_size, log_dir, drain_timeout
    )
    mismatches: list[str] = []

    outputs_match = True
    for stream in sorted(set(ref_outputs) | set(par_outputs)):
        expected = ref_outputs.get(stream, [])
        delivered = par_outputs.get(stream, [])
        missing, extra = output_diff(expected, delivered)
        if missing or extra:
            outputs_match = False
            mismatches.append(
                f"stream {stream!r}: reference delivered {len(expected)}, "
                f"parallel {len(delivered)} "
                f"({sum(missing.values())} missing, {sum(extra.values())} unexpected)"
            )

    counters_match = True
    for box_id in sorted(set(ref_boxes) | set(par_boxes)):
        ref_counts = ref_boxes.get(box_id)
        par_counts = par_boxes.get(box_id)
        if ref_counts != par_counts:
            counters_match = False
            mismatches.append(
                f"box {box_id!r}: reference {ref_counts}, parallel {par_counts}"
            )

    return DualResult(
        scenario=name,
        n_workers=n_workers,
        outputs_match=outputs_match,
        counters_match=counters_match,
        mismatches=mismatches,
        reference_outputs=ref_outputs,
        parallel_outputs=par_outputs,
        reference_boxes=ref_boxes,
        parallel_boxes=par_boxes,
        parallel_wall_clock=wall,
    )
