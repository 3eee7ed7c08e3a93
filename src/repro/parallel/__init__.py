"""Real parallel execution plane (ROADMAP item 2).

Aurora* nodes as actual worker processes: ``multiprocessing`` workers
rebuilt from spawn-safe blueprints, :mod:`repro.network.framing` wire
frames (pickle-free, row or columnar) over IPC queues, a coordinator owning
handshake/routing/liveness/drain, and a dual-backend oracle that holds
the plane to the reference semantics' delivered outputs.

See docs/parallel.md for the architecture and the oracle guarantee.
"""

from repro.parallel.blueprints import blueprint, build_network, scenario_network
from repro.parallel.coordinator import (
    ParallelError,
    ParallelSystem,
    WorkerFailed,
    partition_boxes,
)
from repro.parallel.oracle import (
    ORACLE_SCENARIOS,
    DualResult,
    run_dual,
    run_parallel,
)

__all__ = [
    "ORACLE_SCENARIOS",
    "DualResult",
    "ParallelError",
    "ParallelSystem",
    "WorkerFailed",
    "blueprint",
    "build_network",
    "partition_boxes",
    "run_dual",
    "run_parallel",
    "scenario_network",
]
