"""K virtual machines per server: the recovery/overhead dial (Section 6.4).

"Consider establishing a collection of K virtual machines on top of the
Aurora network running on a single physical server. ... there will be
queues at each virtual machine boundary, which will be truncated when
possible.  ...  the queue has to be replicated to a physical backup
machine.  At a cost of one message per entry in the queue, each of the
K virtual machines can resume processing from its queue, and finer
granularity restart is supported.  The ultimate extreme is to have one
virtual machine per box. ... Hence, by adding virtual machines to the
high-availability algorithms, we can tune the algorithms to any desired
tradeoff between recovery time and run time overhead."

The model: a server pipeline of B boxes is partitioned into K
contiguous stages.  Every tuple entering a stage's input queue costs
one replication message (the queue lives on a backup machine).  Each
stage retains its replicated input entries until the stage has fully
absorbed them (the intra-server analogue of upstream backup).  On a
physical-server failure, every stage resumes from its replicated
queue: the redone work is each stage's retained entries times the
*per-stage* cost — so recovery work shrinks roughly as 1/K while
replication messages grow linearly with K.
"""

from __future__ import annotations

from repro.ha.chain import HATuple, ServerOp, latest_lineage, merge_lineage, run_through


class VMStage:
    """One virtual machine: a sub-pipeline plus a replicated input log."""

    def __init__(self, name: str, ops: list[ServerOp], boxes: int):
        self.name = name
        self.ops = ops
        self.boxes = max(boxes, 1)  # work units per tuple through this stage
        self.retained: list[HATuple] = []
        self.replication_messages = 0
        self.tuples_processed = 0

    def ingest(self, tup: HATuple) -> list[HATuple]:
        """Enqueue (replicating the entry) and process one tuple."""
        self.replication_messages += 1
        self.retained.append(tup)
        self.tuples_processed += 1
        batch = run_through(tup, [op.process for op in self.ops])
        self._truncate()
        return batch

    def _truncate(self) -> None:
        """Drop retained entries the stage no longer depends on."""
        state = merge_lineage(*(op.state_lineage() for op in self.ops))
        if not state:
            # Fully absorbed: only the most recent entry is kept (it
            # bounds the resume point).
            self.retained = self.retained[-1:]
            return
        still_needed = []
        for entry in self.retained:
            floor = latest_lineage(entry.lineage)
            needed = any(
                origin in state and floor[origin] >= state[origin]
                for origin in floor
            )
            if needed:
                still_needed.append(entry)
        self.retained = still_needed or self.retained[-1:]

    def recovery_work(self) -> float:
        """Work units redone if the physical server fails now.

        Each retained entry is reprocessed through this stage only
        (earlier stages' work is preserved in this stage's replicated
        queue) — ``entries × boxes-in-stage``.
        """
        return len(self.retained) * self.boxes


class VirtualMachineChain:
    """A single physical server split into K virtual machines.

    Args:
        ops_per_stage: the pipeline partitioned into K sub-pipelines;
            a stage's work units (box count) are its number of ops.
    """

    def __init__(self, ops_per_stage: list[list[ServerOp]]):
        if not ops_per_stage:
            raise ValueError("need at least one stage")
        self.stages = [
            VMStage(f"vm{i}", ops, max(len(ops), 1))
            for i, ops in enumerate(ops_per_stage)
        ]
        self.delivered: list[HATuple] = []

    @property
    def k(self) -> int:
        return len(self.stages)

    def push(self, tup: HATuple) -> None:
        self.delivered.extend(run_through(tup, [stage.ingest for stage in self.stages]))

    @property
    def replication_messages(self) -> int:
        """Total run-time overhead messages (one per queue entry)."""
        return sum(stage.replication_messages for stage in self.stages)

    def recovery_work(self) -> float:
        """Work units redone on a failure right now (sum over stages)."""
        return sum(stage.recovery_work() for stage in self.stages)


def partition_ops(ops: list[ServerOp], k: int) -> list[list[ServerOp]]:
    """Split a pipeline into k contiguous, nearly equal stages."""
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, len(ops)) if ops else 1
    stages: list[list[ServerOp]] = []
    base, extra = divmod(len(ops), k)
    index = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        stages.append(ops[index:index + size])
        index += size
    return stages
