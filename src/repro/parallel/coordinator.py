"""The coordinator of the parallel execution plane.

:class:`ParallelSystem` maps a query network's boxes onto real worker
processes (``multiprocessing`` with the ``spawn`` start method — the
portable, fork-safety-free choice), ships tuple trains to them as
pickle-free :mod:`repro.network.framing` frames through IPC queues, and
collects delivered output streams.  It owns:

- **startup/handshake** — every worker announces itself with a HELLO
  control frame before traffic flows; a worker that fails to come up is
  reported with its exit code instead of hanging the run;
- **frame routing** — network inputs go to the worker owning the
  destination arc; inter-worker arcs are worker-to-worker (the
  coordinator is not a relay); output-stream frames come back here;
- **liveness** — every frame a worker sends refreshes its last-seen
  clock, and idle workers heartbeat on a timer, so a stuck worker is
  visible and a dead one raises instead of deadlocking;
- **drain/termination** — a fence protocol in the double-counting
  style (Safra): repeated fence rounds snapshot every worker's
  per-destination sent counts and received count, and the plane is
  quiescent only when the global ledger balances *and* two consecutive
  rounds agree.  End-of-stream operator flushes then walk the boxes in
  topological order, re-quiescing between boxes so flushed aggregates
  flow through their downstream network exactly like the single-process
  engine's ``flush()``;
- **shutdown** — STOP/BYE handshake, bounded joins, terminate as the
  last resort.  Workers are daemonic, so even a coordinator crash
  cannot leak them past interpreter exit.

Every blocking wait has an explicit deadline and raises
:class:`ParallelError` with per-worker diagnostics — the plane fails
fast with a story, never hangs silently.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from typing import Any, Mapping

import numpy as np

from repro.core.columnar import ColumnarTrain, OutputBuffer
from repro.core.query import QueryNetwork
# benchmarks/e2e/trace.py patches framing.encode_data, and this module's
# decode_frame / encode_control, from outside: keep all three looked up so.
from repro.network import framing
from repro.network.framing import KIND_CONTROL, Train, decode_frame, encode_control
from repro.parallel.blueprints import build_network
from repro.parallel.worker import COORD, worker_main


class ParallelError(RuntimeError):
    """A worker died, misbehaved, or a protocol wait timed out."""


class WorkerFailed(ParallelError):
    """A worker forwarded an exception (its traceback is attached)."""

    def __init__(self, worker: str, error: str, tb: str):
        super().__init__(f"worker {worker} failed: {error}\n{tb}")
        self.worker = worker
        self.error = error
        self.traceback = tb


def partition_boxes(network: QueryNetwork, n_workers: int) -> dict[str, str]:
    """Assign boxes to workers: contiguous chunks of the topological order.

    Contiguous topo chunks keep pipeline stages together per worker and
    put producer/consumer cuts on as few arcs as possible — the
    placement a static Aurora* deployment would pick for a chain.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    order = network.topological_order()
    if not order:
        raise ValueError("network has no boxes to place")
    n_workers = min(n_workers, len(order))
    placement: dict[str, str] = {}
    chunk = -(-len(order) // n_workers)  # ceil division
    for index, box_id in enumerate(order):
        placement[box_id] = f"w{min(index // chunk, n_workers - 1)}"
    return placement


class ParallelSystem:
    """Run one query network across real worker processes.

    Args:
        spec: spawn-safe blueprint (see :mod:`repro.parallel.blueprints`)
            every worker rebuilds its network from.
        n_workers: worker process count (clamped to the box count).
        train_size: tuples per claim inside each worker.
        placement: explicit ``box_id -> worker_id`` map; default is
            :func:`partition_boxes`.
        heartbeat_interval: idle-worker heartbeat period (seconds).
        startup_timeout / control_timeout: deadlines for the HELLO
            handshake and for individual control round-trips.
        log_dir: when set, each worker appends a ``<run>-w<N>.log``
            trace here (CI uploads these on failure).
    """

    def __init__(
        self,
        spec: Mapping[str, Any],
        n_workers: int = 2,
        train_size: int = 50,
        placement: dict[str, str] | None = None,
        heartbeat_interval: float = 0.25,
        startup_timeout: float = 60.0,
        control_timeout: float = 60.0,
        log_dir: str | None = None,
    ):
        self.spec = dict(spec)
        self.network = build_network(self.spec)  # local copy: routing + flush order
        self.train_size = train_size
        self.heartbeat_interval = heartbeat_interval
        self.startup_timeout = startup_timeout
        self.control_timeout = control_timeout
        self.log_dir = log_dir
        if placement is None:
            placement = partition_boxes(self.network, n_workers)
        unknown = set(placement) - set(self.network.boxes)
        missing = set(self.network.boxes) - set(placement)
        if unknown or missing:
            raise ValueError(
                f"placement mismatch: unknown boxes {sorted(unknown)}, "
                f"unplaced boxes {sorted(missing)}"
            )
        self.placement = dict(placement)
        self.workers = sorted(set(self.placement.values()))
        self._ctx = multiprocessing.get_context("spawn")
        self._inboxes: dict[str, Any] = {}
        self._coord_inbox: Any = None
        self._procs: dict[str, Any] = {}
        self._started = False
        self._stopped = False
        # Ledger (data frames only, the fence protocol's currency)
        self._sent: dict[str, int] = {}
        self._received_data = 0
        self._fence_round = 0
        self._last_seen: dict[str, float] = {}
        self._pending: dict[str, list[dict]] = {}  # control replies by type
        self.outputs = {name: OutputBuffer() for name in self.network.outputs}

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ParallelSystem":
        if self._started:
            raise ParallelError("system already started")
        self._coord_inbox = self._ctx.Queue()
        for worker in self.workers:
            self._inboxes[worker] = self._ctx.Queue()
        pid = multiprocessing.current_process().pid or 0
        for worker in self.workers:
            log_path = None
            if self.log_dir:
                log_path = f"{self.log_dir}/{self.network.name}-{worker}.log"
            proc = self._ctx.Process(
                target=worker_main,
                name=f"repro-parallel-{worker}",
                args=(
                    worker,
                    self.spec,
                    self.placement,
                    self._inboxes[worker],
                    {w: q for w, q in self._inboxes.items() if w != worker},
                    self._coord_inbox,
                    self.train_size,
                    self.heartbeat_interval,
                    pid,
                    log_path,
                ),
                daemon=True,
            )
            proc.start()
            self._procs[worker] = proc
        self._started = True
        greeted: set[str] = set()
        deadline = time.monotonic() + self.startup_timeout
        while greeted != set(self.workers):
            hello = self._wait_control("hello", deadline, context="startup handshake")
            greeted.add(hello["worker"])
        return self

    def __enter__(self) -> "ParallelSystem":
        return self.start()

    def __exit__(self, *_exc_info) -> None:
        self.shutdown()

    # -- ingress --------------------------------------------------------

    def push(self, input_name: str, train: Train) -> None:
        """Ship a train of source tuples — rows or a ``ColumnarTrain``,
        which crosses the wire as it is — into a network input stream."""
        if not self._started:
            raise ParallelError("system not started")
        if not len(train):
            return
        arcs = self.network.inputs.get(input_name)
        if not arcs:
            raise KeyError(f"network has no input stream {input_name!r}")
        for arc in arcs:
            kind, ref = arc.target
            if kind == "out":  # degenerate passthrough network
                self._deliver(str(ref), train)
                continue
            self._send_data(self.placement[str(kind)], arc.id, train)

    def push_traffic(
        self, traffic: Mapping[str, Train], train_size: int | None = None
    ) -> None:
        """Push a whole traffic dict, merged across inputs in timestamp
        order (ties by input name, then position — the reference
        executor's merge rule) and shipped as trains of ``train_size``.

        An input is cut into trains in its own timestamp order; a full
        train ships where its last tuple falls in the merge, the partial
        tails afterwards in the order the inputs first appear in it.  A
        ``ColumnarTrain`` input is sliced, never materialized — unless
        its timestamps run backwards, which takes the row path.
        """
        size = train_size or self.train_size
        full: list[tuple[float, str, int, Train]] = []
        tails: list[tuple[float, str, Train]] = []
        for name, source in traffic.items():
            columnar = isinstance(source, ColumnarTrain)
            if columnar:
                stamps = source.timestamps
            else:
                stamps = np.array([t.timestamp for t in source], dtype=np.float64)
            if (stamps[1:] < stamps[:-1]).any():
                order = np.argsort(stamps, kind="stable")
                rows, columnar = list(source), False
                source, stamps = [rows[i] for i in order.tolist()], stamps[order]
            for start in range(0, len(source), size):
                stop = start + size
                train = source.slice(start, stop) if columnar else source[start:stop]
                if stop <= len(source):
                    full.append((stamps[stop - 1], name, stop, train))
                else:
                    tails.append((stamps[0], name, train))
        for _stamp, name, _stop, train in sorted(full, key=lambda entry: entry[:3]):
            self.push(name, train)
        for _stamp, name, train in sorted(tails, key=lambda entry: entry[:2]):
            self.push(name, train)

    def _deliver(self, stream: str, train: Train) -> None:
        buffer = self.outputs[stream]
        if isinstance(train, ColumnarTrain):
            buffer.extend_train(train)  # rows only if somebody reads them
        else:
            buffer.extend(train)

    def _send_data(self, worker: str, route: str, train: Train) -> None:
        self._inboxes[worker].put(framing.encode_data(route, train))
        self._sent[worker] = self._sent.get(worker, 0) + 1

    def _send_control(self, worker: str, payload: dict) -> None:
        self._inboxes[worker].put(encode_control(payload))

    # -- coordinator inbox ----------------------------------------------

    def _absorb(self, frame: bytes) -> dict | None:
        """Decode one inbound frame; returns control payloads, banks data."""
        kind, route, payload = decode_frame(frame)
        if kind != KIND_CONTROL:
            self._received_data += 1
            # A data frame names its sender: the owner of the box that
            # feeds the arc it is routed by.
            stream = route[4:] if route.startswith("out:") else None
            arc = self.network.outputs.get(stream) or self.network.arcs.get(route)
            sender = self.placement.get(str(arc.source[0])) if arc else None
            if stream not in self.outputs or sender is None:
                raise ParallelError(
                    f"data frame for route {route!r} from worker "
                    f"{sender or '<unknown>'}: the coordinator takes "
                    "out:<stream> frames of the network's output streams only"
                )
            self._deliver(stream, payload)
            # A worker busy streaming outputs never idles into a
            # heartbeat, so this is its sign of life.
            self._last_seen[sender] = time.monotonic()
            return None
        worker = payload.get("worker")
        if worker:
            self._last_seen[worker] = time.monotonic()
        if payload.get("type") == "error":
            raise WorkerFailed(
                payload.get("worker", "?"),
                payload.get("error", "?"),
                payload.get("traceback", ""),
            )
        return payload

    def _wait_control(self, msg_type: str, deadline: float, context: str) -> dict:
        """Next control frame of ``msg_type`` (absorbing everything else)."""
        stash = self._pending.get(msg_type)
        if stash:
            return stash.pop(0)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ParallelError(
                    f"timed out waiting for {msg_type!r} during {context}; "
                    + self._diagnose()
                )
            try:
                frame = self._coord_inbox.get(timeout=min(remaining, 0.1))
            except queue_module.Empty:
                self._check_workers_alive(context)
                continue
            payload = self._absorb(frame)
            if payload is None:
                continue
            if payload["type"] == msg_type:
                return payload
            if payload["type"] != "heartbeat":
                self._pending.setdefault(payload["type"], []).append(payload)

    def _check_workers_alive(self, context: str) -> None:
        for worker, proc in self._procs.items():
            if not proc.is_alive():
                raise ParallelError(
                    f"worker {worker} died (exitcode={proc.exitcode}) "
                    f"during {context}; " + self._diagnose()
                )

    def _diagnose(self) -> str:
        parts = []
        for worker, entry in self.liveness().items():
            age = entry["last_seen_age"]
            seen = f"{age:.1f}s ago" if age is not None else "never"
            parts.append(
                f"{worker}(alive={entry['alive']}, exitcode={entry['exitcode']}, "
                f"last_seen={seen})"
            )
        return "workers: " + ", ".join(parts)

    # -- termination detection ------------------------------------------

    def _fence_once(self, deadline: float) -> tuple[bool, tuple]:
        """One fence round; returns (ledger balanced, counter snapshot)."""
        self._fence_round += 1
        fence_round = self._fence_round
        for worker in self.workers:
            self._send_control(worker, {"type": "fence", "round": fence_round})
        acks: dict[str, dict] = {}
        while set(acks) != set(self.workers):
            ack = self._wait_control("fence_ack", deadline, context="drain fence")
            if int(ack["round"]) == fence_round:
                acks[ack["worker"]] = ack
        balanced = True
        for worker in self.workers:
            expected = self._sent.get(worker, 0) + sum(
                acks[other]["sent"].get(worker, 0) for other in self.workers
            )
            if acks[worker]["received"] != expected:
                balanced = False
        expected_out = sum(acks[w]["sent"].get(COORD, 0) for w in self.workers)
        if self._received_data != expected_out:
            balanced = False
        snapshot = tuple(
            (
                worker,
                tuple(sorted(acks[worker]["sent"].items())),
                acks[worker]["received"],
                acks[worker]["processed"],
            )
            for worker in self.workers
        )
        return balanced, snapshot

    def _quiesce(self, deadline: float) -> None:
        """Fence rounds until the ledger balances twice in a row."""
        previous: tuple | None = None
        while True:
            balanced, snapshot = self._fence_once(deadline)
            if balanced and snapshot == previous:
                return
            previous = snapshot
            if time.monotonic() >= deadline:
                raise ParallelError(
                    "drain did not quiesce before its deadline; " + self._diagnose()
                )

    def drain(self, timeout: float = 120.0) -> dict[str, OutputBuffer]:
        """Quiesce the plane, flush end-of-stream state, return outputs.

        Mirrors the engine's end-of-stream sequence: process everything
        in flight, then flush each box in topological order with the
        flushed tuples flowing through their downstream boxes before
        those are themselves flushed.
        """
        if not self._started:
            raise ParallelError("system not started")
        deadline = time.monotonic() + timeout
        self._quiesce(deadline)
        for box_id in self.network.topological_order():
            owner = self.placement[box_id]
            self._send_control(owner, {"type": "flush_box", "box": box_id})
            while True:
                ack = self._wait_control("flush_ack", deadline, context="flush")
                if ack["box"] == box_id:
                    break
            self._quiesce(deadline)
        return self.outputs

    # -- observability --------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Per-box tuples_in/out plus per-worker frame counters and each
        worker engine's metrics registry snapshot."""
        if not self._started:
            raise ParallelError("system not started")
        deadline = time.monotonic() + self.control_timeout
        for worker in self.workers:
            self._send_control(worker, {"type": "stats"})
        replies: dict[str, dict] = {}
        while set(replies) != set(self.workers):
            reply = self._wait_control("stats_reply", deadline, context="stats")
            replies[reply["worker"]] = reply
        boxes: dict[str, dict[str, int]] = {}
        for reply in replies.values():
            boxes.update(reply["boxes"])
        return {
            "boxes": boxes,
            "workers": {
                worker: {
                    "frames_out": replies[worker]["frames_out"],
                    "bytes_out": replies[worker]["bytes_out"],
                    "processed": replies[worker]["processed"],
                    "metrics": replies[worker]["metrics"],
                }
                for worker in self.workers
            },
        }

    def liveness(self) -> dict[str, dict[str, Any]]:
        """Per-worker liveness: process state + seconds since last frame."""
        now = time.monotonic()
        report = {}
        for worker, proc in self._procs.items():
            seen = self._last_seen.get(worker)
            report[worker] = {
                "alive": proc.is_alive(),
                "exitcode": proc.exitcode,
                "last_seen_age": (now - seen) if seen is not None else None,
            }
        return report

    # -- shutdown -------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """STOP/BYE handshake, bounded join, terminate stragglers."""
        if not self._started or self._stopped:
            self._stopped = True
            return
        self._stopped = True
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            try:
                self._send_control(worker, {"type": "stop"})
            except Exception:
                pass
        byes: set[str] = set()
        try:
            while byes != set(self.workers) and time.monotonic() < deadline:
                try:
                    bye = self._wait_control(
                        "bye", min(deadline, time.monotonic() + 0.5), context="shutdown"
                    )
                    byes.add(bye["worker"])
                except ParallelError:
                    break
        except WorkerFailed:
            pass
        for proc in self._procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in [*self._inboxes.values(), self._coord_inbox]:
            if q is not None:
                q.close()
                q.cancel_join_thread()
