"""The worker process of the parallel execution plane.

One worker owns a subset of a query network's boxes.  It rebuilds its
own private copy of the network from a spawn-safe blueprint (see
:mod:`repro.parallel.blueprints`), then loops on its inbox queue:

- **data frames** (``TupleTrainMessage`` wire bytes, pickle-free) are
  enqueued on the addressed arc and drained through the owned boxes —
  the same claim rule every backend uses
  (:func:`repro.core.engine.claim_run` keyed on source timestamps);
- emissions whose consumer lives on another worker are framed and sent
  to that worker's inbox; emissions to output streams go to the
  coordinator;
- **control frames** drive the fence-based termination protocol,
  end-of-stream operator flushes, stats collection, and shutdown;
- an inbox timeout doubles as the heartbeat tick (and as the orphan
  check: a worker whose coordinator died exits instead of lingering).

Everything here runs in the child process.  ``worker_main`` is a
module-level function so the ``spawn`` start method can import it; its
arguments are restricted to picklable values plus ``multiprocessing``
queues.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
import traceback
from typing import Any, TYPE_CHECKING

from repro.core.engine import claim_run, pop_head, timestamp_keys
from repro.network.framing import (
    KIND_CONTROL,
    decode_frame,
    encode_control,
)
from repro.network.transport import TupleTrainMessage
from repro.parallel.blueprints import build_network

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.queues import Queue as MPQueue

# Nominal per-tuple payload estimate used for TupleTrainMessage
# accounting (the real wire size is len(frame); this feeds the same
# size model the simulated transports use).
TUPLE_BYTES = 32

COORD = "coord"


class _WorkerState:
    """Mutable run state of one worker process."""

    def __init__(
        self,
        worker_id: str,
        spec: dict,
        placement: dict[str, str],
        peer_inboxes: "dict[str, MPQueue]",
        coord_inbox: "MPQueue",
        train_size: int,
    ):
        self.worker_id = worker_id
        self.network = build_network(spec)
        self.placement = placement
        self.peer_inboxes = peer_inboxes
        self.coord_inbox = coord_inbox
        self.train_size = max(1, train_size)
        self.owned = [
            box_id
            for box_id in self.network.topological_order()
            if placement.get(box_id) == worker_id
        ]
        self.owned_set = set(self.owned)
        # Termination-detection counters (fence protocol): data frames
        # only — control traffic is not counted.
        self.sent: dict[str, int] = {}
        self.received = 0
        self.processed = 0  # tuples through owned boxes
        self.frames_out = 0
        self.bytes_out = 0

    # -- egress ---------------------------------------------------------

    def send_control(self, payload: dict) -> None:
        self.coord_inbox.put(encode_control(payload))

    def send_data(self, dest: str, route: str, train: list) -> None:
        """Frame a train as TupleTrainMessage wire bytes and ship it."""
        message = TupleTrainMessage.from_train(route, train, tuple_bytes=TUPLE_BYTES)
        wire = message.to_wire(train)
        inbox = self.coord_inbox if dest == COORD else self.peer_inboxes[dest]
        inbox.put(wire)
        self.sent[dest] = self.sent.get(dest, 0) + 1
        self.frames_out += 1
        self.bytes_out += len(wire)

    def route_emissions(self, box, emissions: list) -> None:
        """Deliver a processed train's outputs: locally, remotely, or out.

        Emission order is preserved per destination arc, so every arc
        stays FIFO end to end (each arc has a single producer box and a
        single producer process — the per-arc order every backend
        agrees on).
        """
        if not emissions:
            return
        per_arc: dict[str, list] = {}
        arcs: dict[str, Any] = {}
        for out_port, tup in emissions:
            for arc in box.output_arcs.get(out_port, []):
                per_arc.setdefault(arc.id, []).append(tup)
                arcs[arc.id] = arc
        for arc_id, train in per_arc.items():
            arc = arcs[arc_id]
            kind, ref = arc.target
            if kind == "out":
                self.send_data(COORD, f"out:{ref}", train)
            else:
                owner = self.placement[str(kind)]
                if owner == self.worker_id:
                    arc.queue.extend(train)
                    arc.tuples_transferred += len(train)
                else:
                    self.send_data(owner, arc.id, train)

    # -- processing -----------------------------------------------------

    def drain(self) -> None:
        """Process owned boxes until none has queued input."""
        boxes = self.network.boxes
        progress = True
        while progress:
            progress = False
            for box_id in self.owned:
                box = boxes[box_id]
                while box.queued() > 0:
                    arc, n = claim_run(box, self.train_size, timestamp_keys)
                    if arc is None:
                        break
                    batch = pop_head(arc.queue, n)
                    box.tuples_in += n
                    self.processed += n
                    emissions = box.operator.process_batch(
                        batch, port=int(arc.target[1])
                    )
                    box.tuples_out += len(emissions)
                    self.route_emissions(box, emissions)
                    progress = True

    def accept(self, route: str, train: list) -> None:
        """Enqueue an incoming data frame's train on the addressed arc."""
        self.received += 1
        arc = self.network.arcs.get(route)
        if arc is None:
            raise KeyError(f"worker {self.worker_id}: no arc {route!r}")
        arc.queue.extend(train)
        arc.tuples_transferred += len(train)

    def flush_box(self, box_id: str) -> None:
        """End-of-stream flush of one owned box (engine.flush's per-box
        step; the coordinator quiesces the plane between boxes so topo
        order is respected globally)."""
        box = self.network.boxes[box_id]
        self.drain()  # anything still queued at this box goes first
        emissions = box.operator.flush()
        if emissions:
            box.tuples_out += len(emissions)
            self.route_emissions(box, emissions)
            self.drain()

    # -- snapshots ------------------------------------------------------

    def fence_snapshot(self, fence_round: int) -> dict:
        return {
            "type": "fence_ack",
            "worker": self.worker_id,
            "round": fence_round,
            "sent": dict(self.sent),
            "received": self.received,
            "processed": self.processed,
        }

    def stats_snapshot(self) -> dict:
        return {
            "type": "stats_reply",
            "worker": self.worker_id,
            "boxes": {
                box_id: {
                    "tuples_in": self.network.boxes[box_id].tuples_in,
                    "tuples_out": self.network.boxes[box_id].tuples_out,
                }
                for box_id in self.owned
            },
            "frames_out": self.frames_out,
            "bytes_out": self.bytes_out,
            "processed": self.processed,
        }


def _parent_alive(parent_pid: int) -> bool:
    if os.getppid() != parent_pid:
        return False  # reparented: the coordinator process is gone
    try:
        os.kill(parent_pid, 0)
    except OSError:
        return False
    return True


def worker_main(
    worker_id: str,
    spec: dict,
    placement: dict[str, str],
    inbox: "MPQueue",
    peer_inboxes: "dict[str, MPQueue]",
    coord_inbox: "MPQueue",
    train_size: int = 50,
    heartbeat_interval: float = 0.25,
    parent_pid: int | None = None,
    log_path: str | None = None,
) -> None:
    """Entry point of one worker process (spawn-safe, module-level)."""
    log = None
    if log_path:
        log = open(log_path, "a", buffering=1)

    def say(line: str) -> None:
        if log is not None:
            log.write(f"[{time.monotonic():.3f}] {line}\n")

    state = None
    try:
        state = _WorkerState(
            worker_id, spec, placement, peer_inboxes, coord_inbox, train_size
        )
        say(f"worker {worker_id} up: pid={os.getpid()} boxes={state.owned}")
        state.send_control(
            {
                "type": "hello",
                "worker": worker_id,
                "pid": os.getpid(),
                "boxes": state.owned,
            }
        )
        while True:
            try:
                frame = inbox.get(timeout=heartbeat_interval)
            except queue_module.Empty:
                state.send_control({"type": "heartbeat", "worker": worker_id})
                if parent_pid is not None and not _parent_alive(parent_pid):
                    say("coordinator gone; exiting")
                    return
                continue
            kind, route, payload = decode_frame(frame)
            if kind != KIND_CONTROL:
                state.accept(route, payload)
                state.drain()
                continue
            msg_type = payload.get("type")
            if msg_type == "stop":
                say(f"stop: processed={state.processed}")
                state.send_control({"type": "bye", "worker": worker_id})
                return
            elif msg_type == "fence":
                state.drain()
                state.send_control(state.fence_snapshot(int(payload["round"])))
            elif msg_type == "flush_box":
                box_id = str(payload["box"])
                if box_id not in state.owned_set:
                    raise KeyError(
                        f"worker {worker_id} asked to flush unowned box {box_id!r}"
                    )
                state.flush_box(box_id)
                state.send_control(
                    {"type": "flush_ack", "worker": worker_id, "box": box_id}
                )
            elif msg_type == "stats":
                state.send_control(state.stats_snapshot())
            else:
                raise ValueError(f"unknown control frame {msg_type!r}")
    except BaseException as exc:  # noqa: BLE001 - forwarded to the coordinator
        say(f"error: {exc!r}\n{traceback.format_exc()}")
        try:
            coord_inbox.put(
                encode_control(
                    {
                        "type": "error",
                        "worker": worker_id,
                        "error": repr(exc),
                        "traceback": traceback.format_exc(),
                    }
                )
            )
        except Exception:
            pass
        raise
    finally:
        if log is not None:
            log.close()
