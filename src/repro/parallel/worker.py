"""The worker process of the parallel execution plane.

One worker owns a subset of a query network's boxes.  It rebuilds its
own private copy of the network from a spawn-safe blueprint (see
:mod:`repro.parallel.blueprints`), cuts it down to the boxes it owns
(:func:`cut_network`) and runs an ordinary
:class:`~repro.core.engine.AuroraEngine` over the cut.  The worker
itself only routes, looping on its inbox queue:

- **data frames** (:mod:`repro.network.framing` bytes, pickle-free) are
  pushed into the engine, which runs until idle; what it then holds in
  its output buffers is shipped on, segment by segment — a columnar
  segment leaves as the column frame it is, never as rows;
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
from typing import TYPE_CHECKING

from repro.core.engine import AuroraEngine
from repro.core.query import QueryNetwork
from repro.network import framing
from repro.network.framing import KIND_CONTROL, decode_frame, encode_control
from repro.parallel.blueprints import build_network

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.queues import Queue as MPQueue

    from repro.network.framing import Train

COORD = "coord"

# Stream-name prefix of an arc cut at the worker boundary.  A real
# output stream of that very name would fail the cut loudly
# (``rewire_target`` rejects duplicate output streams).
BOUNDARY = "arc:"


def cut_network(
    network: QueryNetwork, placement: dict[str, str], worker_id: str
) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """Rewrite ``network`` in place into the sub-network ``worker_id`` owns.

    An arc fed from outside the worker — by a remote box or a network
    input — becomes the input stream ``BOUNDARY + arc.id``, an arc
    feeding a remote box the output stream of the same name; real
    output arcs keep their name, arcs and boxes the worker has no end
    of are removed.  Returns ``(ingress, egress)``: wire route -> input
    stream, and output stream -> ``(destination, wire route)``.  Routes
    are the uncut network's: arc ids, ``out:<stream>`` to the coordinator.
    """
    ingress: dict[str, str] = {}
    egress: dict[str, tuple[str, str]] = {}
    for arc in list(network.arcs.values()):
        # "in" / "out" endpoints are nobody's: no box may carry those ids.
        produced = placement.get(arc.source[0]) == worker_id
        consumed = placement.get(arc.target[0]) == worker_id
        stream = BOUNDARY + arc.id
        if not produced and not consumed:
            network.remove_arc(arc.id)
        elif not produced:
            ingress[arc.id] = stream
            network.rewire_source(arc, "in:" + stream)
        elif arc.is_output:
            egress[str(arc.target[1])] = (COORD, f"out:{arc.target[1]}")
        elif not consumed:
            egress[stream] = (placement[str(arc.target[0])], arc.id)
            network.rewire_target(arc, "out:" + stream)
    for box_id in [b for b in network.boxes if placement[b] != worker_id]:
        network.remove_box(box_id)
    return ingress, egress


class _WorkerState:
    """One worker's engine over its cut, and the routing around it."""

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
        network = build_network(spec)
        self.ingress, self.egress = cut_network(network, placement, worker_id)
        self.engine = AuroraEngine(network, train_size=max(1, train_size))
        self.inboxes = {**peer_inboxes, COORD: coord_inbox}
        # Termination-detection counters (fence protocol): data frames
        # only — control traffic is not counted.
        self.sent: dict[str, int] = {}
        self.received = 0
        self.bytes_out = 0

    # -- egress ---------------------------------------------------------

    def send_control(self, payload: dict) -> None:
        self.inboxes[COORD].put(encode_control(payload))

    def send_data(self, dest: str, route: str, train: "Train") -> None:
        """Frame a train and ship it (data frames only feed the fence ledger)."""
        wire = framing.encode_data(route, train)
        self.inboxes[dest].put(wire)
        self.sent[dest] = self.sent.get(dest, 0) + 1
        self.bytes_out += len(wire)

    # -- the three verbs ------------------------------------------------

    def accept(self, route: str, train: "Train") -> None:
        """Push an incoming data frame's train on its arc's boundary stream."""
        self.received += 1
        self.engine.push_many(self.ingress[route], train)

    def pump(self) -> None:
        """Run the engine until idle, then ship what it delivered: each
        output stream's segments in delivery order (rows as ONE frame,
        a pending columnar segment as the column frame it already is),
        so every arc stays FIFO end to end.  A shipped stream is
        released — buffer and per-delivery QoS latency samples — so a
        long-lived worker holds no per-delivered-tuple state between
        pumps."""
        engine = self.engine
        engine.run_until_idle()
        for stream, buffer in engine.outputs.items():
            if buffer:
                for segment in buffer.take_segments():
                    self.send_data(*self.egress[stream], segment)
                engine.qos_monitor.latencies[stream].clear()

    def flush_box(self, box_id: str) -> None:
        """End-of-stream flush of one owned box.  The coordinator walks
        the boxes in *global* topological order (a worker's boxes need
        not be contiguous in it) and quiesces the plane in between."""
        self.engine.flush_box(box_id)  # drains the box first, then runs idle
        self.pump()

    # -- snapshots ------------------------------------------------------

    def fence_snapshot(self, fence_round: int) -> dict:
        return {
            "type": "fence_ack",
            "worker": self.worker_id,
            "round": fence_round,
            "sent": dict(self.sent),
            "received": self.received,
            "processed": self.engine.tuples_processed,
        }

    def stats_snapshot(self) -> dict:
        return {
            "type": "stats_reply",
            "worker": self.worker_id,
            "boxes": {
                box.id: {"tuples_in": box.tuples_in, "tuples_out": box.tuples_out}
                for box in self.engine.network.boxes.values()
            },
            "frames_out": sum(self.sent.values()),
            "bytes_out": self.bytes_out,
            "processed": self.engine.tuples_processed,
            "metrics": self.engine.metrics.snapshot(),
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

    try:
        state = _WorkerState(
            worker_id, spec, placement, peer_inboxes, coord_inbox, train_size
        )
        say(f"worker {worker_id} up: pid={os.getpid()} boxes={state.engine.box_order}")
        state.send_control(
            {
                "type": "hello",
                "worker": worker_id,
                "pid": os.getpid(),
                "boxes": state.engine.box_order,
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
                state.pump()
                continue
            msg_type = payload.get("type")
            if msg_type == "stop":
                say(f"stop: processed={state.engine.tuples_processed}")
                state.send_control({"type": "bye", "worker": worker_id})
                return
            elif msg_type == "fence":
                state.pump()
                state.send_control(state.fence_snapshot(int(payload["round"])))
            elif msg_type == "flush_box":
                box_id = str(payload["box"])
                state.flush_box(box_id)  # KeyError for a box outside the cut
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
