"""The worker plane without processes, and the corners of the cut.

A worker is an ``AuroraEngine`` over its cut of the network plus three
routing verbs (``accept`` / ``pump`` / ``flush_box``).  None of that
needs a process: here ``_WorkerState``s are wired together with plain
``queue.Queue`` inboxes and stepped round-robin, so every run is
deterministic and a failure points at the cut or the verbs, never at
spawn, IPC or the fence protocol (``test_worker_plane.py`` and
``test_dual_oracle.py`` cover those).
"""

import queue

import pytest

from repro.core.columnar import ColumnarTrain, OutputBuffer, col
from repro.core.engine import AuroraEngine
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map, columnar_map
from repro.core.operators.tumble import Tumble
from repro.core.operators.union import Union
from repro.core.query import QueryNetwork
from repro.core.tuples import StreamTuple
from repro.network.framing import decode_frame, encode_data
from repro.parallel import (
    ORACLE_SCENARIOS,
    ParallelSystem,
    blueprint,
    build_network,
    partition_boxes,
)
from repro.parallel.oracle import stream_multisets
from repro.parallel.worker import COORD, _WorkerState, cut_network
from repro.reference import execute
from repro.workloads.scenarios import make_scenario


def box_counters(network):
    return {
        box.id: {"tuples_in": box.tuples_in, "tuples_out": box.tuples_out}
        for box in network.boxes.values()
    }


def single_engine(spec, traffic):
    """Outputs and per-box counters of ONE engine over the uncut network."""
    engine = AuroraEngine(build_network(spec), train_size=50)
    for name, tuples in traffic.items():
        engine.push_many(name, tuples)
    engine.run_until_idle()
    engine.flush()
    outputs = {name: list(buffer) for name, buffer in engine.outputs.items()}
    return outputs, box_counters(engine.network)


class InProcessPlane:
    """Coordinator stand-in: routes inputs by arc, steps the workers
    round-robin until every inbox is empty, banks ``out:`` frames."""

    def __init__(self, spec, placement, train_size=50):
        self.network = build_network(spec)
        self.placement = placement
        self.train_size = train_size
        workers = sorted(set(placement.values()))
        self.inboxes = {worker: queue.Queue() for worker in workers}
        self.coord_inbox = queue.Queue()
        self.states = {
            worker: _WorkerState(
                worker,
                spec,
                placement,
                {w: q for w, q in self.inboxes.items() if w != worker},
                self.coord_inbox,
                train_size,
            )
            for worker in workers
        }
        self.outputs = {name: OutputBuffer() for name in self.network.outputs}

    def push(self, input_name, train):
        for arc in self.network.inputs[input_name]:
            owner = self.placement[arc.target[0]]
            self.inboxes[owner].put(encode_data(arc.id, train))

    def push_traffic(self, traffic):
        # The coordinator's own merge rule (timestamp order across
        # inputs, shipped as trains); it only needs push + train_size.
        ParallelSystem.push_traffic(self, traffic)

    @staticmethod
    def assert_released(state):
        """A pumped worker holds no per-delivered-tuple state."""
        engine = state.engine
        assert not any(engine.outputs.values())
        assert not any(engine.qos_monitor.latencies.values())

    def settle(self):
        busy = True
        while busy:
            busy = False
            for worker, inbox in self.inboxes.items():
                state = self.states[worker]
                while not inbox.empty():
                    _kind, route, train = decode_frame(inbox.get())
                    state.accept(route, train)
                    state.pump()
                    self.assert_released(state)
                    busy = True
        while not self.coord_inbox.empty():
            _kind, route, train = decode_frame(self.coord_inbox.get())
            assert route.startswith("out:")
            ParallelSystem._deliver(self, route[4:], train)

    def flush(self):
        """Per-box flush in GLOBAL topological order, settling between."""
        for box_id in self.network.topological_order():
            state = self.states[self.placement[box_id]]
            state.flush_box(box_id)
            self.assert_released(state)
            self.settle()

    def boxes(self):
        merged = {}
        for state in self.states.values():
            merged.update(state.stats_snapshot()["boxes"])
        return merged


# -- every oracle scenario at every width --------------------------------------


@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("name", ORACLE_SCENARIOS)
def test_oracle_scenarios_match_reference(name, n_workers):
    spec = blueprint("repro.parallel.blueprints:scenario_network", name, scale=0.25)
    reference = build_network(spec)
    want_outputs = execute(reference, make_scenario(name, 0.25).traffic(0))
    want_boxes = box_counters(reference)
    assert sum(len(v) for v in want_outputs.values()) > 0
    # Row frames, then column frames: the kernels of the second run
    # read columns that are read-only views of the frames' bytes, so
    # one that writes in place raises here instead of corrupting a frame.
    for convert in (list, ColumnarTrain.from_tuples):
        plane = InProcessPlane(spec, partition_boxes(build_network(spec), n_workers))
        traffic = make_scenario(name, 0.25).traffic(0)
        plane.push_traffic({k: convert(tuples) for k, tuples in traffic.items()})
        plane.settle()
        plane.flush()
        assert stream_multisets(plane.outputs) == stream_multisets(want_outputs)
        assert plane.boxes() == want_boxes
        processed = sum(s.engine.tuples_processed for s in plane.states.values())
        assert processed == sum(c["tuples_in"] for c in want_boxes.values())


def test_one_worker_cut_has_no_boundary_towards_peers():
    spec = blueprint("repro.parallel.blueprints:scenario_network", "iot_fleet", scale=0.25)
    network = build_network(spec)
    arcs = dict(network.arcs)
    ingress, egress = cut_network(network, dict.fromkeys(network.boxes, "w0"), "w0")
    assert set(ingress) == {a.id for a in arcs.values() if a.is_input}
    assert egress == {name: (COORD, f"out:{name}") for name in network.outputs}
    assert set(network.arcs) == set(arcs)


# -- the sandwich: a non-contiguous placement ----------------------------------


def sandwich_network():
    """A stateful box of w1 between two boxes of w0, and back again::

        in:a -> f[w0] =cp=> t[w1] -> m[w0] -> u[w1] -> out:merged
                                       \\-> out:mapped   ^
        in:b ------------------------------------------/

    The f -> t boundary arc carries a connection point; ``m`` fans out
    to a real output and a remote box; ``u`` fans in a remote box and a
    network input; ``t`` keeps open windows only a flush closes.
    """
    net = QueryNetwork("sandwich")
    net.add_box("f", Filter(lambda t: t["v"] % 5 != 0))
    net.add_box(
        "t", Tumble("sum", groupby=("key",), value_attr="v", mode="count", window_size=4)
    )
    net.add_box("m", Map(lambda v: {"key": v["key"], "v": v["result"] + 1}))
    net.add_box("u", Union(2))
    net.connect("in:a", "f", arc_id="a_f")
    net.connect("f", "t", connection_point=True, arc_id="f_t")
    net.connect("t", "m", arc_id="t_m")
    net.connect("m", ("u", 0), arc_id="m_u")
    net.connect("m", "out:mapped", arc_id="m_out")
    net.connect("in:b", ("u", 1), arc_id="b_u")
    net.connect("u", "out:merged", arc_id="u_out")
    return net


SANDWICH_SPEC = blueprint("tests.parallel.test_worker_cut:sandwich_network")
SANDWICH_PLACEMENT = {"f": "w0", "t": "w1", "m": "w0", "u": "w1"}


def compiled_chain():
    """Four compiled stateless boxes, two per worker: every stage has a
    column kernel, so a ``ColumnarTrain`` is array operations from the
    ingress frame to the ``out:`` frame and nobody needs its rows."""
    net = QueryNetwork("compiled_chain")
    net.add_box("f1", Filter(col("v") % 5 != 0))
    net.add_box("m1", columnar_map({"key": col("key"), "v": col("v") + 1}))
    net.add_box("f2", Filter(col("key") % 7 != 0))
    net.add_box("m2", columnar_map({"key": col("key"), "v": col("v") * 2}))
    net.connect("in:a", "f1", arc_id="a_f1")
    net.connect("f1", "m1")
    net.connect("m1", "f2", arc_id="m1_f2")
    net.connect("f2", "m2")
    net.connect("m2", "out:sink")
    return net


COMPILED_SPEC = blueprint("tests.parallel.test_worker_cut:compiled_chain")
COMPILED_PLACEMENT = {"f1": "w0", "m1": "w0", "f2": "w1", "m2": "w1"}


def sandwich_traffic(n=203):
    return {
        "a": [StreamTuple({"key": i % 7, "v": i}, timestamp=i * 0.001) for i in range(n)],
        "b": [StreamTuple({"key": -1, "v": -i}, timestamp=i * 0.003) for i in range(n // 3)],
    }


class TestSandwich:
    def test_cut_maps_are_what_the_topology_says(self):
        cuts = {}
        for worker in ("w0", "w1"):
            network = sandwich_network()
            ingress, egress = cut_network(network, SANDWICH_PLACEMENT, worker)
            network.validate()
            cuts[worker] = (network, ingress, egress)

        network, ingress, egress = cuts["w0"]
        assert set(network.boxes) == {"f", "m"}
        assert set(network.arcs) == {"a_f", "f_t", "t_m", "m_u", "m_out"}
        assert ingress == {"a_f": "arc:a_f", "t_m": "arc:t_m"}
        assert egress == {
            "arc:f_t": ("w1", "f_t"),
            "arc:m_u": ("w1", "m_u"),
            "mapped": (COORD, "out:mapped"),
        }
        assert set(network.outputs) == set(egress)
        assert {n for n, arcs in network.inputs.items() if arcs} == set(ingress.values())

        network, ingress, egress = cuts["w1"]
        assert set(network.boxes) == {"t", "u"}
        assert set(network.arcs) == {"f_t", "t_m", "m_u", "b_u", "u_out"}
        assert ingress == {"f_t": "arc:f_t", "m_u": "arc:m_u", "b_u": "arc:b_u"}
        assert egress == {"arc:t_m": ("w0", "t_m"), "merged": (COORD, "out:merged")}
        assert set(network.outputs) == set(egress)
        # The connection point rides the boundary arc on both sides.
        for network, _ingress, _egress in cuts.values():
            assert network.arcs["f_t"].connection_point is not None

    def test_real_output_named_like_a_boundary_stream_fails_the_cut(self):
        from repro.core.query import QueryError

        network = sandwich_network()
        network.rewire_target(network.arcs["m_out"], "out:arc:m_u")
        with pytest.raises(QueryError, match="duplicate output stream"):
            cut_network(network, SANDWICH_PLACEMENT, "w0")

    def test_matches_single_engine_with_per_box_flush(self):
        traffic = sandwich_traffic()
        plane = InProcessPlane(SANDWICH_SPEC, SANDWICH_PLACEMENT, train_size=10)
        for start in range(0, len(traffic["a"]), 25):
            plane.push("a", traffic["a"][start : start + 25])
            plane.push("b", traffic["b"][start // 3 : (start + 25) // 3])
        plane.settle()
        assert plane.boxes()["t"]["tuples_out"] > 0
        before_flush = sum(len(v) for v in plane.outputs.values())
        plane.flush()
        assert sum(len(v) for v in plane.outputs.values()) > before_flush

        want_outputs, want_boxes = single_engine(SANDWICH_SPEC, traffic)
        assert stream_multisets(plane.outputs) == stream_multisets(want_outputs)
        assert plane.boxes() == want_boxes
        # A single producer chain keeps full FIFO order across workers.
        assert [t.values for t in plane.outputs["mapped"]] == [
            t.values for t in want_outputs["mapped"]
        ]
        # History is recorded on both sides of the cut connection point.
        crossed = want_boxes["f"]["tuples_out"]
        for state in plane.states.values():
            cp = state.engine.network.arcs["f_t"].connection_point
            assert len(cp.read_history()) == crossed

    def test_a_column_frame_is_ingested_as_a_train(self, monkeypatch):
        # A columnar frame goes through the same verbs as a row frame
        # (push_many takes either encoding) and delivers the same.  Over
        # a compiled network the train stays a train from the ingress
        # frame to the coordinator's buffer: nobody builds its rows
        # until somebody reads them.  (The sandwich's opaque lambdas
        # are a claim barrier, so its workers do materialize.)
        materialized = []
        to_tuples = ColumnarTrain.to_tuples
        monkeypatch.setattr(
            ColumnarTrain,
            "to_tuples",
            lambda train: materialized.append(len(train)) or to_tuples(train),
        )
        rows = sandwich_traffic()["a"]
        for spec, placement, row_free in (
            (SANDWICH_SPEC, SANDWICH_PLACEMENT, False),
            (COMPILED_SPEC, COMPILED_PLACEMENT, True),
        ):
            planes = []
            for train in (rows, ColumnarTrain.from_tuples(rows)):
                plane = InProcessPlane(spec, placement)
                plane.push_traffic({"a": train})
                del materialized[:]
                plane.settle()
                if row_free and train is not rows:
                    assert materialized == []
                    assert all(
                        "pending columnar" in repr(buffer)
                        for buffer in plane.outputs.values()
                    )
                plane.flush()
                planes.append(plane)
            assert planes[1].boxes() == planes[0].boxes()
            assert stream_multisets(planes[1].outputs) == stream_multisets(
                planes[0].outputs
            )
            assert sum(len(v) for v in planes[1].outputs.values()) > 0
            assert not any(  # read above: materialized, in delivery order
                "pending columnar" in repr(buffer) for buffer in planes[1].outputs.values()
            )

    @pytest.mark.parametrize("size", [1, 7, 50])
    def test_push_traffic_ships_the_same_trains_for_rows_and_columns(self, size):
        # The merge across inputs (timestamp, then input name, then
        # position; full trains where their last tuple falls, tails
        # after) must not depend on the representation of an input — or
        # on its timestamps running backwards, which costs a columnar
        # input its columns but not its order.
        class Recorder:
            train_size = size

            def __init__(self):
                self.shipped = []

            def push(self, name, train):
                self.shipped.append((name, [(t.timestamp, t.values) for t in train]))

        traffic = sandwich_traffic(53)
        traffic["b"] = traffic["b"][::-1]
        want = Recorder()
        # The row-at-a-time definition of the merge rule.
        merged = sorted(
            (tup.timestamp, name, position, tup)
            for name, tuples in traffic.items()
            for position, tup in enumerate(tuples)
        )
        pending = {}
        for _ts, name, _pos, tup in merged:
            pending.setdefault(name, []).append(tup)
            if len(pending[name]) == size:
                want.push(name, pending[name])
                pending[name] = []
        for name, tail in pending.items():
            if tail:
                want.push(name, tail)
        for convert in (list, ColumnarTrain.from_tuples):
            got = Recorder()
            ParallelSystem.push_traffic(
                got, {name: convert(tuples) for name, tuples in traffic.items()}
            )
            assert got.shipped == want.shipped

    def test_accept_rejects_a_route_outside_the_cut(self):
        plane = InProcessPlane(SANDWICH_SPEC, SANDWICH_PLACEMENT)
        with pytest.raises(KeyError, match="b_u"):
            plane.states["w0"].accept("b_u", sandwich_traffic()["b"])
