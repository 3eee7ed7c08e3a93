"""Unit tests for superbox compilation (repro.core.fusion)."""

import pytest

from repro.core.columnar import ColumnarTrain, col
from repro.core.engine import AuroraEngine
from repro.core.fusion import FusedChain, build_chains, chainable, find_runs
from repro.core.operators.base import StatelessOperator
from repro.core.operators.case_filter import CaseFilter
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map, columnar_map
from repro.core.operators.tumble import Tumble
from repro.core.operators.union import Union
from repro.core.query import QueryNetwork
from repro.core.tuples import StreamTuple, make_stream
from repro.obs.export import dumps, snapshot


def pipeline(n_stages=3):
    """in:src -> f0 -> f1 -> ... -> out:sink, all fusable."""
    net = QueryNetwork()
    prev = "in:src"
    for i in range(n_stages):
        box_id = f"f{i}"
        if i % 2 == 0:
            net.add_box(box_id, Filter(lambda t: t["A"] % 7 != 0))
        else:
            net.add_box(box_id, Map(lambda v: {"A": v["A"] + 1}))
        net.connect(prev, box_id)
        prev = box_id
    net.connect(prev, "out:sink")
    return net


class TestEligibility:
    def test_chainable_flags(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("m", Map(lambda v: v))
        net.add_box("c", CaseFilter([lambda t: True]))
        net.add_box("t", Tumble("cnt", groupby=("A",), value_attr="A"))
        net.add_box("u", Union(2))
        assert chainable(net.boxes["f"])
        assert chainable(net.boxes["m"])
        assert chainable(net.boxes["c"])
        assert not chainable(net.boxes["t"])  # stateful
        assert not chainable(net.boxes["u"])  # arity 2

    def test_linear_pipeline_is_one_run(self):
        runs = find_runs(pipeline(4))
        assert runs == [["f0", "f1", "f2", "f3"]]

    def test_single_box_never_fuses(self):
        assert find_runs(pipeline(1)) == []

    def test_stateful_box_breaks_run(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("t", Tumble("cnt", groupby=("A",), value_attr="A"))
        net.add_box("m", Map(lambda v: v))
        net.add_box("g", Filter(lambda t: True))
        net.connect("in:src", "f")
        net.connect("f", "t")
        net.connect("t", "m")
        net.connect("m", "g")
        net.connect("g", "out:sink")
        # A windowed box with a columnar kernel may *terminate* a run
        # (window-tail extension) but never sits in its interior — the
        # downstream stateless pair still forms its own run.
        assert find_runs(net) == [["f", "t"], ["m", "g"]]

    def test_stateful_box_never_interior(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("t", Tumble("cnt", groupby=("A",), value_attr="A"))
        net.add_box("m", Map(lambda v: v))
        net.connect("in:src", "f")
        net.connect("f", "t")
        net.connect("t", "m")
        net.connect("m", "out:sink")
        runs = find_runs(net)
        for run in runs:
            assert "t" not in run[:-1]

    def test_fan_out_breaks_run(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("a", Map(lambda v: v))
        net.add_box("b", Map(lambda v: v))
        net.connect("in:src", "f")
        net.connect("f", "a", arc_id="fa")
        net.connect("f", "b", arc_id="fb")
        net.connect("a", "out:x")
        net.connect("b", "out:y")
        # f has two consumers on port 0: no interior link through it.
        assert find_runs(net) == []

    def test_fan_in_breaks_run(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("g", Filter(lambda t: True))
        net.add_box("u", Union(2))
        net.add_box("m", Map(lambda v: v))
        net.connect("in:a", "f")
        net.connect("in:b", "g")
        net.connect("f", ("u", 0))
        net.connect("g", ("u", 1))
        net.connect("u", "m")
        net.connect("m", "out:sink")
        # Union is not chainable (arity 2); nothing on either side fuses.
        assert find_runs(net) == []

    def test_connection_point_breaks_run(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("m", Map(lambda v: v))
        net.add_box("g", Filter(lambda t: True))
        net.connect("in:src", "f")
        net.connect("f", "m", connection_point=True)
        net.connect("m", "g")
        net.connect("g", "out:sink")
        assert find_runs(net) == [["m", "g"]]

    def test_queued_interior_arc_breaks_run(self):
        net = pipeline(3)
        # Park a tuple on the f1 -> f2 arc: the link is not fusable
        # until the queue drains.
        arc = net.boxes["f2"].input_arcs[0]
        arc.push(StreamTuple({"A": 1}))
        assert find_runs(net) == [["f0", "f1"]]
        arc.queue.clear()
        assert find_runs(net) == [["f0", "f1", "f2"]]

    def test_multi_output_box_only_as_tail(self):
        net = QueryNetwork()
        net.add_box("f", Filter(lambda t: True))
        net.add_box("c", CaseFilter([lambda t: t["A"] > 0], with_else_port=True))
        net.add_box("m", Map(lambda v: v))
        net.connect("in:src", "f")
        net.connect("f", "c")
        net.connect(("c", 0), "m")
        net.connect(("c", 1), "out:rest")
        net.connect("m", "out:sink")
        # c has two outputs: it may end a run but not continue one.
        assert find_runs(net) == [["f", "c"]]


class TestFusedChain:
    def test_requires_two_stages(self):
        net = pipeline(2)
        with pytest.raises(ValueError):
            FusedChain([net.boxes["f0"]])

    def test_cost_and_shape(self):
        net = pipeline(3)
        chain = FusedChain([net.boxes[b] for b in ("f0", "f1", "f2")])
        assert chain.tail.id == "f2"
        assert chain.member_ids() == ["f0", "f1", "f2"]
        # One kernel per interior stage; opaque lambdas have no column
        # kernel, so a train materializes at the first of them.
        assert len(chain.interior_kernels) == 2
        assert chain.columnar_kernels == [None, None]
        assert not chain.tail_columnar

    def test_build_chains_maps_members_to_heads(self):
        net = pipeline(4)
        chains = build_chains(net)
        assert set(chains) == {"f0"}
        assert chains["f0"].member_ids() == ["f0", "f1", "f2", "f3"]


class TestEngineFusion:
    def test_fused_by_default_and_interior_arcs_stay_empty(self):
        engine = AuroraEngine(pipeline(3), train_size=5)
        assert engine.fused_runs() == [["f0", "f1", "f2"]]
        engine.push_many("src", make_stream([{"A": i} for i in range(40)]))
        engine.run_until_idle()
        engine.flush()
        for box_id in ("f1", "f2"):
            for arc in engine.network.boxes[box_id].input_arcs.values():
                assert not arc.queue
        survivors = [i for i in range(40) if i % 7 != 0 and (i + 1) % 7 != 0]
        assert [t["A"] for t in engine.outputs["sink"]] == [i + 1 for i in survivors]

    def test_fusion_off_flag(self):
        engine = AuroraEngine(pipeline(3), fusion=False)
        assert engine.fused_runs() == []

    def test_no_fusion_without_push_trains(self):
        engine = AuroraEngine(pipeline(3), push_trains=False)
        assert engine.fused_runs() == []

    def test_no_fusion_without_batch_execution(self):
        """The fused pass is a train pass: on the per-tuple reference
        path the flag is inert, down to the snapshot."""

        def run(fusion):
            net = pipeline(3)
            engine = AuroraEngine(
                net, train_size=5, batch_execution=False, fusion=fusion
            )
            assert engine.fused_runs() == []
            engine.push_many("src", make_stream([{"A": i} for i in range(40)]))
            engine.run_until_idle()
            engine.flush()
            stats = {
                box_id: (box.tuples_in, box.tuples_out, box.busy_time,
                         box.latency_sum, box.latency_count)
                for box_id, box in net.boxes.items()
            }
            outputs = [(t.values, t.timestamp) for t in engine.outputs["sink"]]
            return outputs, engine.clock, stats, dumps(snapshot(engine.metrics))

        assert run(fusion=True) == run(fusion=False)

    def test_kernel_lists_are_read_at_call_time(self):
        """Profilers swap entries of a chain's public kernel lists after
        the engine is built; the replacement is what must run."""
        net = QueryNetwork()
        net.add_box("f", Filter(col("A") % 7 != 0))
        net.add_box("m", columnar_map({"A": col("A") + 1}))
        net.add_box("g", Filter(lambda t: True))
        net.connect("in:src", "f")
        net.connect("f", "m")
        net.connect("m", "g")
        net.connect("g", "out:sink")
        engine = AuroraEngine(net, train_size=8)
        (chain,) = engine._fused.values()
        seen = {"row": 0, "columnar": 0}

        def counting(kind, kernel):
            def wrapped(batch):
                seen[kind] += len(batch)
                return kernel(batch)
            return wrapped

        chain.interior_kernels = [
            counting("row", k) for k in chain.interior_kernels
        ]
        chain.columnar_kernels = [
            counting("columnar", k) for k in chain.columnar_kernels
        ]
        rows = make_stream([{"A": i} for i in range(16)])
        engine.push_many("src", rows[:8])
        engine.run_until_idle()
        # 8 rows into f, the 6 survivors into m.
        assert seen == {"row": 14, "columnar": 0}
        engine.push_train("src", ColumnarTrain.from_tuples(rows[8:]))
        engine.run_until_idle()
        # 8 more into f, 7 survivors into m — through the column kernels.
        assert seen == {"row": 14, "columnar": 15}
        assert [t["A"] for t in engine.outputs["sink"]] == [
            i + 1 for i in range(16) if i % 7 != 0
        ]

    def test_interior_column_kernel_may_decline(self):
        """Exact or decline, mid-superbox: a stage whose column kernel
        returns None gets that train as rows, and the rest of the run
        stays on the row kernels — same accounting as a row push."""

        class Picky(StatelessOperator):
            fusable = True
            supports_columnar = True

            def __init__(self):
                super().__init__()
                self.declined = []

            def process(self, tup, port=0):
                return [(0, tup)]

            def process_columnar(self, train, port=0):
                self.declined.append(len(train) % 2 == 1)
                return None if len(train) % 2 else [(0, train)]

        def run(trains):
            net = QueryNetwork()
            net.add_box("f", Filter(col("A") % 7 != 0))
            net.add_box("p", Picky())
            net.add_box("m", columnar_map({"A": col("A") + 1}))
            net.connect("in:src", "f")
            net.connect("f", "p")
            net.connect("p", "m")
            net.connect("m", "out:sink")
            engine = AuroraEngine(net, train_size=8)
            assert engine.fused_runs() == [["f", "p", "m"]]
            rows = make_stream([{"A": i} for i in range(16)])
            if trains:
                engine.push_train("src", ColumnarTrain.from_tuples(rows))
            else:
                engine.push_many("src", rows)
            engine.run_until_idle()
            stats = {
                box_id: (box.tuples_in, box.tuples_out, box.busy_time,
                         box.latency_sum, box.latency_count)
                for box_id, box in net.boxes.items()
            }
            outputs = [(t.values, t.timestamp) for t in engine.outputs["sink"]]
            return (
                net.boxes["p"].operator.declined,
                (outputs, engine.clock, stats, dumps(snapshot(engine.metrics))),
            )

        declined, as_trains = run(trains=True)
        # 0..7 loses 0 and 7 (six rows: taken); 8..15 loses 14 (seven: declined).
        assert declined == [False, True]
        assert as_trains == run(trains=False)[1]
        assert [v["A"] for v, _ts in as_trains[0]] == [
            i + 1 for i in range(16) if i % 7 != 0
        ]
