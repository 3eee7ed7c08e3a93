"""The multiprocessing execution plane: coordinator + workers."""

import pytest

from repro.core.columnar import ColumnarTrain
from repro.core.tuples import StreamTuple
from repro.network.framing import encode_data
from repro.parallel import (
    ParallelError,
    ParallelSystem,
    WorkerFailed,
    blueprint,
    build_network,
    partition_boxes,
)
from repro.parallel.blueprints import scenario_network, sleep_pipeline
from repro.parallel.oracle import stream_multisets
from tests.parallel.test_worker_cut import (
    COMPILED_PLACEMENT,
    COMPILED_SPEC,
    SANDWICH_PLACEMENT,
    SANDWICH_SPEC,
    sandwich_traffic,
    single_engine,
)

PIPELINE_SPEC = blueprint(
    "repro.parallel.blueprints:sleep_pipeline", stages=3, service_us=1.0
)


def source_tuples(n):
    return [StreamTuple({"v": i}, timestamp=i * 0.001) for i in range(n)]


# -- importable factories for failure-path tests -----------------------------


def broken_network():
    raise RuntimeError("blueprint factory exploded")


def exploding_network():
    """A pipeline whose stage raises on one specific tuple."""
    from repro.core.operators import Map
    from repro.core.query import QueryNetwork

    def detonate(values):
        if values["v"] == 13:
            raise RuntimeError("poison tuple")
        return values

    net = QueryNetwork("exploding")
    net.add_box("stage", Map(detonate))
    net.connect("in:source", "stage")
    net.connect("stage", "out:sink")
    return net


# -- blueprints --------------------------------------------------------------


class TestBlueprints:
    def test_build_network_rebuilds_scenarios(self):
        spec = blueprint(
            "repro.parallel.blueprints:scenario_network", "tenant_mix", scale=0.25
        )
        net = build_network(spec)
        assert net.boxes and net.outputs

    def test_build_matches_direct_call(self):
        net = scenario_network("iot_fleet", scale=0.25)
        assert set(net.boxes) == set(
            build_network(
                blueprint(
                    "repro.parallel.blueprints:scenario_network",
                    "iot_fleet",
                    scale=0.25,
                )
            ).boxes
        )

    def test_bad_factory_path_rejected(self):
        with pytest.raises(ValueError):
            blueprint("not_a_module_path")

    def test_sleep_pipeline_shape(self):
        net = sleep_pipeline(stages=4)
        assert len(net.boxes) == 4
        assert net.topological_order() == [f"stage{i}" for i in range(4)]


class TestPartition:
    def test_contiguous_chunks_cover_all_boxes(self):
        net = sleep_pipeline(stages=5)
        placement = partition_boxes(net, 2)
        assert set(placement) == set(net.boxes)
        assert placement["stage0"] == "w0"
        assert placement["stage4"] == "w1"
        # Contiguity: once the worker changes along the chain it never
        # changes back.
        owners = [placement[b] for b in net.topological_order()]
        assert owners == sorted(owners)

    def test_workers_clamped_to_box_count(self):
        net = sleep_pipeline(stages=2)
        placement = partition_boxes(net, 8)
        assert len(set(placement.values())) == 2

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            partition_boxes(sleep_pipeline(stages=2), 0)


# -- the live plane ----------------------------------------------------------


class TestParallelSystem:
    def test_delivers_everything_in_arc_order(self):
        with ParallelSystem(PIPELINE_SPEC, n_workers=2, train_size=20) as system:
            tuples = source_tuples(200)
            for start in range(0, 200, 20):
                system.push("source", tuples[start : start + 20])
            outputs = system.drain()
            delivered = [tup.values["v"] for tup in outputs["sink"]]
        # Single chain, single producer per arc: full FIFO order, every
        # stage bumped v once.
        assert delivered == [i + 3 for i in range(200)]

    def test_stats_reconcile_with_delivery(self):
        with ParallelSystem(PIPELINE_SPEC, n_workers=2, train_size=20) as system:
            system.push("source", source_tuples(60))
            system.drain()
            stats = system.stats()
        for stage in ("stage0", "stage1", "stage2"):
            assert stats["boxes"][stage] == {"tuples_in": 60, "tuples_out": 60}
        assert sum(w["processed"] for w in stats["workers"].values()) == 180
        # Each worker's engine registry rides along and tells the same story.
        counters = {}
        for worker in stats["workers"].values():
            counters.update(worker["metrics"]["counters"])
        assert stats["boxes"] == {
            stage: {
                "tuples_in": counters[f"engine.box.tuples_in{{box={stage}}}"],
                "tuples_out": counters[f"engine.box.tuples_out{{box={stage}}}"],
            }
            for stage in stats["boxes"]
        }

    def test_liveness_reports_every_worker(self):
        with ParallelSystem(PIPELINE_SPEC, n_workers=2) as system:
            system.push("source", source_tuples(10))
            system.drain()
            report = system.liveness()
            assert set(report) == {"w0", "w1"}
            for entry in report.values():
                assert entry["alive"]
                assert entry["last_seen_age"] is not None

    def test_output_frame_refreshes_its_senders_last_seen(self):
        # A worker that streams outputs never idles into a heartbeat;
        # its data frames must count as signs of life.  No processes
        # needed: feed the coordinator's inbox handler directly.
        system = ParallelSystem(PIPELINE_SPEC, n_workers=2)
        owner = system.placement["stage2"]  # feeds out:sink
        assert system._last_seen == {}
        assert system._absorb(encode_data("out:sink", source_tuples(3))) is None
        assert set(system._last_seen) == {owner}
        assert len(system.outputs["sink"]) == 3

    def test_a_foreign_data_frame_names_its_route_and_sender(self):
        # Protocol checks must survive ``python -O``: no assert, no
        # bare KeyError.  An inter-worker frame that strays to the
        # coordinator was sent by the owner of the arc's producer.
        system = ParallelSystem(SANDWICH_SPEC, placement=SANDWICH_PLACEMENT)
        with pytest.raises(ParallelError, match=r"route 'f_t' from worker w0"):
            system._absorb(encode_data("f_t", source_tuples(2)))
        with pytest.raises(ParallelError, match=r"route 'out:nope' from worker <unknown>"):
            system._absorb(encode_data("out:nope", source_tuples(2)))
        assert not any(system.outputs.values())

    def test_a_columnar_train_stays_columnar_across_processes(self):
        # Two real workers over a compiled chain: column frames in,
        # column frames between the workers, column frames out — the
        # coordinator's buffer holds segments until somebody reads.
        traffic = {"a": sandwich_traffic()["a"]}
        want_outputs, want_boxes = single_engine(COMPILED_SPEC, traffic)
        runs = []
        for convert in (list, ColumnarTrain.from_tuples):
            with ParallelSystem(COMPILED_SPEC, placement=COMPILED_PLACEMENT) as system:
                system.push_traffic({"a": convert(traffic["a"])}, train_size=40)
                outputs = system.drain()
                runs.append((repr(outputs["sink"]), system.stats()["boxes"], outputs))
        (_, row_boxes, row_outputs), (col_repr, col_boxes, col_outputs) = runs
        assert "0 materialized" in col_repr and "pending columnar" in col_repr
        assert row_boxes == col_boxes == want_boxes
        assert (
            stream_multisets(row_outputs)
            == stream_multisets(col_outputs)
            == stream_multisets(want_outputs)
        )

    def test_explicit_placement(self):
        # Non-contiguous placements (a worker's boxes need not be
        # neighbours in topological order) equal ONE engine over the
        # uncut network; streams with a single producer chain keep full
        # FIFO order as well.
        cases = [
            (
                PIPELINE_SPEC,
                {"stage0": "w0", "stage1": "w1", "stage2": "w0"},
                {"source": source_tuples(30)},
                "sink",
            ),
            (SANDWICH_SPEC, SANDWICH_PLACEMENT, sandwich_traffic(), "mapped"),
        ]
        for spec, placement, traffic, chain_stream in cases:
            want_outputs, want_boxes = single_engine(spec, traffic)
            with ParallelSystem(spec, placement=placement) as system:
                for name, tuples in traffic.items():
                    system.push(name, tuples)
                outputs = system.drain()
                boxes = system.stats()["boxes"]
            assert stream_multisets(outputs) == stream_multisets(want_outputs)
            assert boxes == want_boxes
            assert [t.values for t in outputs[chain_stream]] == [
                t.values for t in want_outputs[chain_stream]
            ]

    def test_placement_must_cover_network(self):
        with pytest.raises(ValueError):
            ParallelSystem(PIPELINE_SPEC, placement={"stage0": "w0"})

    def test_unknown_input_raises(self):
        with ParallelSystem(PIPELINE_SPEC, n_workers=1) as system:
            with pytest.raises(KeyError):
                system.push("nope", source_tuples(1))

    def test_push_before_start_raises(self):
        system = ParallelSystem(PIPELINE_SPEC, n_workers=1)
        with pytest.raises(ParallelError):
            system.push("source", source_tuples(1))

    def test_drain_is_repeatable(self):
        with ParallelSystem(PIPELINE_SPEC, n_workers=2, train_size=10) as system:
            system.push("source", source_tuples(20))
            first = len(system.drain()["sink"])
            system.push("source", source_tuples(20))
            second = len(system.drain()["sink"])
        assert first == 20
        assert second == 40  # outputs accumulate across drains

    def test_shutdown_idempotent(self):
        system = ParallelSystem(PIPELINE_SPEC, n_workers=1).start()
        system.shutdown()
        system.shutdown()


class TestFailurePaths:
    def test_broken_blueprint_surfaces_factory_error(self):
        # The coordinator rebuilds its own network copy up front, so a
        # broken blueprint fails at construction — before any process
        # is spawned — with the factory's own error.
        spec = blueprint("tests.parallel.test_worker_plane:broken_network")
        with pytest.raises(RuntimeError, match="blueprint factory exploded"):
            ParallelSystem(spec, n_workers=1)

    def test_operator_crash_propagates_with_traceback(self):
        spec = blueprint("tests.parallel.test_worker_plane:exploding_network")
        system = ParallelSystem(spec, n_workers=1).start()
        try:
            with pytest.raises(WorkerFailed) as excinfo:
                system.push("source", source_tuples(50))  # v=13 detonates
                system.drain()
            assert "poison tuple" in str(excinfo.value)
        finally:
            system.shutdown()

    def test_worker_logs_written(self, tmp_path):
        spec = blueprint(
            "repro.parallel.blueprints:sleep_pipeline", stages=2, service_us=1.0
        )
        with ParallelSystem(spec, n_workers=2, log_dir=str(tmp_path)) as system:
            system.push("source", source_tuples(10))
            system.drain()
        logs = sorted(p.name for p in tmp_path.glob("*.log"))
        assert logs == ["sleep_pipeline_2-w0.log", "sleep_pipeline_2-w1.log"]
        assert "worker w0 up" in (tmp_path / "sleep_pipeline_2-w0.log").read_text()
