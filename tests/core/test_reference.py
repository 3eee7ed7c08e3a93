"""The reference outside the engine: :mod:`repro.reference`.

``replay`` re-runs an engine's decision log one tuple at a time.  Here
it is held to the engine at the corners the property corpus reaches
only by chance — connection points, spill under fan-in, ``drain_boxes``,
a flush whose windows feed more windows, idle clock jumps, a shedder's
drops and a capacity change mid-run — under every execution mode, and it
refuses a log that spans a rewrite.  Two static checks keep the seam
honest: nothing in ``src/`` but ``core/engine.py`` writes an engine's
clock, and the replay imports none of the engine's machinery.
"""

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.core.columnar import ColumnarTrain, col
from repro.core.engine import AuroraEngine
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map, columnar_map
from repro.core.operators.tumble import Tumble
from repro.core.operators.union import Union
from repro.core.query import QueryNetwork
from repro.core.shedder import LoadShedder
from repro.core.storage import StorageManager
from repro.core.tuples import make_stream
from repro.reference import box_stats, replay

MODES = {
    "fused": {},
    "unfused": {"fusion": False},
    # The per-tuple engine: the one mode the replay also matches on
    # busy_time and latency sums.
    "per_tuple": {"batch_execution": False, "fusion": False},
}


def rows_of(outputs):
    return {
        name: [(t.values, t.timestamp) for t in tuples]
        for name, tuples in outputs.items()
    }


def traffic(stats):
    """The per-box fields no execution mode is exempt from."""
    return {
        box_id: (s.tuples_in, s.tuples_out, s.latency_count)
        for box_id, s in stats.items()
    }


def logged(build, mode, **engine_args):
    engine = AuroraEngine(build(), **MODES[mode], **engine_args)
    engine.decision_log = []
    return engine


def assert_replays(engine, build, mode):
    """The engine's run is the replay of its own log on a fresh twin."""
    result = replay(build(), engine.decision_log)
    assert rows_of(engine.outputs) == rows_of(result.outputs)
    assert engine.clock == result.clock
    assert engine.steps == result.steps
    stats = box_stats(engine.network)
    if mode == "per_tuple":
        assert stats == result.boxes
    else:
        assert traffic(stats) == traffic(result.boxes)
    return result


def rows(n, start=0, spacing=0.01, start_time=0.0):
    return make_stream(
        [{"G": i % 3, "A": i} for i in range(start, start + n)],
        start_time=start_time, spacing=spacing,
    )


def connection_points():
    """Connection points on an input arc, an interior arc and an output
    arc; fan-in at a Union; a pass-through stream."""
    net = QueryNetwork()
    net.add_box("f", Filter(col("A") % 3 != 0, cost_per_tuple=0.002))
    net.add_box("m", columnar_map({"G": col("G"), "A": col("A") * 2}, cost_per_tuple=0.001))
    net.add_box("u", Union(2, cost_per_tuple=0.0005))
    net.connect("in:src", "f", connection_point=True)
    net.connect("f", "m", connection_point=True)
    net.connect("m", ("u", 0))
    net.connect("in:side", ("u", 1))
    net.connect("u", "out:sink", connection_point=True)
    net.connect("in:raw", "out:copy")
    return net


@pytest.mark.parametrize("mode", sorted(MODES))
def test_connection_points_fan_in_and_pass_through(mode):
    engine = logged(connection_points, mode, train_size=4, scheduling_overhead=0.001)
    for burst in range(4):
        start = 10 * burst
        engine.push_train("src", ColumnarTrain.from_tuples(rows(10, start, start_time=burst)))
        engine.push_many("side", rows(6, start, spacing=0.015, start_time=burst))
        for tup in rows(3, start, start_time=burst):
            engine.push("raw", tup)
        engine.step()
    engine.run_until_idle()
    engine.flush()
    result = assert_replays(engine, connection_points, mode)
    assert len(result.outputs["sink"]) > 0 and len(result.outputs["copy"]) == 12


def chain():
    net = QueryNetwork()
    net.add_box("a", Filter(lambda t: t["A"] % 4 != 0, cost_per_tuple=0.002))
    net.add_box("b", Map(lambda v: {"G": v["G"], "A": v["A"] + 1}, cost_per_tuple=0.001))
    net.add_box("t", Tumble("sum", groupby=("G",), value_attr="A", mode="count",
                            window_size=4, cost_per_tuple=0.003))
    net.add_box("t2", Tumble("max", groupby=("G",), value_attr="result", mode="count",
                             window_size=3, cost_per_tuple=0.001))
    net.connect("in:src", "a")
    net.connect("a", "b")
    net.connect("b", "t")
    net.connect("t", "t2")
    net.connect("t2", "out:sink")
    return net


@pytest.mark.parametrize("mode", sorted(MODES))
def test_drain_boxes_and_a_flush_whose_windows_feed_windows(mode):
    engine = logged(chain, mode, train_size=5, scheduling_overhead=0.001)
    engine.push_many("src", rows(40))
    engine.step()
    assert engine.drain_boxes(["a", "b"]) > 0
    engine.push_train("src", ColumnarTrain.from_tuples(rows(30, 40, start_time=1.0)))
    engine.run_until_idle()
    before = len(engine.outputs["sink"])
    engine.flush()
    assert len(engine.outputs["sink"]) > before
    assert any(entry[0] == "flush" for entry in engine.decision_log)
    assert_replays(engine, chain, mode)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_idle_jumps_capacity_changes_and_shed_rows(mode):
    shedder = LoadShedder(seed=3)
    engine = logged(chain, mode, train_size=6, shedder=shedder)
    shedder.drop_probability = {"src": 0.3}
    for burst in range(6):
        start_time = 0.5 * burst
        engine.run_until(start_time)
        if burst == 3:
            engine.cpu_capacity = 0.25
        for tup in rows(8, 8 * burst, start_time=start_time):
            engine.push("src", tup)
        engine.push_train(
            "src", ColumnarTrain.from_tuples(rows(8, 100 + 8 * burst, start_time=start_time))
        )
    engine.run_until(10.0)
    assert engine.clock == 10.0
    engine.flush()
    kinds = {entry[0] for entry in engine.decision_log}
    assert {"ingest", "step", "train", "rebalance", "flush", "until"} <= kinds
    assert shedder.tuples_dropped > 0
    assert_replays(engine, chain, mode)


def fan_in():
    net = QueryNetwork()
    net.add_box("x", Filter(col("A") % 5 != 0, cost_per_tuple=0.002))
    net.add_box("y", Map(lambda v: dict(v), cost_per_tuple=0.001))
    net.add_box("u", Union(2, cost_per_tuple=0.001))
    net.connect("in:a", "x")
    net.connect("in:b", "y")
    net.connect("x", ("u", 0))
    net.connect("y", ("u", 1))
    net.connect("u", "out:sink")
    return net


@pytest.mark.parametrize("mode", sorted(MODES))
def test_spill_under_fan_in(mode):
    storage = StorageManager(memory_budget=15, write_cost=0.0002, read_cost=0.0003)
    engine = logged(fan_in, mode, train_size=7, storage=storage, push_trains=False)
    for burst in range(6):
        engine.push_train("a", ColumnarTrain.from_tuples(rows(12, 12 * burst, 0.001)))
        engine.push_many("b", rows(9, 12 * burst, 0.002))
        engine.step()
    engine.run_until_idle()
    engine.flush()
    replayed = assert_replays(engine, fan_in, mode).storage
    assert replayed.tuples_spilled > 0 and replayed.tuples_unspilled > 0
    assert replayed.tuples_unspilled == engine.storage.tuples_unspilled
    assert replayed.io_time == engine.storage.io_time


def test_a_log_that_spans_a_rewrite_is_refused():
    engine = logged(chain, "fused")
    engine.push_many("src", rows(10))
    engine.run_until_idle()
    assert replay(chain(), engine.decision_log).steps == engine.steps
    engine.network.add_box("spare", Map(lambda v: dict(v)))
    engine.network.connect("in:more", "spare")
    engine.network.connect("spare", "out:more")
    engine.push_many("more", rows(3))
    with pytest.raises(ValueError, match="revision"):
        replay(chain(), engine.decision_log)
    touched = logged(chain, "fused")
    touched.invalidate_caches()
    with pytest.raises(ValueError, match="revision"):
        replay(chain(), touched.decision_log)


def test_the_log_is_off_unless_a_caller_sets_it():
    engine = AuroraEngine(chain())
    assert engine.decision_log is None
    assert "decision_log" not in inspect.signature(AuroraEngine).parameters
    engine.push_many("src", rows(10))
    engine.run_until_idle()
    assert engine.decision_log is None


SRC = Path(repro.__file__).parent


def test_nothing_outside_the_engine_writes_its_clock():
    """Only ``core/engine.py`` assigns an engine's ``.clock``: a caller
    that wants time to pass calls ``run_until``.  A class keeps its own
    ``self.clock``; any other ``<expr>.clock`` target, or a
    ``setattr(..., "clock", ...)``, is a write from outside."""
    writers = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "core" / "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "clock"
                        and not (isinstance(target.value, ast.Name) and target.value.id == "self")
                    ):
                        writers.append(f"{path.relative_to(SRC)}:{node.lineno}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "setattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "clock"
            ):
                writers.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert writers == []


def test_the_replay_imports_no_engine_machinery():
    tree = ast.parse((SRC / "reference.py").read_text())
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    } | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert "repro.core.query" in imported
    assert not imported & {
        "repro.core.engine", "repro.core.scheduler", "repro.core.fusion", "numpy",
    }
