"""Query networks the end-to-end benchmark runs.

Each builder returns a fresh network (operators carry state), so the
measured system and the reference it is checked against never share a
box.  ``row_chain`` is also a spawn-safe blueprint target
(``"benchmarks.e2e.networks:row_chain"``): worker processes of the
parallel plane rebuild it by import path.
"""

from __future__ import annotations

from repro.core.columnar import col
from repro.core.operators.case_filter import CaseFilter
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map, columnar_map
from repro.core.operators.tumble import Tumble
from repro.core.query import QueryNetwork

ROW_INPUT = "requests"
COLUMNAR_INPUT = "src"
COUNT_WINDOW = 8


def row_fanout() -> QueryNetwork:
    """Opaque-lambda 3-way fan-out -> Map shards -> count-mode Tumble.

    Nothing here compiles to a column kernel, so every tuple pays the
    scheduler, the claim/account/emit bookkeeping and a Python call per
    box (the ``flash_crowd`` topology without its traffic model).
    """
    net = QueryNetwork("e2e_row_fanout")
    net.add_box("route", CaseFilter(
        [lambda t: t["key"] % 3 == 0, lambda t: t["key"] % 3 == 1, lambda t: True],
        names=["s0", "s1", "s2"], cost_per_tuple=0.0006,
    ))
    net.connect(f"in:{ROW_INPUT}", "route")
    for shard in range(3):
        net.add_box(f"shard{shard}",
                    Map(lambda v: {**v, "served": True}, cost_per_tuple=0.0006))
        net.connect(("route", shard), f"shard{shard}")
    net.add_box("hot", Tumble("cnt", groupby=("key",), value_attr="req",
                              mode="count", window_size=COUNT_WINDOW,
                              cost_per_tuple=0.002))
    net.connect("shard0", "hot")
    net.connect("hot", "out:hot_counts")
    net.connect("shard1", "out:served1")
    net.connect("shard2", "out:served2")
    return net


def columnar_chain() -> QueryNetwork:
    """Five compiled stateless stages ending in a run-mode Tumble(sum).

    Every stage has a column kernel, so superbox compilation fuses the
    whole chain through the window and a train is array ops end to end.
    """
    net = QueryNetwork("e2e_columnar_chain")
    stages = [
        ("f1", Filter(col("A") % 17 != 0, cost_per_tuple=0.0005)),
        ("m1", columnar_map({"G": col("G"), "A": col("A") + 1}, cost_per_tuple=0.0005)),
        ("f2", Filter(col("A") < 90, cost_per_tuple=0.0005)),
        ("m2", columnar_map({"G": col("G"), "A": col("A") * 2}, cost_per_tuple=0.0005)),
        ("f3", Filter(col("A") % 7 != 0, cost_per_tuple=0.0005)),
        ("w", Tumble("sum", groupby=("G",), value_attr="A", result_attr="A",
                     cost_per_tuple=0.001)),
    ]
    prev = f"in:{COLUMNAR_INPUT}"
    for box_id, operator in stages:
        net.add_box(box_id, operator)
        net.connect(prev, box_id)
        prev = box_id
    net.connect(prev, "out:agg")
    return net


def star_chain() -> QueryNetwork:
    """Filter -> Map -> count-mode Tumble, one box per Aurora* node."""
    net = QueryNetwork("e2e_star_chain")
    net.add_box("f", Filter(lambda t: t["v"] % 5 != 0, cost_per_tuple=0.0001))
    net.add_box("m", Map(lambda v: {"key": v["key"], "v": v["v"] + 1},
                         cost_per_tuple=0.0001))
    net.add_box("w", Tumble("sum", groupby=("key",), value_attr="v",
                            mode="count", window_size=COUNT_WINDOW,
                            cost_per_tuple=0.0002))
    net.connect(f"in:{ROW_INPUT}", "f")
    net.connect("f", "m")
    net.connect("m", "w")
    net.connect("w", "out:sums")
    return net


STAR_PLACEMENT = {"f": "n0", "m": "n1", "w": "n2"}


def row_chain() -> QueryNetwork:
    """Filter -> Map -> Filter -> Map with trivial operator cost, so the
    parallel plane's codec, IPC queues and fence protocol dominate."""
    net = QueryNetwork("e2e_row_chain")
    net.add_box("f1", Filter(lambda t: t["v"] % 10 != 0, cost_per_tuple=0.0001))
    net.add_box("m1", Map(lambda v: {"key": v["key"], "v": v["v"] + 1},
                          cost_per_tuple=0.0001))
    net.add_box("f2", Filter(lambda t: t["key"] % 7 != 0, cost_per_tuple=0.0001))
    net.add_box("m2", Map(lambda v: {"key": v["key"], "v": v["v"] * 2},
                          cost_per_tuple=0.0001))
    net.connect(f"in:{ROW_INPUT}", "f1")
    net.connect("f1", "m1")
    net.connect("m1", "f2")
    net.connect("f2", "m2")
    net.connect("m2", "out:sink")
    return net


# 2+2 so the f2 input arc crosses from w0 to w1 and carries real frames.
ROW_CHAIN_PLACEMENT = {"f1": "w0", "m1": "w0", "f2": "w1", "m2": "w1"}
