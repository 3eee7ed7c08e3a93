"""Tests for run-time network re-optimization (Section 2.3)."""


from repro.core.engine import AuroraEngine
from repro.core.operators.filter import Filter
from repro.core.operators.map import Map
from repro.core.optimizer import (
    estimated_chain_cost,
    filter_rank,
    mark_commutes_with_map,
    push_filters_before_maps,
    reorder_filter_chains,
    reoptimize,
)
from repro.core.query import QueryNetwork, execute
from repro.core.tuples import make_stream


def filter_chain(costs_and_predicates):
    net = QueryNetwork()
    previous = "in:src"
    for i, (cost, predicate) in enumerate(costs_and_predicates):
        net.add_box(f"f{i}", Filter(predicate, cost_per_tuple=cost))
        net.connect(previous, f"f{i}")
        previous = f"f{i}"
    net.connect(previous, "out:sink")
    return net


def warm(net, n=200):
    stream = make_stream([{"A": i} for i in range(n)])
    return execute(net, {"src": list(stream)})


class TestFilterRank:
    def test_lower_rank_for_more_selective_filter(self):
        net = filter_chain([
            (0.001, lambda t: t["A"] % 10 == 0),   # selectivity 0.1
            (0.001, lambda t: t["A"] % 2 == 0),    # selectivity 0.5
        ])
        warm(net)
        assert filter_rank(net.boxes["f0"]) < filter_rank(net.boxes["f1"])

    def test_nonreducing_filter_ranks_last(self):
        net = filter_chain([(0.001, lambda t: True)])
        warm(net)
        assert filter_rank(net.boxes["f0"]) == float("inf")


class TestReorderFilterChains:
    def test_selective_filter_moves_upstream(self):
        # Expensive non-selective filter first, cheap selective second:
        # the classic wrong order.
        net = filter_chain([
            (0.01, lambda t: t["A"] % 2 == 0),    # sel 0.5, expensive
            (0.001, lambda t: t["A"] % 10 == 0),  # sel 0.2 of remainder, cheap
        ])
        warm(net)
        rewrites = reorder_filter_chains(net)
        assert len(rewrites) == 1
        assert rewrites[0].kind == "reorder-filters"
        # The cheap selective predicate now sits in the first box.
        assert net.boxes["f0"].operator.cost_per_tuple == 0.001

    def test_semantics_preserved(self):
        def build():
            return filter_chain([
                (0.01, lambda t: t["A"] % 2 == 0),
                (0.001, lambda t: t["A"] % 5 == 0),
            ])

        reference = warm(build())
        net = build()
        warm(net)
        reorder_filter_chains(net)
        reresults = warm(net)
        assert [t.values for t in reresults["sink"]] == [
            t.values for t in reference["sink"]
        ]

    def test_well_ordered_chain_untouched(self):
        net = filter_chain([
            (0.001, lambda t: t["A"] % 10 == 0),
            (0.01, lambda t: t["A"] % 2 == 0),
        ])
        warm(net)
        assert reorder_filter_chains(net) == []

    def test_false_port_filters_not_reordered(self):
        net = QueryNetwork()
        net.add_box("f0", Filter(lambda t: t["A"] % 2 == 0, with_false_port=True,
                                 cost_per_tuple=0.01))
        net.add_box("f1", Filter(lambda t: t["A"] % 10 == 0, cost_per_tuple=0.001))
        net.connect("in:src", "f0")
        net.connect(("f0", 0), "f1")
        net.connect(("f0", 1), "out:rejected")
        net.connect("f1", "out:sink")
        warm(net)
        assert reorder_filter_chains(net) == []

    def test_expected_cost_improves(self):
        def build():
            return filter_chain([
                (0.01, lambda t: t["A"] % 2 == 0),
                (0.001, lambda t: t["A"] % 10 == 0),
            ])

        before = build()
        warm(before)
        cost_before = estimated_chain_cost(before, {"src": 100.0})

        after = build()
        warm(after)
        reorder_filter_chains(after)
        warm(after)  # re-measure stats in the new order
        cost_after = estimated_chain_cost(after, {"src": 100.0})
        assert cost_after < cost_before


class TestFilterMapSwap:
    def build(self, declare):
        net = QueryNetwork()
        net.add_box("m", Map(lambda v: dict(v, doubled=v["A"] * 2),
                             cost_per_tuple=0.01))
        selective = Filter(lambda t: t["A"] % 4 == 0, cost_per_tuple=0.001)
        if declare:
            mark_commutes_with_map(selective)
        net.add_box("f", selective)
        net.connect("in:src", "m")
        net.connect("m", "f")
        net.connect("f", "out:sink")
        return net

    def test_declared_filter_moves_before_map(self):
        net = self.build(declare=True)
        warm(net)
        rewrites = push_filters_before_maps(net)
        assert [r.kind for r in rewrites] == ["filter-before-map"]
        assert isinstance(net.boxes["m"].operator, Filter)

    def test_undeclared_filter_stays_put(self):
        net = self.build(declare=False)
        warm(net)
        assert push_filters_before_maps(net) == []

    def test_swap_preserves_output(self):
        reference = warm(self.build(declare=True))
        net = self.build(declare=True)
        warm(net)
        push_filters_before_maps(net)
        again = warm(net)
        assert [t.values for t in again["sink"]] == [
            t.values for t in reference["sink"]
        ]


class TestReoptimizeEndToEnd:
    def test_reoptimize_reduces_engine_time(self):
        def build():
            net = QueryNetwork()
            net.add_box("expensive", Filter(lambda t: t["A"] % 2 == 0,
                                            cost_per_tuple=0.02))
            net.add_box("cheap", Filter(lambda t: t["A"] % 10 == 0,
                                        cost_per_tuple=0.001))
            net.connect("in:src", "expensive")
            net.connect("expensive", "cheap")
            net.connect("cheap", "out:sink")
            return net

        stream = make_stream([{"A": i} for i in range(500)], spacing=0.0)

        def run(net):
            engine = AuroraEngine(net, scheduling_overhead=0.0)
            engine.push_many("src", list(stream))
            engine.run_until_idle()
            return engine

        baseline = run(build())
        optimized_net = build()
        warm(optimized_net)  # gather stats
        rewrites = reoptimize(optimized_net)
        assert rewrites
        optimized = run(optimized_net)
        assert optimized.clock < baseline.clock
        assert [t.values for t in optimized.outputs["sink"]] == [
            t.values for t in baseline.outputs["sink"]
        ]

    def test_reoptimize_under_a_live_fused_engine(self):
        """The swap reaches a running engine's compiled superbox: after
        ``reoptimize(net)`` — nothing else — the engine behaves like a
        fresh one built over the rewritten network."""
        def build():
            net = QueryNetwork()
            net.add_box("weak", Filter(lambda t: t["A"] % 10 != 0,
                                       cost_per_tuple=0.004))
            net.add_box("strong", Filter(lambda t: t["A"] % 10 == 1,
                                         cost_per_tuple=0.001))
            net.connect("in:src", "weak")
            net.connect("weak", "strong")
            net.connect("strong", "out:sink")
            return net

        rows = [{"A": i} for i in range(400)]
        first = make_stream(rows[:200])
        second = make_stream(rows[200:], start_time=1.0)

        def rewritten():
            net = build()
            engine = AuroraEngine(net)
            assert engine.fused_runs() == [["weak", "strong"]]
            engine.push_many("src", list(first))
            engine.run_until_idle()
            assert [str(r) for r in reoptimize(net)] == [
                "reorder-filters(weak <-> strong)"
            ]
            return net, engine

        def second_half(net, engine):
            delivered = len(engine.outputs["sink"])
            engine.push_many("src", list(second))
            engine.run_until_idle()
            return (
                [t.values for t in engine.outputs["sink"][delivered:]],
                {box_id: box.tuples_in for box_id, box in net.boxes.items()},
            )

        live = second_half(*rewritten())
        net, _engine = rewritten()
        fresh = second_half(net, AuroraEngine(net))
        assert live == fresh
        assert live[1] == {"weak": 200, "strong": 20}
        assert len(live[0]) == 20
