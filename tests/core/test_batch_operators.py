"""Batch ≡ scalar equivalence for every operator.

``Operator.process_batch`` contracts to produce exactly what looping
``process`` over the train would: same emissions, same order, same
timestamps, same internal state and counters.  These tests drive both
paths over a seeded corpus of random streams (replay a failure by
``(SEED, index)`` alone, per the repo's property-test idiom), with
random train partitions, mid-train flushes, and multi-port
interleaving for Union and Join.
"""

import random

from repro.core.operators.case_filter import CaseFilter
from repro.core.operators.filter import Filter
from repro.core.operators.join import equijoin
from repro.core.operators.map import Map
from repro.core.operators.resample import Resample
from repro.core.operators.tumble import Tumble
from repro.core.operators.union import Union
from repro.core.operators.windows import Slide, XSection
from repro.core.operators.wsort import WSort
from repro.core.tuples import make_stream

SEED = 0xBA7C4  # fixed corpus seed: every run sees the same streams
N_STREAMS = 50


def random_streams(seed=SEED, n=N_STREAMS, max_len=60):
    """The deterministic corpus: n random (index, rng, stream) triples.

    Each stream comes with its own ``random.Random`` (seeded from the
    corpus seed and the index) so tests can draw train partitions
    without disturbing the corpus itself.
    """
    corpus = random.Random(seed)
    for index in range(n):
        rows = [
            {"A": corpus.randint(0, 5), "B": corpus.randint(0, 9)}
            for _ in range(corpus.randint(0, max_len))
        ]
        yield index, random.Random(seed * 1009 + index), make_stream(rows)


def fresh_operators():
    """Factories for every deterministic operator under test.

    Covers the vectorized fast paths (Filter, Map, Union, CaseFilter,
    Tumble, Join) and the default fallback (Resample, WSort, XSection,
    Slide) alike — the contract is the same either way.
    """
    return {
        "filter": lambda: Filter(lambda t: t["A"] % 2 == 0),
        "filter-false-port": lambda: Filter(
            lambda t: t["A"] % 2 == 0, with_false_port=True
        ),
        "map": lambda: Map(lambda v: {"A": v["A"] * 3, "B": v["B"] - 1}),
        "union": lambda: Union(1),
        "case": lambda: CaseFilter([lambda t: t["A"] < 2, lambda t: t["B"] < 5]),
        "case-else": lambda: CaseFilter(
            [lambda t: t["A"] < 2, lambda t: t["B"] < 5], with_else_port=True
        ),
        "tumble-run": lambda: Tumble("sum", groupby=("A",), value_attr="B"),
        "tumble-count": lambda: Tumble(
            "cnt", groupby=("A",), value_attr="B", mode="count", window_size=3
        ),
        "tumble-timeout": lambda: Tumble(
            "sum", groupby=("A",), value_attr="B", timeout=2.5
        ),
        "join": lambda: equijoin("A", window=8),
        "resample": lambda: Resample("B", interval=1.0),
        "wsort": lambda: WSort(("B",), timeout=4.0),
        "xsection": lambda: XSection("max", groupby=("A",), value_attr="B", size=4),
        "slide": lambda: Slide("min", groupby=("A",), value_attr="B", size=3),
    }


def partition(rng, stream):
    """Split a stream into random-size trains (1..len), seeded."""
    trains = []
    i = 0
    while i < len(stream):
        n = rng.randint(1, max(1, len(stream) - i))
        trains.append(stream[i : i + n])
        i += n
    return trains


def canon(emissions):
    """Emissions as comparable values: (port, values, timestamp)."""
    return [(p, t.values, t.timestamp) for p, t in emissions]


def drive_scalar(op, port_batches):
    out = []
    for port, batch in port_batches:
        for tup in batch:
            out.extend(op.process(tup, port=port))
    return canon(out)


def drive_batch(op, port_batches):
    out = []
    for port, batch in port_batches:
        out.extend(op.process_batch(batch, port=port))
    return canon(out)


def assert_same_state(name, index, scalar_op, batch_op):
    assert scalar_op.snapshot() == batch_op.snapshot(), (
        f"{name}: internal state diverged on stream {index}"
    )
    assert canon(scalar_op.flush()) == canon(batch_op.flush()), (
        f"{name}: flush output diverged on stream {index}"
    )


class TestBatchEqualsScalar:
    def test_every_operator_over_random_trains(self):
        """Random train partitions of the same stream: identical
        emissions (order, timestamps) and identical final state."""
        factories = fresh_operators()
        for index, rng, stream in random_streams():
            trains = [(0, batch) for batch in partition(rng, stream)]
            for name, make in factories.items():
                scalar_op, batch_op = make(), make()
                assert drive_scalar(scalar_op, trains) == drive_batch(
                    batch_op, trains
                ), f"{name}: emissions diverged on stream {index}"
                assert_same_state(name, index, scalar_op, batch_op)

    def test_whole_stream_as_one_train(self):
        """Degenerate partitions: the whole stream in a single batch."""
        factories = fresh_operators()
        for index, _rng, stream in random_streams(n=15):
            trains = [(0, stream)]
            for name, make in factories.items():
                scalar_op, batch_op = make(), make()
                assert drive_scalar(scalar_op, trains) == drive_batch(
                    batch_op, trains
                ), f"{name}: one-train emissions diverged on stream {index}"
                assert_same_state(name, index, scalar_op, batch_op)

    def test_mid_train_flush(self):
        """flush() between two batches sees the same buffered state on
        both paths and leaves both able to continue identically."""
        factories = fresh_operators()
        for index, rng, stream in random_streams(n=15, max_len=40):
            cut = rng.randint(0, len(stream))
            first, second = stream[:cut], stream[cut:]
            for name, make in factories.items():
                scalar_op, batch_op = make(), make()
                scalar_out = drive_scalar(scalar_op, [(0, first)])
                batch_out = drive_batch(batch_op, [(0, first)])
                scalar_out += canon(scalar_op.flush())
                batch_out += canon(batch_op.flush())
                scalar_out += drive_scalar(scalar_op, [(0, second)])
                batch_out += drive_batch(batch_op, [(0, second)])
                scalar_out += canon(scalar_op.flush())
                batch_out += canon(batch_op.flush())
                assert scalar_out == batch_out, (
                    f"{name}: mid-train flush diverged on stream {index}"
                )

    def test_multi_port_union_and_join(self):
        """Interleaved trains across ports hit the same buffers in the
        same order on both paths."""
        for index, rng, stream in random_streams(n=20, max_len=40):
            port_batches = [
                (rng.randint(0, 1), batch) for batch in partition(rng, stream)
            ]
            union_scalar, union_batch = Union(2), Union(2)
            assert drive_scalar(union_scalar, port_batches) == drive_batch(
                union_batch, port_batches
            ), f"union: multi-port emissions diverged on stream {index}"

            join_scalar, join_batch = equijoin("A", window=6), equijoin("A", window=6)
            assert drive_scalar(join_scalar, port_batches) == drive_batch(
                join_batch, port_batches
            ), f"join: multi-port emissions diverged on stream {index}"
            assert join_scalar.snapshot() == join_batch.snapshot(), (
                f"join: buffers diverged on stream {index}"
            )

    def test_counters_match(self):
        """Operator-level statistics update identically on both paths."""
        for index, rng, stream in random_streams(n=15):
            trains = [(0, batch) for batch in partition(rng, stream)]

            scalar_case = CaseFilter(
                [lambda t: t["A"] < 2, lambda t: t["B"] < 5], with_else_port=True
            )
            batch_case = scalar_case.clone()
            drive_scalar(scalar_case, trains)
            drive_batch(batch_case, trains)
            assert scalar_case.routed == batch_case.routed, (
                f"case: routed counters diverged on stream {index}"
            )
            assert scalar_case.dropped == batch_case.dropped, (
                f"case: dropped counters diverged on stream {index}"
            )

            scalar_tumble = Tumble("sum", groupby=("A",), value_attr="B")
            batch_tumble = Tumble("sum", groupby=("A",), value_attr="B")
            drive_scalar(scalar_tumble, trains)
            drive_batch(batch_tumble, trains)
            assert scalar_tumble.windows_emitted == batch_tumble.windows_emitted, (
                f"tumble: windows_emitted diverged on stream {index}"
            )

    def test_empty_train_is_a_noop(self):
        for name, make in fresh_operators().items():
            op = make()
            assert op.process_batch([], port=0) == [], f"{name}: empty train emitted"
