"""Property-based tests for the transport layer invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.transport import (
    SETUP_OVERHEAD,
    MultiplexedTransport,
    PerStreamTransport,
    StreamMessage,
)

streams_strategy = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.integers(1, 40),
    min_size=1,
    max_size=4,
)


class TestConservation:
    @given(loads=streams_strategy, duration=st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_mux_never_exceeds_link_capacity(self, loads, duration):
        transport = MultiplexedTransport(bandwidth=1000.0, framing_overhead=4)
        for stream, count in loads.items():
            for _ in range(count):
                transport.enqueue(StreamMessage(stream, 50))
        stats = transport.run(duration)
        wire_bytes = sum(stats.delivered_bytes.values()) + stats.overhead_bytes
        assert wire_bytes <= 1000.0 * duration + 1e-6

    @given(loads=streams_strategy, duration=st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_per_stream_never_exceeds_link_capacity(self, loads, duration):
        transport = PerStreamTransport(bandwidth=1000.0, header_overhead=10)
        for stream, count in loads.items():
            for _ in range(count):
                transport.enqueue(StreamMessage(stream, 50))
        stats = transport.run(duration)
        wire_bytes = sum(stats.delivered_bytes.values()) + stats.overhead_bytes
        # Setup overhead is control-plane, excluded from the data pipe.
        setup = stats.connections_used * SETUP_OVERHEAD
        assert wire_bytes - setup <= 1000.0 * duration + 1e-6

    @given(loads=streams_strategy)
    @settings(max_examples=40, deadline=None)
    def test_nothing_lost_only_delayed(self, loads):
        """TCP-like transports never drop: given enough time, every
        enqueued message is delivered exactly once."""
        total = sum(loads.values())
        for transport in (
            MultiplexedTransport(bandwidth=1e6),
            PerStreamTransport(bandwidth=1e6),
        ):
            for stream, count in loads.items():
                for _ in range(count):
                    transport.enqueue(StreamMessage(stream, 50))
            stats = transport.run(duration=1000.0)
            assert sum(stats.delivered_messages.values()) == total

    @given(loads=streams_strategy)
    @settings(max_examples=30, deadline=None)
    def test_shares_sum_to_one(self, loads):
        transport = MultiplexedTransport(bandwidth=1e6)
        for stream, count in loads.items():
            for _ in range(count):
                transport.enqueue(StreamMessage(stream, 50))
        stats = transport.run(duration=1000.0)
        assert sum(stats.share(s) for s in loads) == pytest.approx(1.0)

    @given(
        weights=st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.floats(0.5, 8.0),
            min_size=2, max_size=3,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_mux_shares_track_arbitrary_weights(self, weights):
        transport = MultiplexedTransport(
            bandwidth=100_000.0, weights=weights, framing_overhead=0
        )
        # Weighted sharing is only defined under continuous backlog
        # (WFQ is work-conserving): enqueue more than the link can
        # possibly drain for every stream.
        for stream in weights:
            for _ in range(6000):
                transport.enqueue(StreamMessage(stream, 100))
        stats = transport.run(duration=5.0)
        total_weight = sum(weights.values())
        for stream, weight in weights.items():
            assert stats.share(stream) == pytest.approx(
                weight / total_weight, abs=0.05
            )
