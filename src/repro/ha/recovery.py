"""Failure detection and recovery (Section 6.3) and experiment harness.

"In the recovery phase, the back-up server itself immediately starts
processing the tuples in its output log, emulating the processing of
the failed server for the tuples that were still being processed at the
failed server."

Recovery here rebuilds the failed server in place from its upstream
backups: the failed server's pipeline is reset, and every upstream
(source or server) replays its retained output log through it.
Deterministic processing regenerates identical sequence numbers, so
downstream servers discard the duplicates and only genuinely lost
tuples are re-delivered — no message is lost as long as at most ``k``
servers failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ha.chain import ServerChain
from repro.ha.flow import FlowProtocol


class RecoveryError(RuntimeError):
    """Raised when recovery cannot proceed (e.g., upstream also failed)."""


@dataclass
class RecoveryStats:
    """What one recovery pass cost."""

    servers_recovered: list[str] = field(default_factory=list)
    tuples_replayed: int = 0
    tuples_reprocessed: int = 0
    duplicates_dropped: int = 0
    recovery_messages: int = 0


def fail_server(chain: ServerChain, name: str) -> None:
    """Crash-stop a server: state gone, wire traffic to/from it lost."""
    chain.servers[name].fail()
    chain.drop_in_flight(name)


def recover(chain: ServerChain) -> RecoveryStats:
    """Detect (via heartbeats) and recover every failed server.

    Servers are rebuilt in topological order so that a recovered server
    can serve as the replay source for the next one downstream —
    this is what makes k consecutive failures recoverable with k-deep
    retention.
    """
    stats = RecoveryStats()
    detections = chain.heartbeat_round()
    failed = sorted({dst for _src, dst in detections})
    if not failed:
        return stats

    order = _topological_servers(chain)
    before_processed = _total_processed(chain)
    before_duplicates = _total_duplicates(chain)
    before_messages = chain.data_messages

    for name in order:
        server = chain.servers[name]
        if not server.failed:
            continue
        for upstream in chain.upstreams(name):
            if chain.node(upstream).failed:
                raise RecoveryError(
                    f"cannot recover {name!r}: upstream {upstream!r} also failed "
                    "(recover in topological order)"
                )
        # Recovery handshake: ask each downstream for the highest seq it
        # received from the failed server, so renumbering stays monotone
        # (two messages per downstream neighbor).
        next_seq = 0
        for downstream in chain.downstreams(name):
            received = chain.servers[downstream].last_received.get(name, -1)
            next_seq = max(next_seq, received + 1)
            stats.recovery_messages += 2
        if chain.is_terminal(name):
            # The application is the "downstream" of a terminal server.
            next_seq = max(next_seq, chain.app_last_seq(name) + 1)
            stats.recovery_messages += 2
        server.rebuild(next_seq=next_seq)
        # Replay each upstream's retained log from the replay floor:
        # tuples whose effects are already fully reflected at every
        # surviving downstream point need not (and must not, for
        # windowed operators' alignment) be re-processed.
        for upstream in chain.upstreams(name):
            floor = _replay_floor(chain, name, upstream)
            for seq, tup in list(chain.node(upstream).output_log):
                if seq <= floor:
                    continue
                chain.transmit(upstream, name, tup)
                stats.tuples_replayed += 1
        chain.pump()
        stats.servers_recovered.append(name)

    stats.tuples_reprocessed = _total_processed(chain) - before_processed
    stats.duplicates_dropped = _total_duplicates(chain) - before_duplicates
    stats.recovery_messages += chain.data_messages - before_messages
    return stats


def _replay_floor(chain: ServerChain, failed: str, origin: str) -> int:
    """Highest origin-seq fully absorbed along *every* downstream path.

    Consults the failed server's downstream neighbors' absorption
    watermarks *for the edge arriving from the failed server*
    (recursing past neighbors that also failed, down to the
    application's watermark at terminals).  The per-sender keying
    matters on branching DAGs: a sibling branch may carry an origin's
    watermark far past what ever flowed through the failed server, and
    using that merged value would skip replaying tuples the failed
    branch still owes downstream.  Replay starts just above the
    returned floor; -1 means replay everything retained.
    """
    if chain.is_terminal(failed):
        return chain.app_absorbed.get(failed, {}).get(origin, -1)
    floors = []
    for downstream in chain.downstreams(failed):
        neighbor = chain.servers[downstream]
        if neighbor.failed:
            floors.append(_replay_floor(chain, downstream, origin))
        else:
            floors.append(neighbor.absorbed.get(failed, {}).get(origin, -1))
    return min(floors) if floors else -1


def _topological_servers(chain: ServerChain) -> list[str]:
    indegree = {name: 0 for name in chain.servers}
    for src, dsts in chain.edges.items():
        for dst in dsts:
            if src in chain.servers:
                indegree[dst] += 1
    ready = sorted(
        name
        for name in chain.servers
        if all(up in chain.sources for up in chain.upstreams(name))
    )
    order: list[str] = []
    seen = set(ready)
    while ready:
        name = ready.pop(0)
        order.append(name)
        for succ in chain.edges.get(name, []):
            indegree[succ] -= 1
            if indegree[succ] == 0 and succ not in seen:
                seen.add(succ)
                ready.append(succ)
    return order


def _total_processed(chain: ServerChain) -> int:
    return sum(s.tuples_processed for s in chain.servers.values())


def _total_duplicates(chain: ServerChain) -> int:
    return sum(s.duplicates_dropped for s in chain.servers.values())


@dataclass
class ExperimentResult:
    """Outcome of one failure-injection experiment."""

    delivered_without_failure: int
    delivered_with_failure: int
    lost_messages: int
    recovery: RecoveryStats
    flow_messages: int
    ack_messages: int
    data_messages: int
    peak_log_size: int


def run_failure_experiment(
    build_chain,
    n_tuples: int,
    fail_at: int,
    fail_servers: list[str],
    flow_every: int = 10,
) -> ExperimentResult:
    """Inject failures mid-stream and measure loss and recovery cost.

    Args:
        build_chain: zero-argument factory returning a fresh
            :class:`ServerChain` with a single source named "src".
        n_tuples: total tuples pushed through the chain.
        fail_at: tuple index at which the failures strike.
        fail_servers: servers to crash simultaneously.
        flow_every: a flow round runs every this-many tuples
            (controls how aggressively queues truncate).

    The delivered output compared is the chain's unique terminal's.

    The headline metric is ``lost_messages``: output tuples (compared
    as a value multiset, so corrupted window contents register as loss
    even when output *counts* coincide) that the failure-free run
    delivered and the failure run did not.  The paper's k-safety claim
    is ``lost_messages == 0`` whenever ``len(fail_servers) <= k``.
    """
    from collections import Counter

    def drive(chain: ServerChain, inject_failure: bool):
        protocol = FlowProtocol(chain)
        term = chain.terminal()
        peak_log = 0
        recovery = RecoveryStats()
        for i in range(n_tuples):
            if inject_failure and i == fail_at:
                for name in fail_servers:
                    fail_server(chain, name)
                recovery = recover(chain)
            chain.push("src", i)
            chain.pump()
            if flow_every and (i + 1) % flow_every == 0:
                protocol.round()
            peak_log = max(peak_log, chain.total_log_size())
        values = Counter(repr(t.value) for t in chain.delivered.get(term, []))
        return values, peak_log, recovery

    baseline_chain = build_chain()
    baseline_values, _peak, _r = drive(baseline_chain, inject_failure=False)

    chain = build_chain()
    delivered_values, peak_log, recovery = drive(chain, inject_failure=True)

    lost = baseline_values - delivered_values
    return ExperimentResult(
        delivered_without_failure=sum(baseline_values.values()),
        delivered_with_failure=sum(delivered_values.values()),
        lost_messages=sum(lost.values()),
        recovery=recovery,
        flow_messages=chain.flow_messages,
        ack_messages=chain.ack_messages,
        data_messages=chain.data_messages,
        peak_log_size=peak_log,
    )
