"""Operator base classes.

An operator ("box" in the paper's boxes-and-arrows vocabulary) consumes
tuples from one or more input ports and emits tuples on one or more
output ports.  Operators are *incremental*: they are handed one tuple at
a time and may buffer internally (windowed operators do).

Emissions are ``(out_port, StreamTuple)`` pairs so multi-output
operators (e.g. Filter's optional false-port) are uniform with
single-output ones.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any

from repro.core.tuples import StreamTuple

if TYPE_CHECKING:
    from repro.core.columnar import ColumnarTrain

Emission = tuple[int, StreamTuple]
TrainEmission = tuple[int, "ColumnarTrain"]


class Operator:
    """Abstract base for all Aurora boxes.

    Attributes:
        arity: number of input ports.
        n_outputs: number of output ports.
        cost_per_tuple: estimated CPU cost (virtual seconds) to process
            one input tuple.  Used by the scheduler, load-share daemon
            (Section 5) and QoS inference (Section 7.1, the T_B term).
        fusable: True for stateless, order-preserving, single-input
            operators that superbox compilation (repro.core.fusion) may
            fuse into a linear chain.  Opt-in per operator class.
    """

    arity: int = 1
    n_outputs: int = 1
    fusable: bool = False

    def __init__(self, cost_per_tuple: float = 0.001):
        if cost_per_tuple < 0:
            raise ValueError("cost_per_tuple must be non-negative")
        self.cost_per_tuple = cost_per_tuple

    def process(self, tup: StreamTuple, port: int = 0) -> list[Emission]:
        """Consume one input tuple; return emissions."""
        raise NotImplementedError

    def process_batch(self, tuples: list[StreamTuple], port: int = 0) -> list[Emission]:
        """Consume a whole tuple train on one port; return its emissions.

        The contract is exact equivalence with the scalar path: the
        returned list is what concatenating ``process(t, port)`` over
        ``tuples`` in order would produce, including emission order and
        any internal-state / counter updates.  This default does exactly
        that loop; hot operators override it with a vectorized fast path
        that hoists per-tuple lookups and builds the output in one pass
        (the engine's train scheduling then amortizes *execution*, not
        just scheduling decisions).
        """
        emissions: list[Emission] = []
        extend = emissions.extend
        process = self.process
        for tup in tuples:
            extend(process(tup, port=port))
        return emissions

    @property
    def supports_columnar(self) -> bool:
        """True when :meth:`process_columnar` has a kernel to try.

        Stateless operators require a *compiled* configuration
        (declarative predicates and map bodies from
        :mod:`repro.core.columnar`).  Windowed operators (Tumble, Slide,
        WSort) ship columnar window kernels and return True.  Opaque
        lambdas and the remaining stateful operators return False and
        never see a ColumnarTrain.
        """
        return False

    def process_columnar(
        self, train: "ColumnarTrain", port: int = 0
    ) -> list[TrainEmission] | None:
        """Consume a whole columnar train: exact, or decline.

        Returns per-port sub-trains holding exactly the tuples (same
        values, same metadata, same relative order) the list path would
        emit on each port, with identical counter/state side effects —
        or None, meaning "declined, no state touched": the caller then
        materializes the claim and runs :meth:`process_batch`, so the
        decision where a train becomes rows is the engine's alone.
        Only called when :attr:`supports_columnar` is True.
        """
        return None

    def flush(self) -> list[Emission]:
        """Drain windowed state at end-of-stream.  Stateless ops emit nothing."""
        return []

    # -- state migration (box sliding / splitting, Section 5.1) ----------

    @property
    def stateful(self) -> bool:
        """True if the operator holds cross-tuple state."""
        return False

    def snapshot(self) -> Any:
        """Serializable copy of internal state (None for stateless ops)."""
        return None

    def restore(self, state: Any) -> None:
        """Install state captured by :meth:`snapshot` on a fresh instance."""
        if state is not None:
            raise ValueError(f"{type(self).__name__} is stateless; got state {state!r}")

    def clone(self) -> "Operator":
        """A fresh instance with the same configuration and *no* state.

        Used by box splitting (Section 5.1) to create the copy that runs
        on the second machine.
        """
        fresh = copy.copy(self)
        if fresh.stateful:
            fresh.reset()
        return fresh

    def reset(self) -> None:
        """Discard internal state (no-op for stateless operators)."""

    def describe(self) -> str:
        """Human-readable one-line description for catalogs."""
        return type(self).__name__

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


class StatelessOperator(Operator):
    """Base for operators with no cross-tuple state.

    Stateless operators can be slid between machines without the
    snapshot/restore handshake, and — relevant to Section 6.2's queue
    truncation — the earliest tuple they "depend on" is simply the most
    recently processed one.
    """

    def clone(self) -> "Operator":
        return copy.copy(self)
