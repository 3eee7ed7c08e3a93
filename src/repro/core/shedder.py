"""Load shedder (Section 2.3).

When the QoS monitor reports that the engine cannot keep up, the load
shedder discards tuples "when and where it is appropriate ... in order
to shed load".  Shedding is QoS-aware: drops are applied at network
inputs, and the drop budget is allocated first to the inputs whose
downstream outputs lose the *least* utility per shed tuple (the
flattest loss-QoS graphs, scaled by importance).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import AuroraEngine


class LoadShedder:
    """Input-side probabilistic shedding driven by load and loss-QoS.

    Args:
        target_load: load factor (offered work / capacity) above which
            shedding activates; drops aim to bring effective load back
            to this target.
        seed: RNG seed for the drop coin-flips (deterministic runs).
    """

    def __init__(self, target_load: float = 1.0, seed: int = 0):
        if target_load <= 0:
            raise ValueError("target_load must be positive")
        self.target_load = target_load
        self._rng = random.Random(seed)
        self.drop_probability: dict[str, float] = {}
        self.tuples_dropped = 0

    def update(self, engine: "AuroraEngine") -> None:
        """Recompute per-input drop probabilities from the current load.

        Called periodically by the engine.  With load factor L > target,
        a fraction ``1 - target/L`` of arriving work must be shed; that
        fraction is assigned to inputs in increasing order of the
        utility cost of dropping from them.
        """
        load = engine.load_factor()
        self.drop_probability = {}
        if load <= self.target_load:
            return
        shed_fraction = 1.0 - self.target_load / load
        # Cheapest-to-drop inputs first.
        ranked = sorted(
            engine.network.inputs,
            key=lambda name: self._drop_cost(engine, name),
        )
        if not ranked:
            return
        # Shed the global fraction from the cheapest inputs, never
        # exceeding 95% drop on any single input.
        remaining = shed_fraction * len(ranked)
        for name in ranked:
            p = min(remaining, 0.95)
            if p <= 0:
                break
            self.drop_probability[name] = p
            remaining -= p

    def _drop_cost(self, engine: "AuroraEngine", input_name: str) -> float:
        """Utility lost per unit of delivered-fraction removed from this input."""
        cost = 0.0
        for output in engine.outputs_reachable_from_input(input_name):
            spec = engine.qos_monitor.spec_for(output)
            fraction = engine.qos_monitor.delivered_fraction(output)
            cost += spec.importance * spec.loss.slope_at(fraction)
        return cost

    def admit(self, engine: "AuroraEngine", input_name: str) -> bool:
        """Coin-flip admission for one arriving tuple."""
        p = self.drop_probability.get(input_name, 0.0)
        if p <= 0.0:
            return True
        if self._rng.random() < p:
            self.tuples_dropped += 1
            engine.record_shed(input_name)
            for output in engine.outputs_reachable_from_input(input_name):
                engine.qos_monitor.record_shed(output)
            return False
        return True

    def admit_train(
        self, engine: "AuroraEngine", input_name: str, n: int
    ) -> np.ndarray | None:
        """Coin-flip admission for a whole train of ``n`` arriving tuples.

        Returns the keep-mask, or None when every tuple is admitted.
        Exactly what ``n`` calls of :meth:`admit` decide: no draw at all
        while the input's drop probability is 0, otherwise the same
        ``n`` draws in the same order; drops are accounted once, in bulk.
        """
        p = self.drop_probability.get(input_name, 0.0)
        if p <= 0.0:
            return None
        draw = self._rng.random
        keep = np.fromiter((draw() >= p for _ in range(n)), dtype=bool, count=n)
        dropped = n - int(np.count_nonzero(keep))
        if dropped == 0:
            return None
        self.tuples_dropped += dropped
        engine.record_shed(input_name, dropped)
        for output in engine.outputs_reachable_from_input(input_name):
            engine.qos_monitor.record_shed(output, dropped)
        return keep
