"""Skewed key populations: the reusable heart of every skewed workload.

Every domain generator (hot sensors, hot stock symbols, heavy-hitter
hosts) needs the same three things: a key universe, a Zipf popularity
law over it, and deterministic sampling.  Production traffic adds two
twists the per-generator ad-hoc skew code never covered:

* **hot-key rotation** — during a flash crowd the *identity* of the hot
  keys drifts over time (this hour's trending item is not last hour's),
  which is what defeats static partitioning;
* **churn** — members leave and join (IoT devices die, new symbols
  list) while the popularity law stays put.

:class:`KeyedPopulation` packages all of it behind one deterministic
API so scenarios and generators share a single implementation.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Any, Sequence


def zipf_weights(n: int, s: float = 1.0) -> list[float]:
    """Normalized Zipf weights for ``n`` ranks with exponent ``s``.

    Used to skew group popularity (hot sensors, hot stock symbols) —
    the skew that makes load balancing interesting.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    raw = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


class KeyedPopulation:
    """A fixed-size key universe under a Zipf(ish) popularity law.

    Rank ``r`` (0-based) carries weight ``zipf_weights(n, skew)[r]``;
    which *key* occupies which rank can change over time via rotation
    and churn, but the law itself is immutable — so the offered load
    shape is stable while the hot set moves.

    Args:
        keys: the key universe — either an int ``n`` (keys ``0..n-1``)
            or an explicit sequence (order defines the initial ranking:
            first = hottest).
        skew: Zipf exponent (0 = uniform).
        rotate_every: if > 0, the rank→key mapping rotates one position
            every ``rotate_every`` time units (hot-key rotation: pass
            the current time to :meth:`sample`/:meth:`hot_keys`).
    """

    def __init__(
        self,
        keys: int | Sequence[Any],
        skew: float = 1.0,
        rotate_every: float = 0.0,
    ):
        if isinstance(keys, int):
            if keys < 1:
                raise ValueError("need at least one key")
            self._keys: list[Any] = list(range(keys))
        else:
            self._keys = list(keys)
            if not self._keys:
                raise ValueError("need at least one key")
            if len(set(map(repr, self._keys))) != len(self._keys):
                raise ValueError("population keys must be distinct")
        if skew < 0:
            raise ValueError("skew must be non-negative")
        if rotate_every < 0:
            raise ValueError("rotate_every must be non-negative")
        n = len(self._keys)
        self.skew = skew
        self.rotate_every = rotate_every
        self.weights: list[float] = (
            zipf_weights(n, skew) if skew > 0 else [1.0 / n] * n
        )
        # The table ``random.choices`` would otherwise rebuild per draw:
        # the law is immutable (rotation and churn only move keys).
        self._cum_weights = list(accumulate(self.weights))
        self.replacements = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def keys(self) -> list[Any]:
        """The current key universe in rank order (hottest first, before
        rotation is applied)."""
        return list(self._keys)

    # -- rotation ------------------------------------------------------------

    def _offset(self, at: float) -> int:
        if self.rotate_every <= 0:
            return 0
        return int(at / self.rotate_every) % len(self._keys)

    def ranked(self, at: float = 0.0) -> list[Any]:
        """Keys in popularity order at time ``at`` (index 0 = hottest)."""
        offset = self._offset(at)
        if offset == 0:
            return list(self._keys)
        return self._keys[offset:] + self._keys[:offset]

    def hot_keys(self, n: int = 1, at: float = 0.0) -> list[Any]:
        """The ``n`` most popular keys at time ``at``."""
        return self.ranked(at)[:n]

    def weight_of(self, key: Any, at: float = 0.0) -> float:
        """The sampling probability of ``key`` at time ``at``."""
        return self.weights[self.ranked(at).index(key)]

    # -- sampling ------------------------------------------------------------

    def sample(self, rng: random.Random, at: float = 0.0) -> Any:
        """Draw one key under the popularity law (caller supplies the
        RNG, so a generator's whole stream stays seeded by one seed).

        With ``rotate_every == 0`` this consumes exactly the same RNG
        state as the historical per-generator
        ``rng.choices(keys, weights)`` idiom, so refactored generators
        reproduce their old streams byte for byte.
        """
        # One draw of ``random.choices``, minus its per-call set-up: a
        # bisect of the cumulative table (sample_many is the reference).
        cum = self._cum_weights
        keys = self._keys
        size = len(keys)
        rank = bisect(cum, rng.random() * cum[-1], 0, size - 1)
        return keys[(rank + self._offset(at)) % size]

    def sample_many(
        self, rng: random.Random, n: int, at: float = 0.0
    ) -> list[Any]:
        """Draw ``n`` keys (one ``choices`` call — cheaper, same law).

        Note: consumes different RNG state than ``n`` single
        :meth:`sample` calls; use one style consistently per stream.
        """
        keys = self._keys
        size = len(keys)
        offset = self._offset(at)
        ranks = rng.choices(range(size), cum_weights=self._cum_weights, k=n)
        return [keys[(rank + offset) % size] for rank in ranks]

    # -- churn ---------------------------------------------------------------

    def replace(self, old: Any, new: Any) -> None:
        """Swap one member out (device died, symbol delisted) for a new
        one that inherits its rank — the popularity law is unchanged."""
        if new in self._keys:
            raise ValueError(f"key {new!r} already in population")
        index = self._keys.index(old)
        self._keys[index] = new
        self.replacements += 1

    def churn(self, rng: random.Random, new: Any) -> Any:
        """Replace a uniformly chosen member with ``new``; returns the
        retired key.  Deterministic given the caller's seeded RNG."""
        old = self._keys[rng.randrange(len(self._keys))]
        self.replace(old, new)
        return old

    def __repr__(self) -> str:
        return (
            f"KeyedPopulation(n={len(self._keys)}, skew={self.skew:g}, "
            f"rotate_every={self.rotate_every:g})"
        )
