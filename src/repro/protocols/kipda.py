"""KIPDA-style k-indistinguishable aggregation (extension).

The task header's title points at the *indistinguishable privacy* line
of work that followed iPDA (KIPDA: k-indistinguishable
privacy-preserving data aggregation, by the same group).  This module
implements its core idea for MAX/MIN aggregation, where slicing does
not apply and encryption is avoided entirely:

* every node publishes a *vector* of ``k`` values;
* a secret position set (shared with the base station at deployment)
  marks which entries may carry real data — node ``i`` writes its
  reading into one secret-real position and camouflage elsewhere;
* camouflage placed in *real* positions must not exceed the node's own
  reading (so it can never corrupt a MAX), while camouflage in fake
  positions is unconstrained noise;
* aggregators combine vectors element-wise (max), no decryption needed;
* the base station reads the true maximum off the real positions.

An eavesdropper seeing a vector cannot tell which of the ``k`` entries
is real — each reading is *k-indistinguishable* — and the chance of
guessing a real position is ``m/k`` for ``m`` real positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from ..net.graphs import bfs_tree
from ..net.topology import Topology
from ..rng import RngStreams

__all__ = [
    "KipdaConfig",
    "KipdaOutcome",
    "KipdaMaxProtocol",
    "KipdaMinProtocol",
]


@dataclass
class KipdaConfig:
    """Parameters of the camouflage vector.

    ``vector_size`` is ``k`` (total positions); ``real_positions`` is
    ``m`` (secret positions allowed to carry data).  Camouflage values
    in fake positions are drawn above the data range to be convincing;
    ``camouflage_low``/``camouflage_high`` bound them.
    """

    vector_size: int = 12
    real_positions: int = 3
    camouflage_low: int = 0
    camouflage_high: int = 1_000

    def __post_init__(self) -> None:
        if self.real_positions < 1:
            raise ConfigurationError("need at least one real position")
        if self.vector_size <= self.real_positions:
            raise ConfigurationError("vector_size must exceed real_positions")
        if self.camouflage_low > self.camouflage_high:
            raise ConfigurationError("camouflage bounds out of order")

    @property
    def indistinguishability(self) -> float:
        """Probability an eavesdropper guesses a real position: m/k."""
        return self.real_positions / self.vector_size


@dataclass
class KipdaOutcome:
    """Result of one KIPDA MAX round."""

    reported: Optional[int]
    true_max: int
    participants: Set[int] = field(default_factory=set)
    vectors_published: int = 0

    @property
    def exact(self) -> bool:
        """Did the protocol recover the true maximum?"""
        return self.reported == self.true_max


class _KipdaExtremumProtocol:
    """Shared machinery for k-indistinguishable MAX/MIN aggregation.

    Runs losslessly on the topology (the privacy mechanism is the
    contribution here, not the channel); the radio-level behaviour
    matches TAG's single convergecast with vector payloads.
    """

    name = "kipda"

    def __init__(self, config: Optional[KipdaConfig] = None, *, base_station: int = 0):
        self.config = config if config is not None else KipdaConfig()
        self.base_station = base_station

    # -- extremum-specific hooks ---------------------------------------
    #: the extremum, called as ``op(a, b)`` or ``op(iterable)``
    #: (``max`` or ``min``); vectors combine element-wise with it.
    _op = None

    def _real_bounds(self, reading: int) -> Tuple[int, int]:
        """Inclusive bounds of camouflage for a non-chosen *real* position.

        Camouflage in them must never beat the reading at the combine
        operation, or it would corrupt the aggregate.
        """
        raise NotImplementedError

    def _check_readings(self, values) -> None:
        raise NotImplementedError

    # -- common machinery -------------------------------------------------
    def deploy_secret(self, rng: np.random.Generator) -> List[int]:
        """Draw the secret real-position set shared with every node."""
        positions = rng.choice(
            self.config.vector_size,
            size=self.config.real_positions,
            replace=False,
        )
        return sorted(int(p) for p in positions)

    def build_vector(
        self,
        reading: int,
        secret: Sequence[int],
        rng: np.random.Generator,
    ) -> List[int]:
        """Encode ``reading`` into a camouflage vector.

        Real positions other than the chosen one get camouflage that
        can never beat the reading at the combine operation; fake
        positions get unconstrained camouflage.  All ``k - 1``
        camouflage entries come from one bounded draw with per-position
        bounds, which numpy runs element by element in position order.
        """
        cfg = self.config
        if len(secret) != cfg.real_positions:
            raise ProtocolError("secret size does not match configuration")
        reading = int(reading)
        chosen = int(secret[int(rng.integers(0, len(secret)))])
        real_low, real_high = self._real_bounds(reading)
        lows = [cfg.camouflage_low] * cfg.vector_size
        highs = [cfg.camouflage_high + 1] * cfg.vector_size
        for position in secret:
            lows[position] = real_low
            highs[position] = real_high + 1
        del lows[chosen], highs[chosen]
        vector = rng.integers(lows, highs).tolist()
        vector.insert(chosen, reading)
        return vector

    def run_round(
        self,
        topology: Topology,
        readings: Mapping[int, int],
        *,
        streams: RngStreams,
        round_id: int = 0,
    ) -> KipdaOutcome:
        """Aggregate the extremum over all readings, k-indistinguishably."""
        if self.base_station in readings:
            raise ProtocolError("the base station does not produce a reading")
        if not readings:
            raise ProtocolError("need at least one reading")
        self._check_readings(readings.values())
        rng = streams.get("kipda", round_id)
        secret = self.deploy_secret(rng)

        parents = bfs_tree(topology, self.base_station)
        participants = {n for n in parents if n != self.base_station}

        vectors: Dict[int, List[int]] = {}
        published = 0
        for node_id in sorted(participants):
            if node_id in readings:
                vectors[node_id] = self.build_vector(
                    int(readings[node_id]), secret, rng
                )
                published += 1

        # Convergecast: ``parents`` is in BFS order, so walking it
        # backwards folds every subtree before its parent's.  The
        # extremum does not depend on the order it sees values in.
        op = self._op
        inbound: Dict[int, List[int]] = {}
        for node_id in reversed(parents):
            parent = parents[node_id]
            if parent is None:  # the base station
                continue
            merged = inbound.pop(node_id, None)
            own = vectors.get(node_id)
            if own is not None:
                merged = own if merged is None else list(map(op, merged, own))
            if merged is not None:
                upward = inbound.get(parent)
                inbound[parent] = (
                    merged if upward is None else list(map(op, upward, merged))
                )
        final = inbound.get(self.base_station)

        reported = (
            op(final[p] for p in secret)
            if final is not None
            else None
        )
        reachable = participants & set(readings)
        true_value = (
            op(int(readings[i]) for i in reachable)
            if reachable
            else 0
        )
        return KipdaOutcome(
            reported=reported,
            true_max=true_value,
            participants=reachable,
            vectors_published=published,
        )


class KipdaMaxProtocol(_KipdaExtremumProtocol):
    """k-indistinguishable MAX aggregation over a logical BFS tree."""

    name = "kipda-max"
    _op = max

    def _real_bounds(self, reading: int) -> Tuple[int, int]:
        return min(self.config.camouflage_low, reading), reading

    def _check_readings(self, values) -> None:
        if min(int(v) for v in values) < self.config.camouflage_low:
            raise ProtocolError(
                "readings below camouflage_low would be distinguishable"
            )


class KipdaMinProtocol(_KipdaExtremumProtocol):
    """k-indistinguishable MIN aggregation (element-wise minimum).

    Symmetric to MAX: real-position camouflage must sit *at or above*
    the node's reading so it can never drag the minimum below truth.
    """

    name = "kipda-min"
    _op = min

    def _real_bounds(self, reading: int) -> Tuple[int, int]:
        return reading, max(self.config.camouflage_high, reading)

    def _check_readings(self, values) -> None:
        if max(int(v) for v in values) > self.config.camouflage_high:
            raise ProtocolError(
                "readings above camouflage_high would be distinguishable"
            )
