"""Equivalence and bookkeeping tests for the radio's perfect channel.

With collisions disabled the medium keeps no in-flight ledger
(``_finish_fast``), and every frame goes through the same end-of-frame
routine as the collision path.  These tests run the shared differential workload
(``radio_oracle.DifferentialRun``) with collisions off through the
production medium and the per-``Reception`` oracle, and diff everything
the simulator can observe: deliveries and their order, drop records,
the RNG draw sequence and sender feedback.
"""

from __future__ import annotations

import numpy as np

from repro.net.topology import grid_deployment
from repro.sim.engine import EventEngine
from repro.sim.messages import BROADCAST, HelloMessage
from repro.sim.radio import RadioConfig, RadioMedium
from repro.sim.trace import TraceCollector

from radio_oracle import DifferentialRun, assert_equivalent


def _assert_clean_equivalent(**kwargs):
    return assert_equivalent(collisions_enabled=False, **kwargs)


class TestFastPathEquivalence:
    def test_clean_broadcast(self):
        # Liveness mask installed, every node alive, no loss: every
        # frame reads the mask and finds nobody dead.
        _assert_clean_equivalent()

    def test_clean_broadcast_without_liveness_probe(self):
        # Bare medium (and a Network with no dead node): nothing can
        # drop, so the fan-out resolves in one batch.
        _assert_clean_equivalent(probe_liveness=False)
        _assert_clean_equivalent(probe_liveness=False, unicast=True)

    def test_overhear_mask_limits_bystanders(self):
        # Only masked bystanders are dispatched overheard unicasts;
        # an empty mask leaves the addressee alone.
        for overhearers in ((), (2, 5, 9)):
            _assert_clean_equivalent(unicast=True, overhearers=overhearers)
            _assert_clean_equivalent(
                unicast=True,
                overhearers=overhearers,
                dead_nodes=(5, 6),
                loss_probability=0.2,
            )

    def test_bernoulli_loss_draws_in_same_order(self):
        _assert_clean_equivalent(loss_probability=0.3)

    def test_dead_receivers(self):
        _assert_clean_equivalent(dead_nodes=(5, 6, 10))
        _assert_clean_equivalent(dead_nodes=(5, 6, 10), loss_probability=0.2)

    def test_unicast_with_overhearing_and_out_of_range_addressee(self):
        # (nid+1) addressing includes the 15 -> 0 wrap, which is out of
        # radio range on the grid: exercises the NO_RECEIVER drop.
        _assert_clean_equivalent(unicast=True)
        _assert_clean_equivalent(unicast=True, loss_probability=0.1)

    def test_burst_loss_model_called_identically(self):
        calls_fast, calls_legacy = [], []

        def model_factory(log):
            def model(src, dst, now):
                log.append((src, dst, round(now, 9)))
                return (src + dst) % 5 == 0

            return model

        fast = DifferentialRun(
            legacy=False,
            collisions_enabled=False,
            loss_model=model_factory(calls_fast),
        )
        legacy = DifferentialRun(
            legacy=True,
            collisions_enabled=False,
            loss_model=model_factory(calls_legacy),
        )
        assert calls_fast == calls_legacy
        assert fast.delivered == legacy.delivered
        assert fast.trace.summary() == legacy.trace.summary()

    def test_counters_only_trace(self):
        _assert_clean_equivalent(keep_frames=False, detail="counters")

    def test_fast_path_leaves_no_reception_state(self):
        run = DifferentialRun(
            legacy=False, collisions_enabled=False, loss_probability=0.1
        )
        assert run.radio._in_flight == []
        assert not (run.radio._tx_until > -np.inf).any()
        assert run.radio._tx_count == 0
        # Every frame concluded on the collisions-off path.
        assert run.radio.fast_path_frames == run.trace.total_frames_sent
        assert run.radio.generic_frames == 0


class TestStaleTransmitterPruning:
    """Channel-state queries against the `_tx_until` array."""

    def _radio(self, **config_kwargs):
        topology = grid_deployment(1, 3, spacing=40.0, radio_range=50.0)
        engine = EventEngine()
        radio = RadioMedium(
            engine=engine,
            topology=topology,
            trace=TraceCollector(),
            deliver=lambda r, m, a: None,
            rng=np.random.default_rng(0),
            config=RadioConfig(**config_kwargs),
        )
        return engine, radio

    def test_is_transmitting_ignores_expired_entry(self):
        engine, radio = self._radio()
        radio._tx_until[1] = engine.now - 1.0
        assert not radio.is_transmitting(1)

    def test_is_transmitting_sees_live_entry(self):
        engine, radio = self._radio()
        radio._tx_until[1] = engine.now + 1.0
        assert radio.is_transmitting(1)

    def test_senses_busy_ignores_expired_neighbor_entries(self):
        engine, radio = self._radio()
        radio._tx_until[0] = engine.now - 0.5
        radio._tx_until[2] = engine.now - 0.5
        radio._tx_count = 2
        assert not radio.senses_busy(1)

    def test_senses_busy_still_sees_live_neighbor(self):
        engine, radio = self._radio()
        radio._tx_until[0] = engine.now + 0.5
        radio._tx_count = 1
        assert radio.senses_busy(1)

    def test_idle_channel_short_circuits_carrier_sense(self):
        engine, radio = self._radio()
        assert radio._tx_count == 0
        assert not radio.senses_busy(1)

    def test_array_idle_after_traffic(self):
        for collisions in (False, True):
            engine, radio = self._radio(collisions_enabled=collisions)
            for src in (0, 1, 2):
                engine.schedule(
                    0.01 * (src + 1),
                    lambda src=src: radio.transmit(
                        HelloMessage(src=src, dst=BROADCAST)
                    ),
                )
            engine.run()
            assert not (radio._tx_until > -np.inf).any()
            assert radio._tx_count == 0
            assert radio._in_flight == []


class TestNeighborCache:
    def test_cache_populated_sorted(self):
        engine, radio = TestStaleTransmitterPruning()._radio()
        assert radio._sorted_neighbors(1) == (0, 2)
        assert radio._neighbor_cache[1] == (0, 2)
        # Second call hits the cache (same object).
        assert radio._sorted_neighbors(1) is radio._neighbor_cache[1]

    def test_topology_version_bump_invalidates(self):
        engine, radio = TestStaleTransmitterPruning()._radio()
        assert radio._sorted_neighbors(1) == (0, 2)
        # Simulate an in-place topology edit (e.g. a link removed).
        radio.topology.adjacency[1] = frozenset({2})
        radio.topology.invalidate_caches()
        assert radio._sorted_neighbors(1) == (2,)
        assert radio._sorted_neighbors(0) == (1,)
