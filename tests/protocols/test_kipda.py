"""Tests for the KIPDA-style k-indistinguishable MAX extension."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro import RngStreams
from repro.errors import ConfigurationError, ProtocolError
from repro.net.topology import Topology, random_deployment
from repro.protocols.kipda import (
    KipdaConfig,
    KipdaMaxProtocol,
    KipdaMinProtocol,
)


@pytest.fixture(scope="module")
def dense():
    topology = random_deployment(120, area=250.0, seed=23)
    readings = {
        i: 10 + ((i * 37) % 400) for i in range(1, topology.node_count)
    }
    return topology, readings


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            KipdaConfig(vector_size=3, real_positions=3)
        with pytest.raises(ConfigurationError):
            KipdaConfig(real_positions=0)
        with pytest.raises(ConfigurationError):
            KipdaConfig(camouflage_low=10, camouflage_high=5)

    def test_indistinguishability_is_m_over_k(self):
        config = KipdaConfig(vector_size=12, real_positions=3)
        assert config.indistinguishability == pytest.approx(0.25)


class TestVectors:
    def test_vector_contains_reading_at_secret_position(self):
        protocol = KipdaMaxProtocol()
        rng = np.random.default_rng(1)
        secret = protocol.deploy_secret(rng)
        vector = protocol.build_vector(250, secret, rng)
        assert len(vector) == protocol.config.vector_size
        assert max(vector[p] for p in secret) == 250

    def test_real_position_camouflage_never_exceeds_reading(self):
        protocol = KipdaMaxProtocol()
        rng = np.random.default_rng(2)
        secret = protocol.deploy_secret(rng)
        for reading in (5, 100, 999):
            vector = protocol.build_vector(reading, secret, rng)
            for p in secret:
                assert vector[p] <= reading

    def test_fake_positions_unconstrained(self):
        config = KipdaConfig(
            vector_size=8,
            real_positions=2,
            camouflage_low=500,
            camouflage_high=900,
        )
        protocol = KipdaMaxProtocol(config)
        rng = np.random.default_rng(3)
        secret = protocol.deploy_secret(rng)
        vector = protocol.build_vector(600, secret, rng)
        fakes = [v for i, v in enumerate(vector) if i not in secret]
        assert all(500 <= v <= 900 for v in fakes)

    def test_wrong_secret_size_rejected(self):
        protocol = KipdaMaxProtocol()
        rng = np.random.default_rng(4)
        with pytest.raises(ProtocolError):
            protocol.build_vector(10, [1], rng)


def scalar_reference_vector(protocol, reading, secret, rng):
    """One scalar draw per position, in position order."""
    cfg = protocol.config
    vector = [0] * cfg.vector_size
    chosen = int(secret[int(rng.integers(0, len(secret)))])
    for position in range(cfg.vector_size):
        if position == chosen:
            vector[position] = reading
        elif position in secret:
            if isinstance(protocol, KipdaMaxProtocol):
                low = min(cfg.camouflage_low, reading)
                vector[position] = int(rng.integers(low, reading + 1))
            else:
                high = max(cfg.camouflage_high, reading)
                vector[position] = int(rng.integers(reading, high + 1))
        else:
            vector[position] = int(
                rng.integers(cfg.camouflage_low, cfg.camouflage_high + 1)
            )
    return vector


class TestOneDrawVector:
    @pytest.mark.parametrize("protocol_cls", [KipdaMaxProtocol, KipdaMinProtocol])
    @pytest.mark.parametrize(
        "config",
        [
            KipdaConfig(),
            KipdaConfig(vector_size=5, real_positions=4),
            KipdaConfig(camouflage_low=7, camouflage_high=7),
            KipdaConfig(camouflage_low=0, camouflage_high=2**40),
        ],
    )
    def test_matches_scalar_draws(self, protocol_cls, config):
        protocol = protocol_cls(config)
        rng = np.random.default_rng(31)
        ref = np.random.default_rng(31)
        readings = [config.camouflage_low, config.camouflage_high]
        readings += [(config.camouflage_low + config.camouflage_high) // 2] * 3
        for round_id in range(20):
            secret = protocol.deploy_secret(rng)
            assert protocol.deploy_secret(ref) == secret
            for reading in readings:
                assert protocol.build_vector(
                    reading, secret, rng
                ) == scalar_reference_vector(protocol, reading, secret, ref)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestRound:
    def test_recovers_true_max(self, dense):
        topology, readings = dense
        outcome = KipdaMaxProtocol().run_round(
            topology, readings, streams=RngStreams(5)
        )
        assert outcome.exact
        assert outcome.reported == outcome.true_max

    def test_camouflage_never_inflates_max(self, dense):
        # Even with hot camouflage bounds, real positions stay clean.
        topology, readings = dense
        config = KipdaConfig(camouflage_high=10_000)
        outcome = KipdaMaxProtocol(config).run_round(
            topology, readings, streams=RngStreams(6)
        )
        assert outcome.reported == outcome.true_max

    def test_participants_are_reachable_sensors(self, dense):
        topology, readings = dense
        outcome = KipdaMaxProtocol().run_round(
            topology, readings, streams=RngStreams(7)
        )
        assert outcome.participants <= set(readings)
        assert outcome.vectors_published == len(outcome.participants)

    def test_readings_below_camouflage_floor_rejected(self, dense):
        topology, _ = dense
        readings = {
            i: -5 for i in range(1, topology.node_count)
        }
        with pytest.raises(ProtocolError):
            KipdaMaxProtocol().run_round(
                topology, readings, streams=RngStreams(8)
            )

    def test_base_station_reading_rejected(self, dense):
        topology, readings = dense
        bad = dict(readings)
        bad[0] = 1
        with pytest.raises(ProtocolError):
            KipdaMaxProtocol().run_round(topology, bad, streams=RngStreams(9))

    def test_deterministic(self, dense):
        topology, readings = dense
        a = KipdaMaxProtocol().run_round(
            topology, readings, streams=RngStreams(10)
        )
        b = KipdaMaxProtocol().run_round(
            topology, readings, streams=RngStreams(10)
        )
        assert a.reported == b.reported


class TestDeepTree:
    def test_long_chain_needs_no_recursion(self, monkeypatch):
        hops = 2_000
        chain = Topology(
            coords=np.column_stack(
                [10.0 * np.arange(hops + 1), np.zeros(hops + 1)]
            ),
            radio_range=10.5,
        )
        readings = {i: i % 700 for i in range(1, hops + 1)}

        def forbidden(limit):
            raise AssertionError("the recursion limit must not change")

        monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
        for protocol, expected in (
            (KipdaMaxProtocol(), 699),
            (KipdaMinProtocol(), 0),
        ):
            outcome = protocol.run_round(
                chain, readings, streams=RngStreams(3)
            )
            assert len(outcome.participants) == hops
            assert outcome.reported == outcome.true_max == expected
