"""Tests for the shared depth-slot convergecast (schedule and overflow)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import IpdaConfig, RngStreams
from repro.core.config import TimingConfig
from repro.net.topology import grid_deployment, random_deployment
from repro.obs import MetricsRegistry, using_registry
from repro.protocols.convergecast import (
    MAX_DEPTH_SLOTS,
    ConvergecastNode,
    report_time,
    round_horizon,
)
from repro.protocols.ipda import IpdaProtocol
from repro.protocols.pda import PdaParams, PdaProtocol
from repro.protocols.tag import TagProtocol
from repro.sim.radio import RadioConfig

LOSSLESS = RadioConfig(collisions_enabled=False)


@pytest.fixture(scope="module")
def paper_size():
    topology = random_deployment(400, seed=31)
    readings = {i: 1 + i % 5 for i in range(1, topology.node_count)}
    return topology, readings


def _protocols():
    return {
        "tag": TagProtocol(),
        "pda": PdaProtocol(PdaParams(slices=2)),
        "ipda": IpdaProtocol(IpdaConfig(slices=2)),
    }


class TestSchedule:
    def test_deeper_hops_report_earlier(self):
        rng = np.random.default_rng(0)
        times = [report_time(10.0, hops, 2.0, rng) for hops in (1, 2, 3)]
        assert times[0] > times[1] > times[2]

    def test_hops_past_the_bound_share_slot_zero(self):
        slot = 2.0
        for hops in (MAX_DEPTH_SLOTS, MAX_DEPTH_SLOTS + 5):
            when = report_time(10.0, hops, slot, np.random.default_rng(1))
            assert 10.0 <= when < 10.0 + 0.8 * slot

    def test_horizon_closes_after_the_last_slot(self):
        timing = TimingConfig()
        assert round_horizon(timing, sliced=False) == 10.0 + 34 * 2.0
        assert round_horizon(timing) == 10.0 + 10.0 + 1.0 + 34 * 2.0


class TestSlotOrder:
    @pytest.mark.parametrize("name", ["tag", "pda", "ipda"])
    def test_parents_report_after_their_children(
        self, name, paper_size, monkeypatch
    ):
        topology, readings = paper_size
        fired = {}
        report = ConvergecastNode._report

        def recording(node):
            if node.parent is not None:
                fired[node.id] = (node.now, node.parent)
            report(node)

        monkeypatch.setattr(ConvergecastNode, "_report", recording)
        _protocols()[name].run_round(
            topology, readings, streams=RngStreams(7)
        )
        assert len(fired) > 100
        for child, (when, parent) in fired.items():
            if parent in fired:
                assert fired[parent][0] > when, (child, parent)


class TestDepthOverflow:
    def test_line_past_the_bound_is_counted(self):
        # 40 nodes 40 m apart, 50 m range: the sensors sit at hops 1-39,
        # and the 7 past hop 32 share slot 0 with their parents.
        line = grid_deployment(1, 40, spacing=40.0)
        readings = {i: 1 for i in range(1, 40)}
        for seed in range(3):
            registry = MetricsRegistry()
            with using_registry(registry):
                outcome = TagProtocol(radio_config=LOSSLESS).run_round(
                    line, readings, streams=RngStreams(seed)
                )
            assert outcome.stats["tree_size"] == 39
            assert outcome.stats["depth_overflow"] == 7
            counters = registry.snapshot()["counters"]
            assert counters["protocol.depth_overflow"] == 7
        pda = PdaProtocol(PdaParams(slices=1), radio_config=LOSSLESS)
        outcome = pda.run_round(line, readings, streams=RngStreams(0))
        assert outcome.stats["depth_overflow"] == 7

    @pytest.mark.parametrize("name", ["tag", "pda", "ipda"])
    def test_paper_size_round_reports_none(self, name, paper_size):
        topology, readings = paper_size
        registry = MetricsRegistry()
        with using_registry(registry):
            outcome = _protocols()[name].run_round(
                topology, readings, streams=RngStreams(7)
            )
        assert outcome.stats["depth_overflow"] == 0
        assert "protocol.depth_overflow" not in registry.snapshot()["counters"]
