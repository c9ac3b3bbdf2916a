"""Golden-output oracle for the radio rounds no experiment spec pins.

The experiment digests in ``tests/experiments/test_golden_outputs.py``
cover TAG and single-round iPDA through the specs' tiny grids, but no
spec runs PDA or an :class:`EpochedIpdaSession`, and none runs the
ACK'd report path over a lossy channel.  These SHA-256 digests pin one
outcome per case — sums, membership, bytes, frames and the trace
summary — so any change that reorders an RNG draw, a frame or a trace
record fails here:

* one PDA round, l = 2, on a 400-node paper-density deployment;
* a 4-epoch :class:`EpochedIpdaSession`, robustness off and on, on a
  lossy channel, with aggregators killed after the first epoch so the
  robust case retries and fails over;
* one loss-tolerant TAG round and one loss-tolerant iPDA round on the
  same channel under burst loss and Phase III crashes.

If a change is *meant* to alter these results, regenerate with::

    PYTHONPATH=src python tests/protocols/test_round_golden.py

and paste the printed dict, explaining the semantic change in the
commit message.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro import IpdaConfig, RngStreams
from repro.core.config import RobustnessConfig
from repro.faults import FaultPlan, GilbertElliottParams
from repro.net.topology import random_deployment
from repro.protocols.epochs import EpochedIpdaSession
from repro.protocols.ipda import IpdaProtocol
from repro.protocols.pda import PdaParams, PdaProtocol
from repro.protocols.tag import TagProtocol
from repro.sim.radio import RadioConfig

#: Per-(frame, receiver) loss for the lossy cases.
LOSSY = RadioConfig(loss_probability=0.05)

#: Sensors killed after the first epoch of the session cases.
KILLED = (3, 8, 13, 21, 34, 55)

GOLDEN_DIGESTS = {
    "pda-l2-400": (
        "bb0dab0e7fd80dea65e316fb4936ca9f503b28f54e334e1353525bf494e751c4"
    ),
    "epochs-4": (
        "a7ba47067252d74d0a0d4eb01e1747784dad5eb21003612b54c2acb95e5dcc20"
    ),
    "epochs-4-robust": (
        "5ffb042e8e69a4d2d6e1754e45ffe491b817ccaf65abae7b5ce8fd45f74f6899"
    ),
    "tag-robust-lossy": (
        "f2509f347017908057cb77ee9e7352b66379c8b366e486a669a2eb8190449c0f"
    ),
    "ipda-robust-lossy": (
        "e5ae2eee9defff74e0be329c4a761a503e0a4463683098fb4d9d7c83db8857d7"
    ),
}


@functools.lru_cache(maxsize=None)
def _topology(node_count, seed):
    return random_deployment(node_count, seed=seed)


def _readings(topology, scale=1):
    return {i: scale * (1 + i % 7) for i in range(1, topology.node_count)}


def _hash(payload):
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _round_payload(outcome):
    return (
        outcome.reported,
        sorted(outcome.participants),
        outcome.bytes_sent,
        outcome.frames_sent,
        sorted(outcome.stats["sent_bytes_by_node"].items()),
        outcome.stats["trace"],
        outcome.stats.get("retries_used"),
        outcome.stats.get("reparent_count"),
        outcome.stats.get("latency"),
    )


def _pda():
    topology = _topology(400, 23)
    outcome = PdaProtocol(PdaParams(slices=2)).run_round(
        topology, _readings(topology), streams=RngStreams(7)
    )
    return _hash(_round_payload(outcome))


def _epochs(robust):
    topology = _topology(300, 29)
    config = IpdaConfig(robustness=RobustnessConfig() if robust else None)
    session = EpochedIpdaSession(
        topology, config, streams=RngStreams(7), radio_config=LOSSY
    )
    session.construct_trees()
    payload = [session.construction_bytes, sorted(session.covered())]
    for epoch in range(4):
        if epoch == 1:
            for node_id in KILLED:
                session.network.kill_node(node_id)
        outcome = session.run_epoch(
            _readings(topology, scale=epoch + 1),
            polluters={5: 1_000} if epoch == 2 else None,
        )
        payload.append(
            (
                outcome.epoch,
                outcome.s_red,
                outcome.s_blue,
                outcome.verification.outcome,
                outcome.reported,
                sorted(outcome.participants),
                outcome.bytes_this_epoch,
                outcome.trace,
            )
        )
    return _hash(payload)


def _fault_plan(topology):
    return FaultPlan.random_crashes(
        range(topology.node_count),
        0.08,
        rng=np.random.default_rng(5),
        window=(40.0, 80.0),
        burst_loss=GilbertElliottParams(),
        seed=5,
    )


def _tag_robust():
    topology = _topology(300, 29)
    outcome = TagProtocol(
        radio_config=LOSSY, robustness=RobustnessConfig()
    ).run_round(
        topology,
        _readings(topology),
        streams=RngStreams(7),
        fault_plan=_fault_plan(topology),
    )
    return _hash(_round_payload(outcome))


def _ipda_robust():
    topology = _topology(300, 29)
    outcome = IpdaProtocol(
        IpdaConfig(robustness=RobustnessConfig()), radio_config=LOSSY
    ).run_round(
        topology,
        _readings(topology),
        streams=RngStreams(7),
        fault_plan=_fault_plan(topology),
    )
    return _hash(
        (
            _round_payload(outcome),
            outcome.s_red,
            outcome.s_blue,
            outcome.outcome,
            sorted(outcome.covered),
        )
    )


CASES = {
    "pda-l2-400": _pda,
    "epochs-4": lambda: _epochs(robust=False),
    "epochs-4-robust": lambda: _epochs(robust=True),
    "tag-robust-lossy": _tag_robust,
    "ipda-robust-lossy": _ipda_robust,
}


class TestGoldenRounds:
    def test_every_case_has_a_golden_digest(self):
        assert set(GOLDEN_DIGESTS) == set(CASES)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_round_matches_golden_digest(self, case):
        assert CASES[case]() == GOLDEN_DIGESTS[case], (
            f"{case} output changed; see module docstring before regenerating"
        )


if __name__ == "__main__":  # regeneration helper
    print("GOLDEN_DIGESTS = {")
    for _case in sorted(CASES):
        print(f'    "{_case}": (')
        print(f'        "{CASES[_case]()}"')
        print("    ),")
    print("}")
