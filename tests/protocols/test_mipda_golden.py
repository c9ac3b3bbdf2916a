"""Golden-output oracle for m-tree iPDA over the radio stack.

No experiment spec runs :class:`MipdaProtocol`, so the experiment
digests in ``tests/experiments/test_golden_outputs.py`` say nothing
about it.  These SHA-256 digests pin one round per case — m in
{2, 3, 4}, collisions on and off, with and without a polluter — on the
500-node deployment the mIPDA tests use.  They were captured at commit
7810d3b, while mIPDA still had its own node class, and any change that
reorders an RNG draw, a frame, or a trace record fails here.

If a change is *meant* to alter mIPDA's results, regenerate with::

    PYTHONPATH=src python tests/protocols/test_mipda_golden.py

and paste the printed dict, explaining the semantic change in the
commit message.
"""

from __future__ import annotations

import functools
import hashlib

import pytest

from repro import RngStreams
from repro.net.topology import random_deployment
from repro.protocols.mipda import MipdaProtocol
from repro.sim.radio import RadioConfig

#: The polluted cases' offset: node 97 is an aggregator under seed 7 for
#: every case, so m = 2 rejects the round and m >= 3 outvotes the tree.
POLLUTERS = {97: 5_000}

#: (tree_count, collisions_enabled, polluted) -> sha256 of the outcome
GOLDEN_DIGESTS = {
    (2, True, False): (
        "4aefdb8b7d74a90b314bbba1e0d629e592d3ad44447b06dadf1e3421bbb61ab5"
    ),
    (2, True, True): (
        "16a68222093dcf2ab5163946bc28cc933fa49cea38ed7813684288d621bd975d"
    ),
    (2, False, False): (
        "2a4ffe3fae8b5f780c3d80e093b75e546d9b0266abf220f3e4d410a63034df33"
    ),
    (2, False, True): (
        "4c0c766c06d7db9f96ba29b431501cb4797a1fb2de0d89ea2952879232af6573"
    ),
    (3, True, False): (
        "c1c9f639534ce78d6bfbfaa45c7ef9e6bcccbdaae3df7dc44deb765ec92c2947"
    ),
    (3, True, True): (
        "ce3a3f2858421f35a48f07c47c523e8d78e68000d7c5cdb985b6bb58363e0515"
    ),
    (3, False, False): (
        "ab7b27b4253e277c849c9adca636d01f6e7a996cb25362cead070b429bcfc8fa"
    ),
    (3, False, True): (
        "7806d2f47e5d229967e23cf668ba4d906451f5aebc6299c0f854672856ae145b"
    ),
    (4, True, False): (
        "4d38b6c8c384ea66dfe606acd37ece4a1c8aaddeed26e9c997f52440963bb7ba"
    ),
    (4, True, True): (
        "64793631ed738c1cf9b38ce112d0c913e08d14a2339153f90993be4771819be4"
    ),
    (4, False, False): (
        "5d7a685a5399ec1841e0fd1da5e453e0e9322bd259444b1d808feb44185623df"
    ),
    (4, False, True): (
        "0bcc34d73ac45dbb409c47cc6946249af7ad960154e08f07940d63994c3b28b6"
    ),
}

CASES = [
    (tree_count, collisions, polluted)
    for tree_count in (2, 3, 4)
    for collisions in (True, False)
    for polluted in (False, True)
]


@functools.lru_cache(maxsize=1)
def _topology():
    return random_deployment(500, seed=141)


def _digest(tree_count, collisions, polluted):
    topology = _topology()
    readings = {i: 2 for i in range(1, topology.node_count)}
    outcome = MipdaProtocol(
        tree_count,
        radio_config=RadioConfig(collisions_enabled=collisions),
    ).run_round(
        topology,
        readings,
        streams=RngStreams(7),
        polluters=POLLUTERS if polluted else None,
    )
    payload = repr(
        (
            outcome.sums,
            outcome.accepted,
            outcome.reported,
            sorted(outcome.participants),
            sorted(outcome.covered),
            outcome.bytes_sent,
            outcome.frames_sent,
            outcome.stats["aggregators_by_color"],
            outcome.stats["trace"],
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class TestGoldenMipda:
    def test_every_case_has_a_golden_digest(self):
        assert set(GOLDEN_DIGESTS) == set(CASES)

    @pytest.mark.parametrize(
        "tree_count,collisions,polluted",
        CASES,
        ids=[
            f"m{m}-{'collisions' if c else 'clean'}"
            f"{'-polluted' if p else ''}"
            for m, c, p in CASES
        ],
    )
    def test_round_matches_golden_digest(
        self, tree_count, collisions, polluted
    ):
        assert _digest(tree_count, collisions, polluted) == GOLDEN_DIGESTS[
            (tree_count, collisions, polluted)
        ], "mIPDA output changed; see module docstring before regenerating"


if __name__ == "__main__":  # regeneration helper
    print("GOLDEN_DIGESTS = {")
    for _case in CASES:
        print(f"    {_case!r}: (")
        print(f'        "{_digest(*_case)}"')
        print("    ),")
    print("}")
