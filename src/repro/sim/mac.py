"""CSMA/CA medium-access control with unicast ARQ.

Each node owns a :class:`CsmaMac` that serialises its outgoing frames:
carrier-sense before transmitting, binary-exponential random backoff
while the channel is busy, and — like the 802.11 MAC the paper's ns-2
substrate used — retransmission of *unicast* frames that were not
received (up to ``retry_limit`` attempts; ACKs are abstracted as the
radio telling the sender whether the addressee decoded the frame, and
their airtime is folded into the data frame).  Broadcast frames are
fire-and-forget, exactly as in 802.11, which is why HELLO floods remain
the dominant loss source in dense networks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

import numpy as np

from ..errors import SimulationError
from .engine import EventEngine
from .messages import Message
from .radio import RadioMedium

__all__ = ["MacConfig", "CsmaMac"]


@dataclass
class MacConfig:
    """MAC-layer parameters.

    Attributes
    ----------
    initial_backoff:
        Upper bound of the first backoff window (seconds).
    max_backoff_exponent:
        The window doubles per deferral/retry up to
        ``initial_backoff * 2**e``.
    max_deferrals:
        After this many busy-channel deferrals the frame is transmitted
        anyway rather than queued forever.
    retry_limit:
        Total transmission attempts for a unicast frame before it is
        dropped (7 matches 802.11's short retry limit).
    send_jitter:
        Uniform random delay added before the first carrier sense, which
        de-synchronises nodes reacting to the same broadcast (e.g. all
        children answering a HELLO) — the dominant collision source.
    """

    initial_backoff: float = 2e-3
    max_backoff_exponent: int = 5
    max_deferrals: int = 8
    retry_limit: int = 7
    send_jitter: float = 5e-3

    def __post_init__(self) -> None:
        if self.initial_backoff <= 0:
            raise SimulationError("initial_backoff must be positive")
        if self.max_deferrals < 0:
            raise SimulationError("max_deferrals must be >= 0")
        if self.retry_limit < 1:
            raise SimulationError("retry_limit must be >= 1")
        if self.send_jitter < 0:
            raise SimulationError("send_jitter must be >= 0")


class CsmaMac:
    """Carrier-sense MAC instance for a single node."""

    def __init__(
        self,
        node_id: int,
        engine: EventEngine,
        radio: RadioMedium,
        rng: np.random.Generator,
        config: Optional[MacConfig] = None,
    ):
        self.node_id = node_id
        self.engine = engine
        self.radio = radio
        self.config = config if config is not None else MacConfig()
        self._rng = rng
        self._queue: Deque[Message] = deque()
        self._busy = False
        self._current: Optional[Message] = None
        self._attempts = 0
        self._halted = False
        #: generation counter for posted timers.  MAC timers are
        #: fire-and-forget (never cancelled), so each one carries the
        #: epoch it was armed under and is ignored once the epoch has
        #: moved on — otherwise a timer armed for a frame abandoned by
        #: halt() could fire after resume() and transmit the *next*
        #: frame early (or on top of itself).
        self._epoch = 0
        #: the frame currently on the air, if any (set at transmit,
        #: cleared when its end-of-frame feedback arrives).
        self._airborne: Optional[Message] = None
        #: a frame that was on the air when halt() struck.  Its
        #: end-of-frame feedback must be discarded instead of matched
        #: against whatever frame the recovered MAC is sending by then.
        self._abandoned: Optional[Message] = None
        #: unicast frames abandoned after the retry limit.
        self.dropped_frames = 0
        #: total retransmissions performed (attempts beyond the first).
        self.retransmissions = 0
        #: backoff timers armed (busy-channel deferrals plus retries).
        self.backoffs = 0

    @property
    def queue_length(self) -> int:
        """Frames waiting behind the one currently being handled."""
        return len(self._queue)

    def send(self, message: Message) -> None:
        """Enqueue ``message`` for transmission."""
        if message.src != self.node_id:
            raise SimulationError(
                f"MAC of node {self.node_id} asked to send a frame from "
                f"node {message.src}"
            )
        if self._halted:
            return
        self._queue.append(message)
        if not self._busy:
            self._busy = True
            self._start_next()

    def halt(self) -> None:
        """Fail-stop: drop the queue and stop servicing frames.

        A frame already on the air keeps propagating (the transmission
        physically happened), but the MAC abandons it: its end-of-frame
        feedback is discarded, so a recovered MAC never retries — or
        worse, mis-matches — a pre-crash frame.  Any backoff or retry
        in progress dies with the epoch bump.
        """
        self._halted = True
        self._epoch += 1
        self._queue.clear()
        if self._current is not None and self._airborne is self._current:
            self._abandoned = self._current
        self._current = None
        self._busy = False

    def resume(self) -> None:
        """Recover from :meth:`halt`; the queue starts empty."""
        self._halted = False

    # ------------------------------------------------------------------
    # Internal state machine
    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            self._current = None
            return
        self._current = self._queue.popleft()
        self._attempts = 0
        self._epoch += 1
        epoch = self._epoch
        jitter = float(self._rng.uniform(0.0, self.config.send_jitter))
        # Fire-and-forget: MAC timers are never cancelled (stale ones
        # are ignored via the epoch guard inside _attempt), so the
        # handle-free post() avoids a ScheduledEvent per frame.
        self.engine.post(jitter, self._attempt, 0, epoch)

    def _attempt(self, deferrals: int, epoch: int) -> None:
        if epoch != self._epoch:
            return  # timer armed for a frame that is no longer current
        if self._current is None or self._halted:
            return
        if self.radio.senses_busy(self.node_id) and (
            deferrals < self.config.max_deferrals
            # Never transmit over this node's own radio: an abandoned
            # pre-crash frame may still be on the air after a fast
            # crash->recover->send churn, and starting a second frame
            # mid-flight is a physical impossibility the radio rejects.
            or self.radio.is_transmitting(self.node_id)
        ):
            self.backoffs += 1
            self.engine.post(
                self._backoff(deferrals), self._attempt, deferrals + 1, epoch
            )
            return
        self._attempts += 1
        if self._attempts > 1:
            self.retransmissions += 1
        self._airborne = self._current
        self.radio.transmit(self._current)
        # The radio calls transmission_result() at end-of-frame.

    def transmission_result(self, message: Message, delivered: bool) -> None:
        """Radio feedback at end-of-frame (the abstracted ACK)."""
        if message is self._airborne:
            self._airborne = None
        if message is self._abandoned:
            # Feedback for a frame the MAC abandoned at halt().  If the
            # node is still down and the unicast went undelivered,
            # account the drop as before; either way the feedback must
            # not reach the retry logic — `_current` may already be a
            # different frame enqueued after recovery.
            self._abandoned = None
            if self._halted and not delivered and not message.is_broadcast:
                self.dropped_frames += 1
            return
        if self._current is None or message is not self._current:
            if self._halted:
                return  # the frame concluded across a fail-stop
            raise SimulationError(
                f"MAC of node {self.node_id} got feedback for a frame it "
                "is not currently sending"
            )
        retry = (
            not delivered
            and not message.is_broadcast
            and not self._halted
            and self._attempts < self.config.retry_limit
        )
        if retry:
            self.backoffs += 1
            epoch = self._epoch
            self.engine.post(
                self._backoff(self._attempts), self._attempt, 0, epoch
            )
            return
        if not delivered and not message.is_broadcast:
            self.dropped_frames += 1
        self._start_next()

    def _backoff(self, stage: int) -> float:
        window = self.config.initial_backoff * (
            2 ** min(stage, self.config.max_backoff_exponent)
        )
        return float(self._rng.uniform(0.0, window))
