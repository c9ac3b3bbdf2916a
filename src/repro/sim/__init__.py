"""Discrete-event wireless network simulator (the ns-2 substitute)."""

from ..rng import RngStreams, derive_seed
from .engine import EventEngine, ScheduledEvent
from .mac import CsmaMac, MacConfig
from .messages import (
    BROADCAST,
    AggregateMessage,
    HelloMessage,
    Message,
    QueryMessage,
    SliceMessage,
    TreeColor,
)
from .network import Network
from .node import Node
from .radio import RadioConfig, RadioMedium
from .timeline import filter_frames, render_timeline, summarize_conversation
from .trace import DropReason, FrameRecord, TraceCollector

__all__ = [
    "EventEngine",
    "ScheduledEvent",
    "CsmaMac",
    "MacConfig",
    "Message",
    "HelloMessage",
    "QueryMessage",
    "SliceMessage",
    "AggregateMessage",
    "TreeColor",
    "BROADCAST",
    "Network",
    "Node",
    "RadioConfig",
    "RadioMedium",
    "RngStreams",
    "derive_seed",
    "TraceCollector",
    "FrameRecord",
    "DropReason",
    "filter_frames",
    "render_timeline",
    "summarize_conversation",
]
