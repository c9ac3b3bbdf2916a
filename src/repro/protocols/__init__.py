"""Aggregation protocols: iPDA, the TAG baseline, and relatives.

Every radio protocol here runs its Phase III on the one tree
convergecast of :mod:`repro.protocols.convergecast`: its depth-slot
schedule (with the depth bound :data:`MAX_DEPTH_SLOTS`), its ACK'd
report path and, for TAG and PDA, its single-tree HELLO flood.  Phase
timing is :class:`~repro.core.config.TimingConfig`'s; TAG has no
parameters of its own and :class:`PdaParams` holds only the slicing
knobs.
"""

from .aggregates import (
    AdditiveStatistic,
    AverageStatistic,
    CountStatistic,
    PowerMeanMax,
    PowerMeanMin,
    StdDevStatistic,
    SumStatistic,
    VarianceStatistic,
    statistic_by_name,
)
from .base import AggregationProtocol, RoundOutcome
from .convergecast import MAX_DEPTH_SLOTS
from .ipda import IpdaOutcome, IpdaProtocol
from .epochs import EpochedIpdaSession, EpochOutcome, RadioAggregationService
from .kipda import KipdaConfig, KipdaMaxProtocol, KipdaMinProtocol, KipdaOutcome
from .mipda import MipdaOutcome, MipdaProtocol
from .pda import PdaParams, PdaProtocol
from .tag import TagProtocol

__all__ = [
    "AggregationProtocol",
    "RoundOutcome",
    "IpdaProtocol",
    "IpdaOutcome",
    "TagProtocol",
    "PdaProtocol",
    "PdaParams",
    "MAX_DEPTH_SLOTS",
    "KipdaMaxProtocol",
    "KipdaMinProtocol",
    "EpochedIpdaSession",
    "MipdaProtocol",
    "MipdaOutcome",
    "EpochOutcome",
    "RadioAggregationService",
    "KipdaConfig",
    "KipdaOutcome",
    "AdditiveStatistic",
    "SumStatistic",
    "CountStatistic",
    "AverageStatistic",
    "VarianceStatistic",
    "StdDevStatistic",
    "PowerMeanMax",
    "PowerMeanMin",
    "statistic_by_name",
]
