"""Core input-sensitive profiling: metrics, algorithms, profile data.

Public surface of the paper's contribution:

* :class:`RmsProfiler` — sequential read-memory-size profiling
  (PLDI 2012);
* :class:`TrmsProfiler` — threaded read-memory-size profiling with
  external-input tracking (the multithreaded extension);
* :class:`NaiveRms` / :class:`NaiveTrms` — Figure 10 reference oracles;
* the trace event model (:class:`Event`, :class:`Trace`,
  :func:`merge_traces`, :func:`replay`, :class:`EventBus`);
* profile data containers and the Section 6.1 evaluation metrics.
"""

from .context import (
    CONTEXT_SEPARATOR,
    compose_context,
    context_depth,
    contexts_of,
    fold_to_routines,
    leaf_routine,
)
from .costmodel import BasicBlockCost, CostModel, InstructionCost, OperationCost
from .events import Event, EventBus, EventKind, Trace, TraceConsumer, merge_traces, replay
from .metrics import (
    induced_split,
    induced_split_by_routine,
    input_volume,
    input_volume_by_routine,
    profile_richness,
    richness_by_routine,
    tail_curve,
)
from .flatkernel import FlatAnalyzer, analyze_columns_flat, analyze_events_flat
from .naive import NaiveRms, NaiveTrms
from .profile_data import ActivationRecord, ProfileDatabase, RoutineProfile, SizeStats
from .profiler import BaseProfiler
from .renumber import renumber_timestamps
from .rms import RmsProfiler
from .shadow import DictShadow, ShadowMemory
from .stack import FlatStack, ShadowStack, StackEntry
from .trms import KERNEL_WRITER, TrmsProfiler

__all__ = [
    "CONTEXT_SEPARATOR",
    "compose_context",
    "context_depth",
    "contexts_of",
    "fold_to_routines",
    "leaf_routine",
    "BasicBlockCost",
    "CostModel",
    "InstructionCost",
    "OperationCost",
    "Event",
    "EventBus",
    "EventKind",
    "Trace",
    "TraceConsumer",
    "merge_traces",
    "replay",
    "induced_split",
    "induced_split_by_routine",
    "input_volume",
    "input_volume_by_routine",
    "profile_richness",
    "richness_by_routine",
    "tail_curve",
    "FlatAnalyzer",
    "analyze_columns_flat",
    "analyze_events_flat",
    "NaiveRms",
    "NaiveTrms",
    "ActivationRecord",
    "ProfileDatabase",
    "RoutineProfile",
    "SizeStats",
    "BaseProfiler",
    "renumber_timestamps",
    "RmsProfiler",
    "DictShadow",
    "ShadowMemory",
    "FlatStack",
    "ShadowStack",
    "StackEntry",
    "KERNEL_WRITER",
    "TrmsProfiler",
]
