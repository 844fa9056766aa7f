"""Sharded pipeline substrate: map/reduce executor, fault-tolerant
runtime, and the full runner."""

from .counters import PipelineMetrics, StageMetrics
from .faults import FaultInjector, InjectedFault
from .mapreduce import MapReduceJob, shard_items
from .resilience import (
    DEFAULT_RETRY_POLICY,
    NO_RETRY,
    DeadLetter,
    PipelineHealth,
    RetryPolicy,
    ShardEvidence,
    ShardFailure,
    ShardTimeoutError,
    WorkerTelemetry,
)
from .runner import PipelineReport, SurveyorPipeline

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "DeadLetter",
    "FaultInjector",
    "InjectedFault",
    "MapReduceJob",
    "NO_RETRY",
    "PipelineHealth",
    "PipelineMetrics",
    "PipelineReport",
    "RetryPolicy",
    "ShardEvidence",
    "ShardFailure",
    "ShardTimeoutError",
    "StageMetrics",
    "SurveyorPipeline",
    "WorkerTelemetry",
    "shard_items",
]
