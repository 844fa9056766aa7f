"""Sharded pipeline substrate: map/reduce executor, fault-tolerant
runtime, and the full runner."""

from .._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".counters": ("PipelineMetrics", "StageMetrics"),
    ".faults": ("FaultInjector", "InjectedFault"),
    ".mapreduce": ("MapReduceJob", "shard_items"),
    ".resilience": (
        "DEFAULT_RETRY_POLICY",
        "NO_RETRY",
        "DeadLetter",
        "PipelineHealth",
        "RetryPolicy",
        "ShardEvidence",
        "ShardFailure",
        "ShardTimeoutError",
        "WorkerTelemetry",
    ),
    ".runner": ("PipelineReport", "SurveyorPipeline"),
})

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
