"""The paper's contribution: the distributed Q/A architecture.

Implements Sections 3 and 4 — inter-question parallelism (DNS front-end,
question dispatcher, load monitoring/membership) and intra-question
parallelism (meta-scheduler, PR/AP dispatchers, SEND/ISEND/RECV
partitioning with failure recovery) — on the simulated cluster substrate.
"""

from .dispatcher import QuestionDispatcher
from .frontend import DNSFrontend
from .load import (
    AP_WEIGHTS,
    PR_WEIGHTS,
    QA_WEIGHTS,
    ResourceWeights,
    load_function,
    single_task_load,
)
from .meta_scheduler import Assignment, meta_schedule
from .monitor import MonitoringSystem
from .node import ClusterNode, NodeConfig
from .partitioning import (
    PartitionAbort,
    PartitioningStrategy,
    RetryPolicy,
    WorkerFailed,
    make_chunks,
    partition_isend,
    partition_send,
    run_receiver_controlled,
    run_sender_controlled,
)
from .qa_task import DistributedQATask, TaskPolicy, TaskResult
from .system import DistributedQASystem, Strategy, SystemConfig, WorkloadReport

__all__ = [
    "AP_WEIGHTS",
    "Assignment",
    "ClusterNode",
    "DNSFrontend",
    "DistributedQASystem",
    "DistributedQATask",
    "MonitoringSystem",
    "NodeConfig",
    "PR_WEIGHTS",
    "PartitionAbort",
    "PartitioningStrategy",
    "QA_WEIGHTS",
    "QuestionDispatcher",
    "RetryPolicy",
    "ResourceWeights",
    "Strategy",
    "SystemConfig",
    "TaskPolicy",
    "TaskResult",
    "WorkerFailed",
    "WorkloadReport",
    "load_function",
    "make_chunks",
    "meta_schedule",
    "partition_isend",
    "partition_send",
    "run_receiver_controlled",
    "run_sender_controlled",
    "single_task_load",
]
