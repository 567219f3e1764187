"""Deployment executors and incremental update pipeline (paper 3.3)."""

from .executor import (
    ApplyResult,
    BestEffortExecutor,
    CriticalPathExecutor,
    OperationRecord,
    PlanExecutor,
    Quarantine,
    RetryPolicy,
    SequentialExecutor,
)
from .recovery import CrashRecovery, RecoveryAction, RecoveryReport
from .wal import (
    IntentJournal,
    IntentRecord,
    SimulatedCrash,
    WALCorruptError,
)
from .incremental import (
    IncrementalPatchError,
    IncrementalPlanResult,
    IncrementalSession,
    RefreshResult,
    UpdatePipeline,
    UpdatePlanResult,
    read_data_sources,
    refresh_state,
)

__all__ = [
    "ApplyResult",
    "BestEffortExecutor",
    "CrashRecovery",
    "CriticalPathExecutor",
    "IncrementalPatchError",
    "IncrementalPlanResult",
    "IncrementalSession",
    "IntentJournal",
    "IntentRecord",
    "OperationRecord",
    "PlanExecutor",
    "Quarantine",
    "RecoveryAction",
    "RecoveryReport",
    "RefreshResult",
    "RetryPolicy",
    "SequentialExecutor",
    "SimulatedCrash",
    "UpdatePipeline",
    "UpdatePlanResult",
    "WALCorruptError",
    "read_data_sources",
    "refresh_state",
]
