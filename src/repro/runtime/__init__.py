"""Execution guardrails: budgets, cancellation, checkpoint/resume,
retries, and fault injection.

See :mod:`repro.runtime.context` for the :class:`ExecutionContext`
that bundles these services into the single ``ctx=`` seam algorithms
accept, :mod:`repro.runtime.budget` for the budget/cancellation machinery,
:mod:`repro.runtime.checkpoint` for crash-safe snapshot persistence,
:mod:`repro.runtime.retry` for transient-fault retries,
:mod:`repro.runtime.faults` for the deterministic fault harness used by
``tests/runtime``, :mod:`repro.runtime.supervisor` for process-level
supervision (hard limits, crash containment, chaos-proven resume), and
:mod:`repro.runtime.parallel` for the persistent prefork
:class:`WorkerPool` that executes shard tasks deterministically under
the same budgets, fed by the shared-memory segments of
:mod:`repro.runtime.transport`.
"""

from .budget import (
    Budget,
    BudgetExceeded,
    CancellationToken,
    IterationBudgetExceeded,
    OperationCancelled,
    ProgressEvent,
    SpaceBudgetExceeded,
    TimeBudgetExceeded,
)
from .checkpoint import (
    CheckpointCorrupted,
    CheckpointMismatch,
    CheckpointStore,
    CheckpointWriteError,
    Checkpointer,
    Snapshottable,
)
from .context import (
    BASIC_POLICIES,
    LEVELWISE_POLICIES,
    ExecutionContext,
    RunCounters,
    check_degradation_policy,
    derive_shard_budget,
    progress_event,
)
from .faults import (
    DISK_OPS,
    ChaosMonkey,
    DiskGremlin,
    Fault,
    FlakyFault,
    InjectedFault,
    PoolGremlin,
    SlowPass,
    TransientFault,
    TriggerAfter,
    VirtualClock,
    active_pool_gremlin,
    clear_pool_gremlin,
    install_pool_gremlin,
)
from .fsio import (
    atomic_write_bytes,
    clear_injector,
    injected,
    install_injector,
)
from .parallel import (
    INLINE_RESULT_LIMIT,
    SMALL_TASK_SECONDS,
    WorkerCrashed,
    WorkerPool,
    close_shared_pools,
    effective_n_jobs,
    fork_per_task_map,
    resolve_n_jobs,
    shard_bounds,
    shared_pool,
)
from .retry import RetryPolicy
from .transport import (
    SegmentHandle,
    SharedRegion,
    get_array,
    get_object,
    segment_dir,
    sweep_stale_tmp,
    sweep_stale_transport,
)
from .supervisor import (
    FailureReport,
    HardLimits,
    SupervisedCrash,
    SupervisedResult,
    Supervisor,
    SupervisorStopped,
)

__all__ = [
    "Budget",
    "BudgetExceeded",
    "TimeBudgetExceeded",
    "SpaceBudgetExceeded",
    "IterationBudgetExceeded",
    "CancellationToken",
    "OperationCancelled",
    "ProgressEvent",
    "CheckpointCorrupted",
    "CheckpointMismatch",
    "CheckpointStore",
    "CheckpointWriteError",
    "Checkpointer",
    "Snapshottable",
    "ExecutionContext",
    "RunCounters",
    "check_degradation_policy",
    "progress_event",
    "BASIC_POLICIES",
    "LEVELWISE_POLICIES",
    "RetryPolicy",
    "WorkerCrashed",
    "WorkerPool",
    "INLINE_RESULT_LIMIT",
    "SMALL_TASK_SECONDS",
    "close_shared_pools",
    "derive_shard_budget",
    "effective_n_jobs",
    "fork_per_task_map",
    "resolve_n_jobs",
    "shard_bounds",
    "shared_pool",
    "SegmentHandle",
    "SharedRegion",
    "get_array",
    "get_object",
    "segment_dir",
    "ChaosMonkey",
    "DISK_OPS",
    "DiskGremlin",
    "FailureReport",
    "HardLimits",
    "SupervisedCrash",
    "SupervisedResult",
    "Supervisor",
    "SupervisorStopped",
    "atomic_write_bytes",
    "clear_injector",
    "injected",
    "install_injector",
    "sweep_stale_tmp",
    "sweep_stale_transport",
    "Fault",
    "FlakyFault",
    "InjectedFault",
    "PoolGremlin",
    "TransientFault",
    "TriggerAfter",
    "SlowPass",
    "VirtualClock",
    "active_pool_gremlin",
    "clear_pool_gremlin",
    "install_pool_gremlin",
]
