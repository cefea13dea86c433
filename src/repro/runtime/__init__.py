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

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "budget": ("Budget", "BudgetExceeded", "CancellationToken",
               "IterationBudgetExceeded", "OperationCancelled",
               "SpaceBudgetExceeded", "TimeBudgetExceeded"),
    "checkpoint": ("CheckpointCorrupted", "CheckpointMismatch",
                   "CheckpointStore", "CheckpointWriteError", "Checkpointer",
                   "Snapshottable"),
    "context": ("BASIC_POLICIES", "LEVELWISE_POLICIES", "SMALL_TASK_SECONDS",
                "ExecutionContext", "RunCounters", "check_degradation_policy",
                "derive_shard_budget", "effective_n_jobs", "progress_event",
                "resolve_n_jobs"),
    "faults": ("DISK_OPS", "ChaosMonkey", "DiskGremlin", "Fault",
               "FlakyFault", "InjectedFault", "PoolGremlin", "SlowPass",
               "TransientFault", "TriggerAfter", "VirtualClock",
               "active_pool_gremlin", "clear_pool_gremlin",
               "install_pool_gremlin"),
    "fsio": ("atomic_write_bytes", "clear_injector", "injected",
             "install_injector"),
    "parallel": ("INLINE_RESULT_LIMIT", "WorkerCrashed", "WorkerPool",
                 "close_shared_pools", "shard_bounds", "shared_pool"),
    "retry": ("RetryPolicy",),
    "transport": ("SegmentHandle", "SharedRegion", "get_array", "get_object",
                  "segment_dir", "sweep_stale_tmp", "sweep_stale_transport"),
    "supervisor": ("FailureReport", "HardLimits", "SupervisedCrash",
                   "SupervisedResult", "Supervisor", "SupervisorStopped"),
})
