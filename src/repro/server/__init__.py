"""Fault-tolerant mining job server (``repro serve``).

A small HTTP/JSON service that runs the repo's miners, classifiers and
clusterers as *jobs*: submitted over POST, executed under the runtime's
Supervisor with durable checkpoints, surviving server crashes (kill -9
included) with byte-identical results, and degrading — not failing —
when a tenant's budget quota bites.

Layering::

    api.py        HTTP surface (stdlib ThreadingHTTPServer)
    scheduler.py  queue + workers + supervised execution + recovery
    quotas.py     per-tenant admission control and budget caps
    cache.py      integrity-checked result cache + content keys
    store.py      one-directory-per-job durable state (atomic writes),
                  progress event logs, submission index

The store is the source of truth; the scheduler and API never hold
state the store does not, which is what makes restart recovery a pure
function of the directory tree.  The client edge is idempotent:
retried submissions deduplicate onto one job, completed identical
submissions are served byte-identically from the checksummed result
cache, and per-job ``events.jsonl`` logs make progress polling
resumable across crashes.
"""

from .api import (
    BadRequest,
    BadSubmission,
    PayloadTooLarge,
    build_server,
    serve,
    validate_submission,
)
from .cache import ResultCache, content_key
from .quotas import OverQuota, QuotaPolicy, TenantQuota
from .scheduler import (
    Draining,
    FileCancelToken,
    Scheduler,
    canonical_result_bytes,
    execute_job,
)
from .store import (
    DEFAULT_MAX_FAILURES,
    STATES,
    TERMINAL_STATES,
    EventAppender,
    InvalidTransition,
    JobRecord,
    JobStore,
    JobStoreError,
    UnknownJob,
    scan_events,
)

__all__ = [
    "BadRequest",
    "BadSubmission",
    "DEFAULT_MAX_FAILURES",
    "Draining",
    "EventAppender",
    "FileCancelToken",
    "InvalidTransition",
    "JobRecord",
    "JobStore",
    "JobStoreError",
    "OverQuota",
    "PayloadTooLarge",
    "QuotaPolicy",
    "ResultCache",
    "STATES",
    "Scheduler",
    "TERMINAL_STATES",
    "TenantQuota",
    "UnknownJob",
    "build_server",
    "canonical_result_bytes",
    "content_key",
    "execute_job",
    "scan_events",
    "serve",
    "validate_submission",
]
