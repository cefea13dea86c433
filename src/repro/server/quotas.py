"""Per-tenant admission control and quota-based degradation.

Two quota families keep one tenant from starving the rest:

* **Concurrency quotas** — ``max_running`` bounds how many of a
  tenant's jobs the scheduler dispatches at once, ``max_queued`` bounds
  the backlog it may park.  A submit that would overflow the backlog is
  rejected with :class:`OverQuota`, which the API layer renders as
  ``429 Too Many Requests`` plus a ``Retry-After`` header — graceful
  back-pressure, not a dropped job.
* **Budget quotas** — ``max_candidates`` and ``time_limit`` cap how
  much work any single job may burn.  :func:`repro.tasks.job_budget`
  clamps the job's own request by them into an ordinary
  :class:`~repro.runtime.Budget`, and the run degrades with the
  algorithm's ``on_exhausted`` policy (``truncate`` unless the job
  asks otherwise), so an over-budget job *finishes* with a
  partial-but-valid result and is marked ``degraded: true`` instead of
  failing.

Quotas resolve per tenant with a default fallback, loadable from a
JSON file::

    {
      "default": {"max_running": 2, "max_queued": 8},
      "tenants": {
        "acme": {"max_running": 1, "max_queued": 2,
                 "max_candidates": 5000, "time_limit": 30.0}
      }
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..core.base import check_in_range
from ..core.exceptions import ReproError, ValidationError


class OverQuota(ReproError, RuntimeError):
    """A submit would exceed the tenant's concurrency quota.

    ``retry_after`` is the back-off hint (seconds) the API layer turns
    into a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 5.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's limits (``None`` budget fields = uncapped)."""

    max_running: int = 2
    max_queued: int = 8
    max_candidates: Optional[int] = None
    time_limit: Optional[float] = None
    retry_after_seconds: float = 5.0

    def __post_init__(self):
        check_in_range("max_running", self.max_running, 1, None)
        check_in_range("max_queued", self.max_queued, 1, None)
        if self.max_candidates is not None:
            check_in_range("max_candidates", self.max_candidates, 1, None)
        if self.time_limit is not None:
            check_in_range("time_limit", self.time_limit, 0.0, None,
                           low_inclusive=False)
        check_in_range("retry_after_seconds", self.retry_after_seconds,
                       0.0, None, low_inclusive=False)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TenantQuota":
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValidationError(
                f"unknown quota fields: {sorted(unknown)}"
            )
        return cls(**payload)


class QuotaPolicy:
    """Per-tenant quota resolution and admission decisions."""

    def __init__(
        self,
        default: Optional[TenantQuota] = None,
        tenants: Optional[Dict[str, TenantQuota]] = None,
    ):
        self.default = default or TenantQuota()
        self.tenants = dict(tenants or {})

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "QuotaPolicy":
        """Load a policy from the JSON layout in the module docstring."""
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot load quota file {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValidationError(f"quota file {path} must hold an object")
        default = TenantQuota.from_dict(payload.get("default", {}))
        tenants = {
            name: TenantQuota.from_dict(entry)
            for name, entry in payload.get("tenants", {}).items()
        }
        return cls(default=default, tenants=tenants)

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.tenants.get(tenant, self.default)

    def admit(self, tenant: str, counts: Dict[str, int]) -> None:
        """Admission check against the tenant's current job counts.

        Raises :class:`OverQuota` when the tenant's backlog is full —
        i.e. its queue already holds ``max_queued`` jobs.  Running jobs
        are not counted against admission (the scheduler's dispatch
        gate enforces ``max_running`` separately), so a tenant can
        always park work up to its backlog allowance.
        """
        quota = self.quota_for(tenant)
        if counts.get("queued", 0) >= quota.max_queued:
            raise OverQuota(
                f"tenant {tenant!r} already has {counts['queued']} queued "
                f"jobs (quota {quota.max_queued}); retry later",
                retry_after=quota.retry_after_seconds,
            )

    def over_concurrency(self, tenant: str, counts: Dict[str, int]) -> bool:
        """Dispatch gate: is the tenant at its running-job limit?"""
        quota = self.quota_for(tenant)
        return counts.get("running", 0) >= quota.max_running


__all__ = [
    "OverQuota",
    "QuotaPolicy",
    "TenantQuota",
]
