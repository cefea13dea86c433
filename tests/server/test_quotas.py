"""Per-tenant quotas: admission, concurrency gate, budget clamping."""

import json

import pytest

from repro.core.exceptions import ValidationError
from repro.registry import Capabilities
from repro.server.quotas import OverQuota, QuotaPolicy, TenantQuota
from repro.tasks import job_budget


class TestTenantQuota:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TenantQuota(max_running=0)
        with pytest.raises(ValidationError):
            TenantQuota(max_queued=0)
        with pytest.raises(ValidationError):
            TenantQuota(time_limit=0.0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError):
            TenantQuota.from_dict({"max_flying": 3})


class TestQuotaPolicy:
    def test_tenant_overrides_fall_back_to_default(self):
        policy = QuotaPolicy(
            default=TenantQuota(max_queued=8),
            tenants={"acme": TenantQuota(max_queued=1)},
        )
        assert policy.quota_for("acme").max_queued == 1
        assert policy.quota_for("other").max_queued == 8

    def test_admit_raises_when_backlog_full(self):
        policy = QuotaPolicy(default=TenantQuota(max_queued=2,
                                                 retry_after_seconds=7.0))
        policy.admit("t", {"queued": 1})
        with pytest.raises(OverQuota) as excinfo:
            policy.admit("t", {"queued": 2})
        assert excinfo.value.retry_after == 7.0

    def test_running_jobs_do_not_block_admission(self):
        policy = QuotaPolicy(default=TenantQuota(max_running=1, max_queued=2))
        policy.admit("t", {"queued": 0, "running": 5})

    def test_over_concurrency_gate(self):
        policy = QuotaPolicy(default=TenantQuota(max_running=2))
        assert not policy.over_concurrency("t", {"running": 1})
        assert policy.over_concurrency("t", {"running": 2})

    def test_from_file(self, tmp_path):
        path = tmp_path / "quotas.json"
        path.write_text(json.dumps({
            "default": {"max_queued": 4},
            "tenants": {"acme": {"max_running": 1, "time_limit": 2.5}},
        }))
        policy = QuotaPolicy.from_file(path)
        assert policy.default.max_queued == 4
        assert policy.quota_for("acme").time_limit == 2.5

    def test_from_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "quotas.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError):
            QuotaPolicy.from_file(path)
        with pytest.raises(ValidationError):
            QuotaPolicy.from_file(tmp_path / "missing.json")


class TestJobBudget:
    CAPS = Capabilities(budget_resource="candidates")

    def test_uncapped_is_none(self):
        assert job_budget(self.CAPS, TenantQuota(), {}) is None

    def test_quota_cap_applies(self):
        budget = job_budget(self.CAPS, TenantQuota(max_candidates=100), {})
        assert budget.max_candidates == 100

    def test_tighter_of_request_and_quota_wins(self):
        quota = TenantQuota(max_candidates=100, time_limit=10.0)
        budget = job_budget(
            self.CAPS, quota,
            {"max_candidates": 50, "time_limit": 60.0},
        )
        assert budget.max_candidates == 50
        assert budget.time_limit == 10.0

    def test_request_alone_applies(self):
        budget = job_budget(self.CAPS, TenantQuota(), {"max_candidates": 9})
        assert budget.max_candidates == 9

    def test_no_budget_resource_drops_unit_cap(self):
        caps = Capabilities(budget_resource=None)
        quota = TenantQuota(max_candidates=100)
        assert job_budget(caps, quota, {}) is None
        budget = job_budget(caps, quota, {"time_limit": 5.0})
        assert budget.time_limit == 5.0
