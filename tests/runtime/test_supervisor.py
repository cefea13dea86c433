"""Process-level supervision: hard limits, crash containment, reports.

The kill-storm resume-identity contract lives in ``test_kill_storm.py``;
this file covers the supervisor mechanics — exit classification, limit
enforcement, report structure, retry/resume composition, and checkpoint
hygiene on success.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.associations import apriori
from repro.core.exceptions import ValidationError
from repro.datasets import quest_basket, save_transactions
from repro.runtime import (
    ChaosMonkey,
    CheckpointStore,
    HardLimits,
    RetryPolicy,
    SupervisedCrash,
    Supervisor,
    TransientFault,
)
from repro.runtime.supervisor import _peak_child_rss_mb

NO_SLEEP = dict(base_delay=0.0, jitter=0.0, sleep=lambda _s: None)


def _current_vsz_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[0])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)


# ----------------------------------------------------------------------
# Child targets (run under fork, so closures would work too; module
# level keeps tracebacks readable when a child prints one).
# ----------------------------------------------------------------------
def _add(a, b):
    return a + b


def _raise_value_error():
    raise ValueError("application-level failure")


def _raise_transient_once(flag_path):
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("seen")
        raise TransientFault("in-child transient blip")
    return "recovered"


def _exit_nonzero():
    os._exit(5)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_self_checkpointed(ctx=None):
    os.kill(os.getpid(), signal.SIGKILL)


def _exit_zero_without_result():
    os._exit(0)


def _sleep_forever():
    time.sleep(300)


def _ignore_sigterm_and_sleep():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(300)


def _spin_cpu():
    while True:
        pass


def _allocate_mb(n_mb):
    block = bytearray(n_mb * 1024 * 1024)
    return len(block)


def _crash_until_resumable(value, ctx=None):
    """Die hard on the fresh attempt; succeed once resume is requested."""
    if ctx is None or not ctx.resume_requested:
        os.kill(os.getpid(), signal.SIGKILL)
    return value


class TestSuccessPath:
    def test_returns_value_and_attempt_count(self):
        outcome = Supervisor().run(_add, 2, b=3)
        assert outcome.value == 5
        assert outcome.attempts == 1
        assert outcome.reports == []

    def test_peak_rss_is_reported(self):
        outcome = Supervisor().run(_add, 1, 1)
        assert outcome.peak_rss_mb is not None
        assert outcome.peak_rss_mb > 0

    def test_app_error_reraises_not_crash(self):
        with pytest.raises(ValueError, match="application-level failure"):
            Supervisor().run(_raise_value_error)

    def test_in_child_transient_fault_is_retried_by_policy(self, tmp_path):
        flag = str(tmp_path / "flag")
        sup = Supervisor(retry=RetryPolicy(max_retries=2, **NO_SLEEP))
        outcome = sup.run(_raise_transient_once, flag)
        assert outcome.value == "recovered"
        assert outcome.attempts == 2
        # An app-level transient fault is not a process crash: no report.
        assert outcome.reports == []


class TestCrashClassification:
    def test_nonzero_exit_is_crashed(self):
        with pytest.raises(SupervisedCrash) as excinfo:
            Supervisor().run(_exit_nonzero)
        report = excinfo.value.report
        assert report.cause == "crashed"
        assert report.exit_code == 5
        assert report.signal is None

    def test_sigkill_is_killed(self):
        with pytest.raises(SupervisedCrash) as excinfo:
            Supervisor().run(_kill_self)
        report = excinfo.value.report
        assert report.cause == "killed"
        assert report.signal == signal.SIGKILL
        assert report.signal_name == "SIGKILL"

    def test_clean_exit_without_result_is_torn(self):
        with pytest.raises(SupervisedCrash) as excinfo:
            Supervisor().run(_exit_zero_without_result)
        assert excinfo.value.report.cause == "torn-result"
        assert excinfo.value.report.exit_code == 0

    def test_report_serialises_to_json(self):
        sup = Supervisor(limits=HardLimits(max_rss_mb=4096))
        with pytest.raises(SupervisedCrash) as excinfo:
            sup.run(_exit_nonzero)
        decoded = json.loads(excinfo.value.report.to_json())
        for key in ("cause", "message", "exit_code", "signal", "attempt",
                    "elapsed_seconds", "peak_rss_mb", "limits",
                    "last_checkpoint", "partial_result_available"):
            assert key in decoded
        assert decoded["cause"] == "crashed"
        assert decoded["limits"]["max_rss_mb"] == 4096


class TestHardLimits:
    def test_rss_limit_fires_as_memory_cause(self):
        cap = _current_vsz_mb() + 64
        sup = Supervisor(limits=HardLimits(max_rss_mb=cap))
        with pytest.raises(SupervisedCrash) as excinfo:
            sup.run(_allocate_mb, 512)
        report = excinfo.value.report
        assert report.cause == "rss-limit"
        assert "MB" in report.message

    def test_allocation_under_the_cap_succeeds(self):
        cap = _current_vsz_mb() + 256
        sup = Supervisor(limits=HardLimits(max_rss_mb=cap))
        assert sup.run(_allocate_mb, 16).value == 16 * 1024 * 1024

    def test_wall_limit_graceful_sigterm(self):
        sup = Supervisor(
            limits=HardLimits(wall_time_limit=0.3, grace_period=5.0)
        )
        started = time.monotonic()
        with pytest.raises(SupervisedCrash) as excinfo:
            sup.run(_sleep_forever)
        elapsed = time.monotonic() - started
        assert excinfo.value.report.cause == "wall-limit"
        # SIGTERM unwound the child well before the grace period ran out.
        assert elapsed < 4.0

    def test_wall_limit_escalates_to_sigkill(self):
        sup = Supervisor(
            limits=HardLimits(wall_time_limit=0.2, grace_period=0.3)
        )
        with pytest.raises(SupervisedCrash) as excinfo:
            sup.run(_ignore_sigterm_and_sleep)
        report = excinfo.value.report
        assert report.cause == "wall-limit"
        assert report.signal == signal.SIGKILL

    def test_cpu_limit_fires_sigxcpu(self):
        sup = Supervisor(limits=HardLimits(cpu_time_limit=1.0))
        with pytest.raises(SupervisedCrash) as excinfo:
            sup.run(_spin_cpu)
        assert excinfo.value.report.cause == "cpu-limit"
        assert excinfo.value.report.signal == signal.SIGXCPU

    def test_limit_validation(self):
        with pytest.raises(ValidationError, match="-1"):
            HardLimits(max_rss_mb=-1)
        with pytest.raises(ValidationError, match="0"):
            HardLimits(wall_time_limit=0)


class TestRetryAndResume:
    def test_crash_retried_then_resumed(self, tmp_path):
        sup = Supervisor(
            retry=RetryPolicy(max_retries=2, **NO_SLEEP),
            checkpoint_dir=tmp_path / "ckpt",
            keep_snapshots=True,
        )
        outcome = sup.run(_crash_until_resumable, "done")
        assert outcome.value == "done"
        assert outcome.attempts == 2
        assert [r.cause for r in outcome.reports] == ["killed"]
        assert outcome.reports[0].attempt == 1

    def test_exhausted_retries_raise_last_report(self):
        sup = Supervisor(retry=RetryPolicy(max_retries=2, **NO_SLEEP))
        with pytest.raises(SupervisedCrash) as excinfo:
            sup.run(_kill_self)
        assert excinfo.value.report.attempt == 3
        assert [r.attempt for r in sup.reports_] == [1, 2, 3]

    def test_no_retry_by_default(self):
        sup = Supervisor()
        with pytest.raises(SupervisedCrash):
            sup.run(_kill_self)
        assert len(sup.reports_) == 1

    def test_report_names_last_checkpoint(self, small_db, tmp_path):
        ckpt = tmp_path / "ckpt"
        # Seed the directory with a completed run's snapshots...
        Supervisor(checkpoint_dir=ckpt, keep_snapshots=True).run(
            apriori, small_db, 0.4
        )
        assert CheckpointStore(ckpt).latest_seq() is not None
        # ...then crash: the report must surface the resumable snapshot.
        with pytest.raises(SupervisedCrash) as excinfo:
            Supervisor(checkpoint_dir=ckpt, keep_snapshots=True).run(
                _kill_self_checkpointed
            )
        report = excinfo.value.report
        assert report.last_checkpoint is not None
        assert report.partial_result_available is True


class TestCheckpointHygiene:
    def test_snapshots_cleared_on_success(self, small_db, tmp_path):
        ckpt = tmp_path / "ckpt"
        outcome = Supervisor(checkpoint_dir=ckpt).run(apriori, small_db, 0.4)
        assert outcome.value.supports
        assert CheckpointStore(ckpt).snapshots() == []
        assert not list(ckpt.glob("*.ckpt"))

    def test_keep_snapshots_opts_out(self, small_db, tmp_path):
        ckpt = tmp_path / "ckpt"
        Supervisor(checkpoint_dir=ckpt, keep_snapshots=True).run(
            apriori, small_db, 0.4
        )
        assert CheckpointStore(ckpt).snapshots() != []

    def test_supervised_result_matches_unsupervised(self, small_db, tmp_path):
        plain = apriori(small_db, 0.4)
        supervised = Supervisor(checkpoint_dir=tmp_path / "ckpt").run(
            apriori, small_db, 0.4
        )
        assert supervised.value.supports == plain.supports


class TestChaosMonkeyUnit:
    def test_dormant_monkey_never_strikes(self):
        monkey = ChaosMonkey(kills=0)
        sup = Supervisor(monkey=monkey)
        assert sup.run(_add, 1, 2).value == 3
        assert monkey.strikes == []

    def test_delay_mode_kills_a_sleeping_child(self):
        monkey = ChaosMonkey(
            kills=1, delay_range=(0.01, 0.02), random_state=7
        )
        sup = Supervisor(monkey=monkey)
        with pytest.raises(SupervisedCrash) as excinfo:
            sup.run(_sleep_forever)
        assert excinfo.value.report.cause == "killed"
        assert len(monkey.strikes) == 1
        assert monkey.strikes[0]["mode"] == "delay"
        assert monkey.remaining == 0

    def test_monkey_allowance_spans_attempts(self):
        monkey = ChaosMonkey(
            kills=2, delay_range=(0.01, 0.02), random_state=3
        )
        sup = Supervisor(
            monkey=monkey, retry=RetryPolicy(max_retries=5, **NO_SLEEP)
        )
        outcome = sup.run(_add, 4, 4)
        assert outcome.value == 8
        # Dormant after two strikes, so the third-or-later attempt won.
        assert len(monkey.strikes) <= 2
        assert outcome.attempts == len(monkey.strikes) + 1

    def test_strike_on_a_child_that_already_exited_is_not_counted(self):
        # The race behind a flaky allowance count: ``is_alive()`` says
        # running, the child exits 0 before the SIGKILL lands, and the
        # kill "succeeds" on the unreaped zombie.
        import multiprocessing

        proc = multiprocessing.get_context("fork").Process(
            target=_add, args=(1, 2))
        proc.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)

        class _RacedChild:
            pid = proc.pid

            def is_alive(self):
                return True

            @property
            def exitcode(self):
                return proc.exitcode

        monkey = ChaosMonkey(kills=1)
        monkey._strike(_RacedChild(), trigger={"mode": "delay"})
        assert proc.exitcode == 0
        assert monkey.strikes == []
        assert monkey.remaining == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            ChaosMonkey(kills=-1)
        with pytest.raises(ValidationError):
            ChaosMonkey(after_checkpoints=(0, 2))
        with pytest.raises(ValidationError):
            ChaosMonkey(delay_range=(0.5, 0.1))


def test_peak_child_rss_helper_is_positive():
    Supervisor().run(_add, 0, 0)
    assert _peak_child_rss_mb() > 0


# ----------------------------------------------------------------------
# A supervised child dies with its parent
# ----------------------------------------------------------------------
def _proc_stat(pid):
    """``/proc/<pid>/stat`` fields from the state on, or None if gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid):
    """``(pid, start time)`` of every live process whose parent is pid."""
    found = []
    for entry in os.listdir("/proc"):
        fields = _proc_stat(entry) if entry.isdigit() else None
        if fields and int(fields[1]) == pid and fields[0] != "Z":
            found.append((int(entry), fields[19]))
    return found


def _alive(pid, started):
    fields = _proc_stat(pid)
    return bool(fields) and fields[19] == started and fields[0] not in "ZX"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_sigkilled_cli_parent_takes_its_supervised_child_along(tmp_path):
    basket = tmp_path / "basket.dat"
    save_transactions(quest_basket(4000, random_state=0), str(basket))
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    # About 30 s of mining: the child is mid-run when its parent dies.
    parent = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "mine", str(basket),
         "--min-support", "0.005", "--supervise"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    children = []
    try:
        deadline = time.monotonic() + 30
        while (not children and parent.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.05)
            children = _children(parent.pid)
        assert children, "the supervised child never started"
        time.sleep(1.0)
        parent.kill()
        parent.wait()
        time.sleep(2.0)
        assert [c for c in children if _alive(*c)] == []
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid, started in children:
            if _alive(pid, started):
                os.kill(pid, signal.SIGKILL)
