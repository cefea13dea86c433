"""CI chaos smoke: kill a supervised mine twice, demand exact results.

Runs a supervised apriori mine on a generated basket while a seeded
:class:`~repro.runtime.ChaosMonkey` SIGKILLs the child after each newly
persisted checkpoint, then asserts the storm survivor's itemsets equal
an uninterrupted in-process reference — the chaos-proven resume
contract, exercised end to end in under a minute.

Exit code 0 means the contract held; any other exit fails CI.
"""

import shutil
import sys
import tempfile
import time

from repro.associations import apriori
from repro.datasets import quest_basket
from repro.runtime import ChaosMonkey, Checkpointer, RetryPolicy, Supervisor

KILLS = 2


class SlowCheckpointer(Checkpointer):
    """Dwell briefly inside each marked boundary so the monkey's poll
    loop reliably lands its kill there (algorithms are untouched)."""

    def mark(self, key, state):
        super().mark(key, state)
        time.sleep(0.01)


def mine(db, min_support, ctx=None):
    if ctx is not None and ctx.checkpointer is not None:
        checkpoint = ctx.checkpointer
        ctx = ctx.replace(checkpointer=SlowCheckpointer(
            checkpoint.store,
            every=checkpoint.every,
            resume=checkpoint.resume_requested,
        ))
    return apriori(db, min_support, ctx=ctx)


def smoke(checkpoint_dir: str) -> int:
    db = quest_basket(500, random_state=13)
    reference = apriori(db, 0.02)
    print(f"reference: {len(reference)} itemsets from {len(db)} transactions")

    monkey = ChaosMonkey(
        kills=KILLS, after_checkpoints=(1, 2), random_state=5,
        poll_interval=0.001,
    )
    supervisor = Supervisor(
        retry=RetryPolicy(max_retries=KILLS + 2, base_delay=0.0, jitter=0.0),
        checkpoint_dir=checkpoint_dir,
        monkey=monkey,
    )
    outcome = supervisor.run(mine, db, 0.02)

    print(f"strikes landed: {len(monkey.strikes)} "
          f"(attempts: {outcome.attempts})")
    for report in outcome.reports:
        print(f"  attempt {report.attempt}: {report}")
    if len(monkey.strikes) < KILLS:
        print(f"FAIL: monkey landed {len(monkey.strikes)} < {KILLS} kills")
        return 1
    if outcome.value.supports != reference.supports:
        print("FAIL: storm survivor's itemsets differ from the reference")
        return 1
    print(f"OK: {len(outcome.value)} itemsets identical to the reference "
          f"after {len(monkey.strikes)} mid-run SIGKILLs")
    return 0



def main() -> int:
    """Run the smoke in a checkpoint directory kept only if it fails."""
    checkpoint_dir = tempfile.mkdtemp(prefix="chaos-smoke-")
    code = 1
    try:
        code = smoke(checkpoint_dir)
    finally:
        if code == 0:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        else:
            print(f"checkpoint directory kept: {checkpoint_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
