"""Two lease defects of the lock files ``repro.durable.Lease`` replaced.

* A claimant killed between its ``O_EXCL`` create and its write left an
  empty lease that nobody could ever claim again: every later poll of a
  torn shard lease counted one more claim contention, and a torn planning
  lease left its campaign unplanned forever.
* Breaking a stale lock did not elect one winner: a waiter judged the
  lock stale, a second waiter broke it and took it, then the first waiter
  unlinked that fresh lock and took the lock as well.  The lock's breaker
  unlinked right after judging; a ``Lease``'s breaker opens its reclaim
  guard there, so that is where the second waiter is let in.
"""

import os
import time

from repro.durable import Lease
from repro.serve.spec import CampaignSpec
from repro.serve.store import CampaignStore

from tests.durable.test_crash_points import dead_holder
from tests.serve import kinds  # noqa: F401  (registers serve_echo)


def torn_lease(path):
    """An empty lease file last touched an hour ago."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    open(path, "wb").close()
    past = time.time() - 3600
    os.utime(path, (past, past))


def test_torn_shard_lease_is_claimable(tmp_path):
    path = str(tmp_path / "shard-0000.lease")
    torn_lease(path)
    lease = Lease(path, owner="next", ttl=0.5)
    assert lease.is_expired()
    assert lease.try_claim()
    assert lease.acquired_via == "reclaim"


def test_torn_planning_lease_is_claimable(tmp_path):
    store = CampaignStore(str(tmp_path), lease_ttl=0.5)
    cid = store.submit(CampaignSpec(kind="serve_echo", params={"count": 2}))
    torn_lease(os.path.join(store.campaign_dir(cid), "leases", "plan.lease"))
    work = store.claim_work(cid, "next")
    assert work is not None and work[0] == "plan"
    assert work[1].held


def test_breaking_a_dead_owners_lock_elects_one_holder(tmp_path,
                                                        monkeypatch):
    path = str(tmp_path / ".lock")
    dead_holder(path)
    past = time.time() - 3600
    os.utime(path, (past, past))
    first, second = Lease(path), Lease(path)
    real_open = os.open
    calls = []

    def open_once(target, *args, **kwargs):
        # the first waiter has judged the lock stale; its next step (the
        # reclaim guard) waits until the second waiter's whole acquire()
        # has run
        if not calls:
            calls.append(target)
            second.acquire(timeout=5.0)
        return real_open(target, *args, **kwargs)

    monkeypatch.setattr(os, "open", open_once)
    try:
        first.acquire(timeout=0.5)
    except TimeoutError:
        pass
    assert calls and calls[0].endswith(".reclaim"), calls
    assert [first.held, second.held].count(True) == 1
