"""Drain discipline: every queued future settles, the loop never stalls.

Issue 9's satellite bar for the serve stack: batcher/server shutdown
must *resolve or fail* every queued ``asyncio.Future`` -- no pending
futures stranded in a cancelled task's locals, no "Task was destroyed"
or "exception was never retrieved" noise at loop close -- and the
cache's tier-2 store access must stay off the event loop (the race
analyzer's first real catch, pinned here with a deliberately slow
store rather than wall-clock-noisy load numbers).

Every scenario runs under ``asyncio`` debug mode, which is what makes
the leak assertions bite: debug mode logs destroyed-pending tasks and
unretrieved exceptions through the ``asyncio`` logger.
"""

import asyncio
import gc
import logging
import threading
import time

import pytest

from repro.errors import FarmError, ServeError
from repro.farm.jobs import job_for
from repro.farm.store import ArtifactStore
from repro.serve.batcher import Batcher
from repro.serve.cache import ServeCache

JOB_A = {"sorter": "oddeven_transposition", "n": 4}
JOB_B = {"sorter": "oddeven_transposition", "n": 5}


def run_debug(coro, caplog):
    """Run under asyncio debug mode and assert no leak diagnostics."""
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        result = asyncio.run(coro, debug=True)
        gc.collect()  # trigger any destroyed-pending-task complaints now
    noise = [
        record.getMessage()
        for record in caplog.records
        if "Task was destroyed" in record.getMessage()
        or "never retrieved" in record.getMessage()
    ]
    assert noise == [], noise
    return result


class TestBatcherDrain:
    def test_stop_fails_futures_already_pulled_into_the_batch(
        self, caplog, monkeypatch
    ):
        # The one worker is held by a dispatch stuck on its thread, so
        # the second job waits in line for it; stop() must fail that
        # waiter too, not just the job already on the pool.
        release = threading.Event()

        def stuck_run_jobs(jobs, **kwargs):
            release.wait(10)
            raise FarmError("nobody should read this")

        monkeypatch.setattr(
            "repro.serve.batcher.run_jobs", stuck_run_jobs
        )

        async def scenario():
            batcher = Batcher(workers=1)
            tasks = [
                asyncio.create_task(batcher.submit(job_for("verify", p)))
                for p in (JOB_A, JOB_B)
            ]
            await asyncio.sleep(0.05)  # one dispatched, one waiting
            await batcher.stop()
            try:
                return await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True),
                    timeout=10,
                )
            finally:
                release.set()

        results = run_debug(scenario(), caplog)
        assert len(results) == 2
        for exc in results:
            assert isinstance(exc, ServeError)
            assert "shutting down" in str(exc)

    def test_stop_fails_futures_of_a_batch_mid_dispatch(
        self, caplog, monkeypatch
    ):
        # Cancellation while run_jobs is on its worker thread: the
        # thread finishes on its own, the waiters must not hang.
        release = threading.Event()
        dispatching = threading.Event()

        def stuck_run_jobs(jobs, **kwargs):
            dispatching.set()
            release.wait(10)
            raise FarmError("nobody should read this")

        monkeypatch.setattr(
            "repro.serve.batcher.run_jobs", stuck_run_jobs
        )

        async def scenario():
            batcher = Batcher(workers=1)
            task = asyncio.create_task(
                batcher.submit(job_for("verify", JOB_A))
            )
            await asyncio.to_thread(dispatching.wait, 10)
            await batcher.stop()
            try:
                return await asyncio.wait_for(task, timeout=10)
            finally:
                release.set()

        with pytest.raises(ServeError, match="mid-dispatch"):
            run_debug(scenario(), caplog)

    def test_dispatcher_crash_fails_the_batch_not_the_daemon(
        self, caplog, monkeypatch
    ):
        # A pool-level failure (a fork, pickling) must fail only that
        # request with a ServeError and hand the worker back for the
        # next one.
        def exploding_run_jobs(jobs, **kwargs):
            raise FarmError("pool exploded")

        monkeypatch.setattr(
            "repro.serve.batcher.run_jobs", exploding_run_jobs
        )

        async def scenario():
            batcher = Batcher(workers=1)
            first = await asyncio.gather(
                batcher.submit(job_for("verify", JOB_A)),
                batcher.submit(job_for("verify", JOB_B)),
                return_exceptions=True,
            )
            assert len(batcher._idle) == 1  # the worker is back in the pool
            second = await asyncio.gather(
                batcher.submit(job_for("verify", JOB_A)),
                return_exceptions=True,
            )
            await batcher.stop()
            return first + second

        results = run_debug(scenario(), caplog)
        assert len(results) == 3
        for exc in results:
            assert isinstance(exc, ServeError)
            assert "batch dispatch failed before any job ran" in str(exc)

    def test_clean_dispatch_still_resolves_results(self, caplog):
        # the hardening must not break the happy path
        async def scenario():
            batcher = Batcher(workers=1)
            result = await batcher.submit(job_for("verify", JOB_A))
            await batcher.stop()
            return result

        result = run_debug(scenario(), caplog)
        assert result["is_sorter"] is True


class _SlowStore(ArtifactStore):
    """An artifact store with a disk that takes ``delay`` per access."""

    def __init__(self, root, delay):
        super().__init__(root)
        self.delay = delay

    def get(self, key):
        time.sleep(self.delay)
        return super().get(key)

    def put(self, key, doc):
        time.sleep(self.delay)
        return super().put(key, doc)


class TestLoopResponsiveness:
    DELAY = 0.25

    def _prepopulated(self, tmp_path, job):
        store = _SlowStore(tmp_path / "store", self.DELAY)
        result = job.execute()
        store.put(
            job.key(),
            {"job": job.to_json(), "status": "ok", "result": result},
        )
        return store

    def test_tier2_store_read_does_not_stall_the_loop(
        self, tmp_path, caplog
    ):
        # While one request pays the slow store read, a concurrent
        # ticker on the same loop must keep waking up on time.  Before
        # the asyncio.to_thread fix the read ran on the loop and every
        # gap below would be >= DELAY.
        job = job_for("verify", JOB_A)
        store = self._prepopulated(tmp_path, job)

        async def scenario():
            cache = ServeCache(store)

            async def never_compute(j):
                raise AssertionError("store hit expected, not compute")

            lookup = asyncio.create_task(cache.lookup(job, never_compute))
            gaps = []
            last = asyncio.get_running_loop().time()
            while not lookup.done():
                await asyncio.sleep(0.01)
                now = asyncio.get_running_loop().time()
                gaps.append(now - last)
                last = now
            result, source = await lookup
            return source, max(gaps)

        source, worst_gap = run_debug(scenario(), caplog)
        assert source == "store"
        assert worst_gap < self.DELAY, (
            f"loop stalled {worst_gap:.3f}s during a tier-2 store read"
        )

    def test_memory_hit_never_touches_the_store(self, tmp_path, caplog):
        # the warm tier stays warm: after the first lookup the slow
        # store is out of the picture entirely
        job = job_for("verify", JOB_A)
        store = self._prepopulated(tmp_path, job)

        async def scenario():
            cache = ServeCache(store)

            async def never_compute(j):
                raise AssertionError("store hit expected, not compute")

            await cache.lookup(job, never_compute)
            start = asyncio.get_running_loop().time()
            result, source = await cache.lookup(job, never_compute)
            return source, asyncio.get_running_loop().time() - start

        source, elapsed = run_debug(scenario(), caplog)
        assert source == "memory"
        assert elapsed < self.DELAY
