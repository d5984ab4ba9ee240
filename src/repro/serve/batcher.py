"""Cold-job dispatch onto the daemon's long-lived worker pool.

Cache misses are expensive (an adversary run or a 0-1 sweep), so the
daemon does not execute them inline.  :meth:`Batcher.start` forks the
daemon's ``workers`` processes once, before the listener opens, and
each cold job leases the next idle worker as soon as one is free
(waiters are served first come, first served).  The job runs through
:func:`repro.farm.runner.run_jobs` on that one worker, so per-job
timeouts, retries and the replacement of a dead worker are the farm
runner's own.  The blocking ``run_jobs`` call runs via
:func:`asyncio.to_thread`, which propagates the tracing context, so
``farm.job`` spans nest under the daemon's ``serve.batch`` span.

A lease ends only when its ``run_jobs`` call returns: the worker thread
hands the worker back to the loop, so a waiter that gives up (a 504, a
drain) never frees a worker whose pipe a job still holds.

The cache layer above already single-flights identical requests, so
every job reaching the pool is distinct.  The module, the class and the
``serve.batch`` span keep their names from when cold jobs were
coalesced into batches: the benchmark's layer hooks wrap
:meth:`Batcher.submit` and this module's ``run_jobs``, and each
dispatch is one ``run_jobs`` call of one job.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any

from ..errors import ReproError, ServeError
from ..farm.jobs import Job
from ..farm.runner import run_jobs, start_workers, stop_workers
from ..obs import events as obs_events
from ..obs.registry import get_registry
from ..obs.trace import get_tracer

__all__ = ["Batcher"]


class Batcher:
    """Lease one idle worker of a long-lived pool to each cold job."""

    def __init__(
        self,
        *,
        workers: int = 2,
        job_timeout: "float | None" = None,
        retries: int = 0,
    ):
        self.workers = max(1, int(workers))
        self.job_timeout = job_timeout
        self.retries = max(0, int(retries))
        self._idle: list = []
        self._waiters: "deque[asyncio.Future]" = deque()
        #: Result futures of jobs on the pool, failed by :meth:`stop`.
        self._running: "set[asyncio.Future]" = set()
        #: The ``to_thread`` tasks behind them, referenced until done.
        self._threads: "set[asyncio.Task]" = set()
        self._started = False
        self._closed = False
        #: Dispatches (one job each); ``/statsz`` reports both names.
        self.batches = 0
        self.dispatched = 0

    def start(self) -> None:
        """Fork the worker pool (idempotent)."""
        if not self._started:
            self._started = True
            self._idle.extend(start_workers(self.workers))

    async def stop(self) -> None:
        """Fail every waiter and shut the idle workers down.

        A job still on the pool keeps its worker until ``run_jobs``
        returns; the worker is shut down then, not handed out again.
        """
        self._closed = True
        while self._waiters:
            _fail(self._waiters.popleft(),
                  "daemon shutting down before dispatch")
        for future in self._running:
            _fail(future, "daemon shutting down mid-dispatch")
        idle, self._idle = self._idle, []
        if idle:
            await asyncio.to_thread(stop_workers, idle)

    async def submit(self, job: Job) -> dict[str, Any]:
        """Run one job on the next idle worker; await its result document.

        Raises :class:`~repro.errors.ServeError` when the job errors or
        times out on the pool (carrying the worker's error string), or
        when the daemon stops first.
        """
        if self._closed:
            raise ServeError("daemon shutting down before dispatch")
        self.start()
        worker = await self._acquire()
        self.batches += 1
        self.dispatched += 1
        get_registry().inc("serve.batches")
        loop = asyncio.get_running_loop()
        landed = loop.create_future()
        self._running.add(landed)
        try:
            with get_tracer().span(obs_events.SPAN_SERVE_BATCH, jobs=1):
                thread = loop.create_task(asyncio.to_thread(
                    self._run, loop, [worker], job, landed
                ))
                self._threads.add(thread)
                thread.add_done_callback(self._threads.discard)
                report = await landed
        except ServeError:
            raise
        except ReproError as exc:
            # a dispatcher-side failure (pickling, a fork that failed)
            raise ServeError(
                f"batch dispatch failed before any job ran: {exc}"
            ) from exc
        finally:
            self._running.discard(landed)
        outcome = report.outcomes[0] if report.outcomes else None
        if outcome is None:
            raise ServeError(f"job {job.label()} vanished from its report")
        if not outcome.ok or outcome.result is None:
            raise ServeError(
                f"job {job.label()} failed on the pool ({outcome.status}): "
                f"{outcome.error or 'no result'}"
            )
        return outcome.result

    async def _acquire(self):
        """The next idle worker, waiting in line for one if none is."""
        if self._idle:
            return self._idle.pop()
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        try:
            return await waiter
        except asyncio.CancelledError:
            # handed a worker in the same tick as the cancel: pass it on
            if (waiter.done() and not waiter.cancelled()
                    and waiter.exception() is None):
                self._release(waiter.result())
            raise

    def _release(self, worker) -> None:
        """Hand a worker to the first live waiter, else back to idle."""
        if self._closed:
            stop_workers([worker])
            return
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(worker)
                return
        self._idle.append(worker)

    def _run(self, loop, slot: list, job: Job, landed) -> None:
        """One lease, on a worker thread: run the job, then hand the
        (possibly replaced) worker and the report back to the loop."""
        try:
            outcome: Any = run_jobs(
                [job],
                workers=len(slot),
                pool=slot,
                timeout=self.job_timeout,
                retries=self.retries,
            )
        except Exception as exc:
            outcome = exc
        try:
            loop.call_soon_threadsafe(self._land, slot[0], landed, outcome)
        except RuntimeError:
            # the loop closed first: nobody can lease the worker again
            stop_workers(slot)

    def _land(self, worker, landed, outcome) -> None:
        self._release(worker)
        if landed.done():
            return  # stop() already failed the waiter
        if isinstance(outcome, BaseException):
            landed.set_exception(outcome)
            landed.exception()  # retrieved, even if its waiter is gone
        else:
            landed.set_result(outcome)


def _fail(future: asyncio.Future, message: str) -> None:
    if not future.done():
        future.set_exception(ServeError(message))
        # consumed, so a future nobody awaits logs nothing at GC
        future.exception()
