"""Multiprocessing worker-pool executor for farm jobs.

A small pre-fork server: ``workers`` long-lived processes each hold one
end of a pipe; the parent streams job documents to idle workers and
collects result documents with :func:`multiprocessing.connection.wait`.
This keeps per-job overhead at one pickle round-trip rather than one
process spawn, while still supporting hard per-job timeouts -- a worker
that blows its deadline is killed and replaced with a fresh process.

Failure semantics:

* a job that **raises** is reported with status ``"error"`` (and the
  worker survives to take the next job);
* a job that **exceeds its timeout** is reported with ``"timeout"``;
* both are retried up to ``retries`` times with exponential backoff
  before the failure becomes final;
* **SIGINT** (KeyboardInterrupt) stops dispatch, kills the in-flight
  workers, and returns normally with every unfinished job marked
  ``"interrupted"`` -- results already completed have already been
  streamed to ``on_result``, so a campaign writing to an artifact store
  loses nothing that finished.

Workers ignore SIGINT themselves (the parent owns cancellation), and
results are persisted by the parent only, so a store is never written
from two processes at once.

A campaign forks its own pool for each :func:`run_jobs` call.  A
long-lived caller (the certificate daemon) forks workers once with
:func:`start_workers` and passes them as ``pool=``: the call then forks
nothing and shuts nothing down, and a worker that dies or times out is
replaced in place in the caller's list.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing as mp
import signal
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Any, Callable

from ..errors import FarmError
from ..obs import events as obs_events
from ..obs.registry import (
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from ..obs.report import timing_aggregates
from ..obs.sinks import MemorySink
from ..obs.trace import Tracer, get_tracer, reset_context, set_tracer, use_tracer
from .heartbeat import HeartbeatWriter
from .jobs import Job, job_from_json

__all__ = ["JobOutcome", "RunReport", "run_jobs", "start_workers", "stop_workers"]

logger = logging.getLogger("repro.farm")

#: Grace period between SIGTERM and SIGKILL when cancelling a worker.
_KILL_GRACE = 0.5


@dataclass
class JobOutcome:
    """Final fate of one job."""

    job: Job
    key: str
    status: str  # "ok" | "error" | "timeout" | "interrupted" | "cached"
    result: dict[str, Any] | None = None
    error: str | None = None
    elapsed: float = 0.0
    attempts: int = 0
    cached: bool = False
    #: Seconds the (last attempt of the) job sat dispatchable before a
    #: worker picked it up; excludes retry backoff.
    queue_wait: float = 0.0
    #: Worker-side CPU seconds (``time.process_time``) for the job body.
    cpu: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the job's result is usable (freshly computed or cached)."""
        return self.status in ("ok", "cached")


@dataclass
class RunReport:
    """Everything :func:`run_jobs` observed, in completion order."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    interrupted: bool = False
    wall_time: float = 0.0

    def by_status(self) -> dict[str, int]:
        """Outcome counts keyed by status string."""
        counts: dict[str, int] = {}
        for out in self.outcomes:
            counts[out.status] = counts.get(out.status, 0) + 1
        return counts

    def timing(self) -> dict[str, dict[str, float]]:
        """p50/p95/max/total for wall-clock and queue wait (fresh jobs only)."""
        executed = [out for out in self.outcomes if not out.cached]
        return {
            "elapsed": timing_aggregates([out.elapsed for out in executed]),
            "queue_wait": timing_aggregates(
                [out.queue_wait for out in executed]
            ),
        }


def _worker_main(conn: Connection) -> None:
    """Worker loop: receive a job envelope, execute, send the outcome.

    The envelope is ``{"job": <job doc>, "trace": <child context | None>,
    "metrics": <bool>}``.  When a trace context rides along, the job
    body runs under a child tracer writing to memory, and the collected
    records travel back in the result document for the parent to merge
    (see :meth:`repro.obs.trace.Tracer.adopt`).  When ``metrics`` is
    true the body also runs under a fresh per-job
    :class:`~repro.obs.registry.MetricsRegistry` segment, whose snapshot
    ships back as ``out["metrics"]`` for the parent to
    :meth:`~repro.obs.registry.MetricsRegistry.merge` -- the registry's
    adoption flow.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # a child forked under an asyncio loop's signal handlers would
    # otherwise write every signal it gets to the parent's wakeup fd,
    # and the parent's loop would act on it as its own (a drain)
    signal.set_wakeup_fd(-1)
    # a forked child must never inherit the parent's tracer, open span,
    # or metrics registry
    set_tracer(None)
    set_registry(None)
    reset_context()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        ctx = msg.get("trace")
        start = time.perf_counter()
        cpu0 = time.process_time()
        records: list[dict[str, Any]] | None = None
        segment = MetricsRegistry() if msg.get("metrics") else None
        try:
            job = job_from_json(msg["job"])
            with contextlib.ExitStack() as stack:
                if segment is not None:
                    stack.enter_context(use_registry(segment))
                if ctx is not None:
                    sink = MemorySink()
                    child = Tracer.from_context(ctx, sink)
                    records = sink.records
                    stack.enter_context(use_tracer(child))
                    stack.enter_context(
                        child.span(obs_events.SPAN_FARM_EXECUTE, kind=job.kind)
                    )
                result = job.execute()
            out: dict[str, Any] = {"status": "ok", "result": result}
        except Exception as exc:
            out = {
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=8),
            }
        out["elapsed"] = time.perf_counter() - start
        out["cpu"] = time.process_time() - cpu0
        if records:
            out["trace"] = records
        if segment is not None:
            out["metrics"] = segment.snapshot()
        try:
            conn.send(out)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _Worker:
    """One pooled process plus its control pipe and current assignment."""

    def __init__(self, ctx):
        self.conn, child = ctx.Pipe(duplex=True)
        # A replacement is forked from the thread running run_jobs (the
        # daemon runs it off its event loop): the child runs
        # _worker_main, which re-seeds rng state and rebuilds its own
        # registry/tracer before touching anything inherited, and the
        # farm's fork-safety rules (flow/fork-hostile-call,
        # forksafety/*) keep the worker's reachable set free of
        # inherited locks and handles.
        self.process = ctx.Process(  # sanitize: ok[race/fork-after-thread]
            target=_worker_main, args=(child,), daemon=True
        )
        self.process.start()
        child.close()
        get_registry().inc("farm.workers_started")
        self.item: "_Pending | None" = None
        self.started = 0.0
        self.jobs_done = 0

    @property
    def busy(self) -> bool:
        return self.item is not None

    def dispatch(
        self,
        item: "_Pending",
        trace_ctx: "dict | None",
        *,
        metrics: bool = False,
    ) -> None:
        self.item = item
        self.started = time.monotonic()
        try:
            self.conn.send({
                "job": item.job.to_json(),
                "trace": trace_ctx,
                "metrics": metrics,
            })
        except (BrokenPipeError, OSError):
            pass  # died since the liveness check: reaped as a death

    def kill(self) -> None:
        """Terminate the process, escalating to SIGKILL if needed."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_KILL_GRACE)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(_KILL_GRACE)
        self.conn.close()

    def shutdown(self) -> None:
        """Polite stop for an idle worker."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(_KILL_GRACE)
        if self.process.is_alive():
            self.kill()
        else:
            self.conn.close()


@dataclass
class _Pending:
    job: Job
    key: str
    attempts: int = 0
    eligible_at: float = 0.0  # monotonic time before which we must not run
    queued_at: float = 0.0  # monotonic time the item became dispatchable
    queue_wait: float = 0.0  # measured wait of the latest dispatch
    span_id: "str | None" = None  # parent-allocated farm.job span id
    span_start: float = 0.0  # wall-clock dispatch time for that span


def _mp_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def start_workers(count: int) -> "list[_Worker]":
    """Fork ``count`` workers to pass as :func:`run_jobs`'s ``pool``."""
    ctx = _mp_context()
    return [_Worker(ctx) for _ in range(count)]


def stop_workers(pool: "list[_Worker]") -> None:
    """Shut down idle workers started by :func:`start_workers`."""
    for worker in pool:
        worker.shutdown()


def run_jobs(
    jobs: list[Job],
    *,
    workers: int = 1,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.5,
    on_result: Callable[[JobOutcome], None] | None = None,
    heartbeat: "HeartbeatWriter | None" = None,
    pool: "list[_Worker] | None" = None,
) -> RunReport:
    """Execute ``jobs`` on a pool of ``workers`` processes.

    ``timeout`` is the per-job wall-clock budget in seconds (``None``
    disables it).  ``on_result`` is invoked in the parent for every final
    outcome, in completion order, *before* the run returns -- campaigns
    use it to persist results as they land so an interrupt loses nothing.
    ``heartbeat`` (a :class:`~repro.farm.heartbeat.HeartbeatWriter`)
    publishes runner/worker liveness files while the pool runs; the
    writer rate-limits itself, so the runner beats every loop pass.
    ``pool`` (from :func:`start_workers`) runs the jobs on those idle
    workers instead of forking ``workers`` new ones; they stay alive
    after the call, and a dead or timed-out one is replaced in place.
    """
    if workers < 1:
        raise FarmError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise FarmError(f"retries must be >= 0, got {retries}")
    report = RunReport()
    tracer = get_tracer()
    registry = get_registry()
    start_wall = time.perf_counter()
    now0 = time.monotonic()
    pending = [_Pending(job=j, key=j.key(), queued_at=now0) for j in jobs]
    queue: list[_Pending] = list(pending)
    ctx = _mp_context()
    owned = pool is None
    if pool is None:
        pool = []
    failed = 0

    def finish(outcome: JobOutcome) -> None:
        nonlocal failed
        report.outcomes.append(outcome)
        if outcome.status in ("error", "timeout"):
            failed += 1
        registry.inc(f"farm.jobs_{outcome.status}")
        registry.observe("farm.queue_wait_seconds", outcome.queue_wait)
        if on_result is not None:
            on_result(outcome)

    def beat(force: bool = False) -> None:
        """Publish liveness; also the registry's ring-series tick."""
        if heartbeat is None:
            return
        registry.sample()
        heartbeat.beat_runner(
            queue_depth=len(queue),
            inflight=sum(1 for w in pool if w.busy),
            done=len(report.outcomes),
            failed=failed,
            total=len(jobs),
            workers=len(pool),
            force=force,
        )
        now = time.monotonic()
        for i, worker in enumerate(pool):
            heartbeat.beat_worker(
                i,
                pid=worker.process.pid,
                busy=worker.busy,
                job=worker.item.job.label() if worker.busy else None,
                job_elapsed=(now - worker.started) if worker.busy else 0.0,
                jobs_done=worker.jobs_done,
                force=force,
            )

    def close_job_span(item: _Pending, status: str, **attrs: Any) -> None:
        """Emit the parent-side ``farm.job`` span for one attempt."""
        if item.span_id is None:
            return
        tracer.emit_span(
            obs_events.SPAN_FARM_JOB,
            start=item.span_start,
            dur=time.time() - item.span_start,
            span_id=item.span_id,
            status="ok" if status == "ok" else "error",
            job=item.job.label(),
            key=item.key[:12],
            attempt=item.attempts,
            outcome=status,
            queue_wait=round(item.queue_wait, 6),
            **attrs,
        )
        item.span_id = None

    def settle_failure(item: _Pending, status: str, error: str,
                       elapsed: float, cpu: float = 0.0) -> None:
        """Retry with backoff if budget remains, else finalise."""
        if item.attempts <= retries:
            delay = backoff * (2 ** (item.attempts - 1))
            item.eligible_at = time.monotonic() + delay
            # backoff is not queue time: the wait clock restarts when the
            # item becomes dispatchable again
            item.queued_at = item.eligible_at
            queue.append(item)
            if tracer.enabled:
                tracer.event(
                    obs_events.EV_RETRY,
                    job=item.job.label(),
                    attempt=item.attempts,
                    status=status,
                    delay=round(delay, 3),
                    error=error,
                )
            logger.warning(
                "farm: retrying %s after %s (attempt %d/%d, backoff %.2fs)",
                item.job.label(), status, item.attempts, retries + 1, delay,
            )
            return
        finish(
            JobOutcome(
                job=item.job,
                key=item.key,
                status=status,
                error=error,
                elapsed=elapsed,
                attempts=item.attempts,
                queue_wait=item.queue_wait,
                cpu=cpu,
            )
        )

    def replace(worker: _Worker) -> _Worker:
        """Kill ``worker`` and fork its successor into its pool slot."""
        worker.kill()
        fresh = _Worker(ctx)
        pool[pool.index(worker)] = fresh
        return fresh

    def reap(worker: _Worker) -> None:
        """Collect one ready result (or a dead worker) off the pipe."""
        item = worker.item
        assert item is not None
        worker.item = None
        try:
            msg = worker.conn.recv()
        except (EOFError, OSError):
            # the worker died without reporting; replace it
            replace(worker)
            close_job_span(item, "died")
            if tracer.enabled:
                tracer.event(
                    obs_events.EV_WORKER_DEATH,
                    job=item.job.label(),
                    attempt=item.attempts,
                )
            logger.warning(
                "farm: worker died running %s", item.job.label()
            )
            settle_failure(
                item,
                "error",
                f"worker process {worker.process.pid} died unexpectedly "
                f"(exit code {worker.process.exitcode})",
                time.monotonic() - worker.started,
            )
            return
        worker.jobs_done += 1
        elapsed = float(msg.get("elapsed", 0.0))
        cpu = float(msg.get("cpu", 0.0))
        status = "ok" if msg.get("status") == "ok" else "error"
        close_job_span(item, status, elapsed=round(elapsed, 6),
                       cpu=round(cpu, 6))
        tracer.adopt(msg.get("trace"))
        if msg.get("metrics"):
            registry.merge(msg["metrics"])
        if status == "ok":
            finish(
                JobOutcome(
                    job=item.job,
                    key=item.key,
                    status="ok",
                    result=msg.get("result"),
                    elapsed=elapsed,
                    attempts=item.attempts,
                    queue_wait=item.queue_wait,
                    cpu=cpu,
                )
            )
        else:
            settle_failure(
                item,
                "error",
                msg.get("error", "unknown worker error"),
                elapsed,
                cpu=cpu,
            )

    def expire(worker: _Worker) -> None:
        """Kill a worker whose job blew the deadline; replace it."""
        item = worker.item
        assert item is not None
        elapsed = time.monotonic() - worker.started
        worker.item = None
        replace(worker)
        close_job_span(item, "timeout")
        if tracer.enabled:
            tracer.event(
                obs_events.EV_TIMEOUT,
                job=item.job.label(),
                attempt=item.attempts,
                timeout=timeout,
                elapsed=round(elapsed, 3),
            )
        logger.warning(
            "farm: %s exceeded %ss timeout (attempt %d)",
            item.job.label(), timeout, item.attempts,
        )
        settle_failure(
            item, "timeout", f"exceeded {timeout}s timeout", elapsed
        )

    interrupted = False
    try:
        if owned:
            size = min(workers, max(len(jobs), 1))
            pool.extend(_Worker(ctx) for _ in range(size))
        beat(force=True)
        while True:
            now = time.monotonic()
            # dispatch eligible work to idle workers
            for worker in pool:
                if worker.busy:
                    continue
                idx = next(
                    (
                        i
                        for i, item in enumerate(queue)
                        if item.eligible_at <= now
                    ),
                    None,
                )
                if idx is None:
                    break
                item = queue.pop(idx)
                item.attempts += 1
                item.queue_wait = max(0.0, now - item.queued_at)
                trace_ctx = None
                if tracer.enabled:
                    item.span_id = tracer.allocate_id()
                    item.span_start = time.time()
                    trace_ctx = tracer.child_context(item.span_id)
                if not worker.process.is_alive():
                    # died while idle (a caller-owned pool outlives jobs)
                    worker = replace(worker)
                worker.dispatch(item, trace_ctx, metrics=registry.enabled)
            beat()
            busy = [w for w in pool if w.busy]
            if not busy and not queue:
                break
            # wait until a result lands, a deadline passes, or a
            # backed-off retry becomes eligible
            waits: list[float] = []
            if timeout is not None:
                waits.extend(
                    max(0.0, w.started + timeout - now) for w in busy
                )
            waits.extend(
                max(0.0, item.eligible_at - now)
                for item in queue
                if item.eligible_at > now
            )
            poll = min(waits) if waits else None
            ready = wait([w.conn for w in busy], timeout=poll) if busy else []
            # the set is rebuilt per poll because `ready` changes per
            # poll, and `pool` is snapshotted because reap/expire may
            # replace workers mid-iteration; both are <= `workers` long
            ready_set = set(ready)  # sanitize: ok[perf/copy-in-loop]
            for worker in list(pool):  # sanitize: ok[perf/copy-in-loop]
                if worker.busy and worker.conn in ready_set:
                    reap(worker)
            if timeout is not None:
                now = time.monotonic()
                for worker in list(pool):  # sanitize: ok[perf/copy-in-loop]
                    if worker.busy and now - worker.started > timeout:
                        expire(worker)
            if not busy and queue:
                # nothing running: just sleep out the shortest backoff
                time.sleep(min(0.05, poll or 0.05))
    except KeyboardInterrupt:
        interrupted = True
        logger.warning("farm: interrupted; cancelling unfinished jobs")
        for worker in pool:
            if worker.busy:
                item = worker.item
                worker.item = None
                close_job_span(item, "interrupted")
                finish(
                    JobOutcome(
                        job=item.job,
                        key=item.key,
                        status="interrupted",
                        error="cancelled by SIGINT",
                        attempts=item.attempts,
                        queue_wait=item.queue_wait,
                    )
                )
        for item in queue:
            finish(
                JobOutcome(
                    job=item.job,
                    key=item.key,
                    status="interrupted",
                    error="cancelled by SIGINT",
                    attempts=item.attempts,
                )
            )
    finally:
        beat(force=True)
        for worker in pool:
            if worker.busy or (owned and interrupted):
                worker.kill()
            elif owned:
                worker.shutdown()
    report.interrupted = interrupted
    report.wall_time = time.perf_counter() - start_wall
    return report
