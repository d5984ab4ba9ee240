"""Read-through result cache: memory LRU over the artifact store.

The service's hot path.  A request's result is looked up in three
tiers, cheapest first:

1. an in-process LRU of result documents (``memory`` -- no disk, no
   revalidation: entries only enter this tier already trusted);
2. the content-addressed :class:`~repro.farm.ArtifactStore` (``store``
   -- the document passes :func:`repro.farm.store.trusted_document`
   with the job's own :meth:`repro.farm.jobs.Job.revalidate`, off the
   event loop, exactly as a resumed farm campaign would trust it);
3. the compute callback (``computed`` -- the batcher dispatches the job
   to the pre-fork worker pool and the result is persisted to the store
   before anyone sees it).

Concurrent identical requests are *single-flighted*: the first caller
computes, every later caller awaits the same future and reports source
``joined``.  This is what turns a thundering herd of identical cold
requests into exactly one adversary run.

Blocking discipline (checked by ``repro race``): the event loop never
touches the disk.  Tier-2 store reads and the post-compute store write
run on worker threads via :func:`asyncio.to_thread`; the store's own
internal lock makes its LRU safe under those threads, and single-flight
guarantees at most one writer per key.  Everything else -- the memory
LRU, the in-flight futures, the counters -- is touched from the loop
thread only and needs no lock.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, Awaitable, Callable

from ..farm.jobs import Job
from ..farm.store import ArtifactStore, trusted_document
from ..obs import events as obs_events
from ..obs.registry import get_registry
from ..obs.trace import get_tracer

__all__ = ["ServeCache"]

#: Type of the cold-miss callback: run the job, return its result doc.
ComputeFn = Callable[[Job], Awaitable[dict[str, Any]]]


class ServeCache:
    """Single-flight, read-through cache in front of an artifact store."""

    def __init__(self, store: ArtifactStore, *, memory_size: int = 1024):
        self.store = store
        self.memory_size = max(0, int(memory_size))
        self._memory: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._inflight: dict[str, asyncio.Future] = {}
        #: Lookup counts by source, plus revalidation failures.
        self.counters: dict[str, int] = {
            "memory": 0,
            "store": 0,
            "joined": 0,
            "computed": 0,
            "revalidation_miss": 0,
        }

    def _remember(self, key: str, result: dict[str, Any]) -> None:
        if self.memory_size <= 0:
            return
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_size:
            self._memory.popitem(last=False)

    async def lookup(
        self, job: Job, compute: ComputeFn
    ) -> tuple[dict[str, Any], str]:
        """Resolve one job to ``(result document, source)``.

        ``compute`` is awaited only on a full miss, at most once per key
        across all concurrent callers.  Raises whatever ``compute``
        raises; joined waiters see the same exception.
        """
        key = job.key()
        tracer = get_tracer()
        hit = self._memory.get(key)
        if hit is not None:
            self._memory.move_to_end(key)
            self.counters["memory"] += 1
            get_registry().inc("serve.cache.memory")
            if tracer.enabled:
                tracer.event(
                    obs_events.EV_SERVE_CACHE,
                    key=key[:12], source="memory", op=job.kind,
                )
            return hit, "memory"
        shared = self._inflight.get(key)
        if shared is not None:
            result = await asyncio.shield(shared)
            self.counters["joined"] += 1
            get_registry().inc("serve.cache.joined")
            if tracer.enabled:
                tracer.event(
                    obs_events.EV_SERVE_CACHE,
                    key=key[:12], source="joined", op=job.kind,
                )
            return result, "joined"
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            # tier-2 disk access runs off the loop: the read + reval is
            # a one-time cost per key per process, but one cold read
            # must not stall every other connection
            doc, refused = await asyncio.to_thread(
                trusted_document, self.store, key, job.revalidate
            )
            if refused:
                self.counters["revalidation_miss"] += 1
                get_registry().inc("serve.cache.revalidation_miss")
            if doc is not None:
                result, source = doc["result"], "store"
            else:
                result = await compute(job)
                await asyncio.to_thread(
                    self.store.put,
                    key,
                    {"job": job.to_json(), "status": "ok", "result": result},
                )
                source = "computed"
            self._remember(key, result)
            future.set_result(result)
        except BaseException as exc:
            future.set_exception(exc)
            # consume the exception so a flight nobody joined does not
            # log "exception was never retrieved" at GC time
            future.exception()
            raise
        finally:
            self._inflight.pop(key, None)
        self.counters[source] += 1
        get_registry().inc(f"serve.cache.{source}")
        if tracer.enabled:
            tracer.event(
                obs_events.EV_SERVE_CACHE,
                key=key[:12], source=source, op=job.kind,
            )
        return result, source
