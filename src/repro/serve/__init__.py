"""The certificate service: an async, cache-fronted daemon over the farm.

``repro serve`` turns the repository's attack/verify machinery into a
long-lived queryable service.  A request names a farm job (an adversary
run against a network, or a 0-1 verification of a registry sorter); the
daemon answers from an in-process LRU, the content-addressed artifact
store (revalidated through the job's own trust boundary), or -- on a
cold miss -- by running the job on the daemon's long-lived worker pool.
Identical requests return byte-identical certificate documents.

Layering (each module depends only on those above it):

:mod:`~repro.serve.protocol`
    The versioned wire schema, shared with ``repro verify --json``.
:mod:`~repro.serve.cache`
    Read-through memory -> store -> compute lookup with single-flight
    deduplication of concurrent identical requests.
:mod:`~repro.serve.batcher`
    Cold-miss dispatch: each job leases an idle worker of the pool the
    daemon forks once, through :func:`repro.farm.runner.run_jobs`.
:mod:`~repro.serve.server`
    The asyncio HTTP front end: backpressure, timeouts, graceful drain.
:mod:`~repro.serve.client`
    Stdlib client speaking the protocol.
:mod:`~repro.serve.loadgen`
    Closed-loop load generator reporting p50/p99 and certificates/sec.
"""

from .batcher import Batcher
from .cache import ServeCache
from .client import ServeClient, ServeHTTPError
from .loadgen import LOADGEN_FORMAT, LoadReport, default_mix, run_load
from .protocol import (
    PROTOCOL_VERSION,
    SERVE_OPS,
    ServeRequest,
    ServeResponse,
    request_from_json,
    response_from_json,
    verdict_document,
)
from .server import STATSZ_FORMAT, CertificateServer, ServeSettings

__all__ = [
    "PROTOCOL_VERSION",
    "STATSZ_FORMAT",
    "SERVE_OPS",
    "ServeRequest",
    "ServeResponse",
    "request_from_json",
    "response_from_json",
    "verdict_document",
    "ServeCache",
    "Batcher",
    "CertificateServer",
    "ServeSettings",
    "ServeClient",
    "ServeHTTPError",
    "LOADGEN_FORMAT",
    "LoadReport",
    "default_mix",
    "run_load",
]
