"""Certificate-service benchmark: latency split, throughput, stress.

Runs an in-process daemon (event loop on a background thread, real TCP
sockets) and measures the three serving claims:

* a *cold* request pays one farm-pool dispatch plus the verification
  itself; a *warm* request is an in-memory cache hit, at least an order
  of magnitude faster at the median;
* a closed loop of 8 concurrent clients sustains useful throughput
  (certificates/sec) with zero errors;
* a queue of >= 1000 requests completes without error or deadlock.
"""

import asyncio
import threading
import time

from repro.experiments.harness import Table
from repro.farm.store import ArtifactStore
from repro.obs.metrics import percentile
from repro.serve import (
    CertificateServer,
    ServeClient,
    ServeSettings,
    run_load,
)

#: 8 distinct verify queries wide enough (2^24 bit-sliced inputs,
#: ~0.25-0.4 s each on a 2-vCPU host) that a cold request is
#: compute-dominated, not dispatch-dominated.  The three slowest
#: registry sorters at n = 24 repeat with a different ``max_wires`` (a
#: refusal threshold, at or above n), which makes distinct keys without
#: changing the work.
MIX = [
    {"op": "verify", "params": {"sorter": sorter, "n": 24, "max_wires": cap}}
    for sorter, caps in (
        ("shellsort", (24, 25, 26)),
        ("oddeven_transposition", (24, 25, 26)),
        ("insertion", (24, 25)),
    )
    for cap in caps
]


class _Daemon:
    """In-process daemon on a background event-loop thread."""

    def __init__(self, store_root):
        self.server = CertificateServer(
            ArtifactStore(store_root),
            ServeSettings(port=0, workers=2, max_inflight=64,
                          batch_delay=0.005),
        )
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self._main())
        self.loop.close()

    async def _main(self):
        self._stop = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10)
        return self

    def __exit__(self, *exc_info):
        self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "daemon did not drain"


def _cold_pass(port) -> "list[float]":
    """Each mix entry once, sequentially, against an empty store."""
    client = ServeClient(port=port)
    latencies = []
    for query in MIX:
        start = time.perf_counter()
        response = client.query(query["op"], query["params"])
        latencies.append(time.perf_counter() - start)
        assert response.ok and response.source == "computed"
    return latencies


def test_bench_serve_latency_and_throughput(benchmark, record_table, tmp_path):
    table = Table(
        experiment="serve-latency",
        title="certificate service: cold vs warm latency, throughput",
        claim="a cache hit is >= 10x faster than a cold compute at p50",
        columns=["phase", "requests", "p50_ms", "p99_ms", "certs_per_s",
                 "errors"],
    )
    with _Daemon(tmp_path / "store") as daemon:
        port = daemon.server.port
        cold = _cold_pass(port)
        table.add_row(
            phase="cold", requests=len(cold),
            p50_ms=round(percentile(cold, 50) * 1e3, 2),
            p99_ms=round(percentile(cold, 99) * 1e3, 2),
            certs_per_s=round(len(cold) / sum(cold), 1), errors=0,
        )

        # warm closed loop: 8 concurrent clients, every key already hot
        report = benchmark.pedantic(
            lambda: run_load(
                "127.0.0.1", port,
                clients=8, requests_per_client=16, mix=MIX,
            ),
            rounds=1, iterations=1,
        )
        table.add_row(
            phase="warm", requests=report.completed,
            p50_ms=round(percentile(report.warm_latencies, 50) * 1e3, 2),
            p99_ms=round(percentile(report.warm_latencies, 99) * 1e3, 2),
            certs_per_s=round(report.certificates_per_second, 1),
            errors=report.errors,
        )
    record_table(table)

    assert report.errors == 0
    assert report.rejected == 0
    # after the cold pass every mix key is resident: nothing recomputes
    assert len(report.cold_latencies) == 0
    assert report.certificates_per_second > 0
    cold_p50 = percentile(cold, 50)
    warm_p50 = percentile(report.warm_latencies, 50)
    assert warm_p50 * 10 <= cold_p50, (
        f"warm p50 {warm_p50 * 1e3:.2f}ms not >= 10x faster than "
        f"cold p50 {cold_p50 * 1e3:.2f}ms"
    )
    # the warm *tail* is the event-loop-health pin: blocking work on
    # the loop (the tier-2 store access repro race caught in issue 9)
    # drags warm p99 toward cold territory long before p50 moves
    warm_p99 = percentile(report.warm_latencies, 99)
    assert warm_p99 <= cold_p50, (
        f"warm p99 {warm_p99 * 1e3:.2f}ms reached cold p50 "
        f"{cold_p50 * 1e3:.2f}ms: something is stalling the loop"
    )


def test_bench_serve_stress_1000_requests(record_table, tmp_path):
    table = Table(
        experiment="serve-stress",
        title="certificate service: 1024-request stress, 16 clients",
        claim="a deep request queue drains without error or deadlock",
        columns=["requests", "completed", "errors", "rejected", "wall_s",
                 "certs_per_s"],
    )
    with _Daemon(tmp_path / "store") as daemon:
        port = daemon.server.port
        _cold_pass(port)  # prewarm so the stress measures serving, not math
        done = {}

        def drive():
            done["report"] = run_load(
                "127.0.0.1", port,
                clients=16, requests_per_client=64, mix=MIX,
            )

        driver = threading.Thread(target=drive)
        driver.start()
        driver.join(timeout=120)
        assert not driver.is_alive(), "stress run deadlocked"
        report = done["report"]
        table.add_row(
            requests=report.requests, completed=report.completed,
            errors=report.errors, rejected=report.rejected,
            wall_s=round(report.elapsed, 2),
            certs_per_s=round(report.certificates_per_second, 1),
        )
    record_table(table)

    assert report.requests == 1024
    assert report.errors == 0
    # every admitted request completed; backpressure sheds, never drops
    assert report.completed + report.rejected == report.requests
    assert report.completed >= 1000
