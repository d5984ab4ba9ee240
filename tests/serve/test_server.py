"""End-to-end daemon tests: client -> daemon -> store, in process.

The daemon's event loop runs on a background thread; the blocking
stdlib client calls it from the test thread over a real TCP socket, so
these tests exercise the whole wire path without a subprocess.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.farm.jobs import job_for
from repro.farm.store import ArtifactStore, canonical_json
from repro.obs import read_trace, tracing
from repro.serve import (
    CertificateServer,
    ServeClient,
    ServeHTTPError,
    ServeSettings,
)

ATTACK_PARAMS = {
    "family": "random_iterated", "n": 32, "blocks": 2, "seed": 5,
}

#: ~0.4-0.7 s of adversary work at 2^14 wires: long enough to hold a
#: worker (or the one admitted slot) while a test acts around it.
SLOW_ATTACK_PARAMS = {
    "family": "random_iterated", "n": 16384, "blocks": 3, "seed": 1,
}


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class DaemonHarness:
    """One in-process daemon on a background event-loop thread."""

    def __init__(self, store_root, **settings):
        settings.setdefault("port", 0)
        self.store = ArtifactStore(store_root)
        self.server = CertificateServer(self.store, ServeSettings(**settings))
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
        assert self._ready.wait(10), "daemon did not come up"
        return self

    def __exit__(self, *exc_info):
        self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)
        assert not self._thread.is_alive(), "daemon did not drain"

    @property
    def client(self) -> ServeClient:
        return ServeClient(port=self.server.port)


class TestEndToEnd:
    def test_served_certificate_is_byte_identical_to_direct_run(
        self, tmp_path
    ):
        with DaemonHarness(tmp_path / "store") as daemon:
            served = daemon.client.query("attack", ATTACK_PARAMS)
            repeat = daemon.client.query("attack", ATTACK_PARAMS)
        direct = job_for("attack", ATTACK_PARAMS).execute()
        assert served.ok and served.source == "computed"
        assert repeat.ok and repeat.source == "memory"
        # the certificate document is the same bytes all three ways
        assert canonical_json(served.result) == canonical_json(direct)
        assert canonical_json(repeat.result) == canonical_json(served.result)
        assert served.result["proved_not_sorting"] is True

    def test_computed_result_lands_in_the_store(self, tmp_path):
        with DaemonHarness(tmp_path / "store") as daemon:
            response = daemon.client.query(
                "verify", {"sorter": "bitonic", "n": 8}
            )
            doc = daemon.store.get(response.key)
        assert doc is not None
        assert doc["result"] == response.result

    def test_store_is_warm_across_daemon_restarts(self, tmp_path):
        with DaemonHarness(tmp_path / "store") as daemon:
            first = daemon.client.query("verify", {"sorter": "bitonic", "n": 8})
        with DaemonHarness(tmp_path / "store") as daemon:
            second = daemon.client.query(
                "verify", {"sorter": "bitonic", "n": 8}
            )
        assert first.source == "computed"
        assert second.source == "store"  # revalidated, not recomputed
        assert second.result == first.result

    def test_trace_records_the_request_cache_and_batch_story(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        with tracing(trace_path):
            with DaemonHarness(tmp_path / "store") as daemon:
                for _ in range(3):
                    daemon.client.query("verify", {"sorter": "bitonic", "n": 8})
        records = read_trace(trace_path)
        spans = [r["name"] for r in records if r["type"] == "span"]
        assert spans.count("serve.request") == 3
        assert spans.count("serve.batch") == 1  # one cold miss, one batch
        assert spans.count("farm.job") == 1
        sources = [
            r["attrs"]["source"] for r in records
            if r["type"] == "event" and r["name"] == "serve.cache"
        ]
        assert sorted(sources) == ["computed", "memory", "memory"]


class TestHttpSurface:
    def test_health_and_stats(self, tmp_path):
        with DaemonHarness(tmp_path / "store") as daemon:
            assert daemon.client.health() == {"status": "ok"}
            daemon.client.query("verify", {"sorter": "bitonic", "n": 8})
            stats = daemon.client.stats()
        assert stats["requests"] == 3  # healthz + query + this statsz call
        assert stats["cache"]["computed"] == 1
        assert stats["dispatched"] == 1

    def test_unknown_route_is_404(self, tmp_path):
        with DaemonHarness(tmp_path / "store") as daemon:
            status, doc = daemon.client._call("GET", "/nope")
        assert status == 404
        assert "no route" in doc["error"]

    def test_wrong_method_is_405(self, tmp_path):
        with DaemonHarness(tmp_path / "store") as daemon:
            status, _ = daemon.client._call("GET", "/v1/query")
        assert status == 405

    def test_malformed_body_is_400(self, tmp_path):
        with DaemonHarness(tmp_path / "store") as daemon:
            import http.client

            conn = http.client.HTTPConnection("127.0.0.1", daemon.server.port)
            conn.request("POST", "/v1/query", body=b"{ not json")
            reply = conn.getresponse()
            body = json.loads(reply.read())
            conn.close()
        assert reply.status == 400
        assert "not valid JSON" in body["error"]

    def test_unknown_op_is_400_with_serve_error(self, tmp_path):
        with DaemonHarness(tmp_path / "store") as daemon:
            with pytest.raises(ServeHTTPError) as excinfo:
                daemon.client.query("explode", {})
        assert excinfo.value.status == 400
        assert not excinfo.value.retryable

    def test_bad_params_are_400_not_500(self, tmp_path):
        bad = [
            {"bogus": 1},
            {"sorter": "bitonic", "n": "16"},
            {"sorter": "bitonic", "n": 16.0},
            {"sorter": "bitonic", "n": 16, "max_wires": "x"},
            {"sorter": "insertion", "n": 30, "max_wires": 64},
            {"sorter": "nope", "n": 8},
            {"sorter": "bitonic", "n": 12},
            {"sorter": ["x"], "n": 8},
        ]
        bad_attacks = [
            {"family": "nope"},
            {"n": 100},
            {"n": "64"},
            {"blocks": 2.5},
            {"k": "x"},
            {"n": True},
            {"k": True},
            {"blocks": -1},
        ]
        with DaemonHarness(tmp_path / "store") as daemon:
            for op, params in [("verify", p) for p in bad] + [
                ("attack", p) for p in bad_attacks
            ]:
                with pytest.raises(ServeHTTPError) as excinfo:
                    daemon.client.query(op, params)
                assert excinfo.value.status == 400, params
            assert daemon.client.stats()["dispatched"] == 0


class TestMetricsz:
    def test_json_snapshot_validates_and_counts_requests(self, tmp_path):
        from repro.obs.registry import validate_metrics_document

        with DaemonHarness(tmp_path / "store") as daemon:
            daemon.client.query("verify", {"sorter": "bitonic", "n": 8})
            doc = daemon.client.metrics()
        assert validate_metrics_document(doc) is doc
        assert doc["counters"]["serve.requests"]["value"] >= 1
        assert doc["counters"]["serve.cache.computed"]["value"] == 1
        hist = doc["histograms"]["serve.request_seconds"]
        assert hist["count"] >= 1
        assert sum(hist["counts"]) == hist["count"]

    def test_prometheus_format_negotiated_by_query_string(self, tmp_path):
        import http.client

        with DaemonHarness(tmp_path / "store") as daemon:
            daemon.client.query("verify", {"sorter": "bitonic", "n": 8})
            conn = http.client.HTTPConnection("127.0.0.1", daemon.server.port)
            conn.request("GET", "/metricsz?format=prom")
            reply = conn.getresponse()
            content_type = reply.getheader("Content-Type")
            text = reply.read().decode()
            conn.close()
        assert reply.status == 200
        assert content_type.startswith("text/plain")
        assert "# TYPE repro_serve_requests counter" in text
        assert 'repro_serve_request_seconds_bucket{le="+Inf"}' in text

    def test_unknown_format_is_400(self, tmp_path):
        with DaemonHarness(tmp_path / "store") as daemon:
            status, doc = daemon.client._call("GET", "/metricsz?format=xml")
        assert status == 400

    def test_worker_metrics_merge_into_the_parent_registry(self, tmp_path):
        # a cold miss runs on the farm pool; the worker's segment
        # (farm.jobs_ok et al.) must come home in the result envelope
        with DaemonHarness(tmp_path / "store") as daemon:
            daemon.client.query("verify", {"sorter": "bitonic", "n": 8})
            doc = daemon.client.metrics()
        assert doc["counters"]["farm.jobs_ok"]["value"] == 1
        assert "farm.queue_wait_seconds" in doc["histograms"]


class TestStatszV2:
    def test_uptime_inflight_and_cache_ratios(self, tmp_path):
        from repro.serve import STATSZ_FORMAT

        with DaemonHarness(tmp_path / "store") as daemon:
            daemon.client.query("verify", {"sorter": "bitonic", "n": 8})
            daemon.client.query("verify", {"sorter": "bitonic", "n": 8})
            stats = daemon.client.stats()
        assert stats["statsz"] == STATSZ_FORMAT
        assert stats["uptime"] >= 0.0
        assert isinstance(stats["inflight"], int)
        ratios = stats["cache_ratios"]
        # one cold compute + one memory hit over two cache lookups
        assert ratios["computed"] == 0.5
        assert ratios["memory"] == 0.5
        assert ratios["store"] == 0.0


class TestBackpressure:
    def test_requests_beyond_max_inflight_get_429(self, tmp_path):
        with DaemonHarness(tmp_path / "store", max_inflight=1) as daemon:
            results = []

            def call(op, params):
                try:
                    response = daemon.client.query(op, params)
                    results.append(("ok", response.source))
                except ServeHTTPError as exc:
                    results.append(("rejected", exc.status))

            # a slow attack holds the one admitted slot ...
            slow = threading.Thread(
                target=call, args=("attack", SLOW_ATTACK_PARAMS)
            )
            slow.start()
            wait_until(lambda: daemon.server.inflight == 1)
            # ... while three more requests arrive
            threads = [
                threading.Thread(
                    target=call,
                    args=("verify",
                          {"sorter": "oddeven_transposition", "n": 4 + 2 * i}),
                )
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads + [slow]:
                t.join()
            stats = daemon.client.stats()
        rejected = [r for r in results if r[0] == "rejected"]
        assert rejected, "no request was shed at max_inflight=1"
        assert all(status == 429 for _, status in rejected)
        assert all(kind == "ok" for kind, _ in results if kind != "rejected")
        assert stats["rejected"] == len(rejected)

    def test_retryable_flag_matches_status(self):
        assert ServeHTTPError(429, "x").retryable
        assert ServeHTTPError(503, "x").retryable
        assert ServeHTTPError(504, "x").retryable
        assert not ServeHTTPError(400, "x").retryable
