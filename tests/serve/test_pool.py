"""The daemon's long-lived worker pool: forked once, leased per job.

The in-process tests reach the pool through ``server.batcher``: its
idle workers are ``repro.farm.runner._Worker`` objects whose processes
are children of the test process, so a test can SIGKILL one and wait
for it.  The subprocess test covers what only a real ``repro serve``
has: the loop's signal handlers, which its forked workers inherit.
"""

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import FarmError, ServeError
from repro.farm import runner
from repro.farm.jobs import job_for
from repro.serve import ServeClient, ServeHTTPError
from repro.serve.batcher import Batcher
from tests.serve.test_server import (
    SLOW_ATTACK_PARAMS,
    DaemonHarness,
    wait_until,
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def workers_started(daemon) -> int:
    return daemon.client.metrics()["counters"]["farm.workers_started"]["value"]


def retry_through_504(client, op, params, timeout=30.0):
    """Send until the daemon answers something other than 504."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return client.query(op, params)
        except ServeHTTPError as exc:
            if exc.status != 504 or time.monotonic() > deadline:
                raise
        time.sleep(0.05)


class TestForkedOnce:
    def test_six_cold_requests_start_exactly_the_configured_workers(
        self, tmp_path, monkeypatch
    ):
        forked = []
        original = runner._Worker.__init__

        def counting_init(self, ctx):
            forked.append(1)
            original(self, ctx)

        monkeypatch.setattr(runner._Worker, "__init__", counting_init)
        with DaemonHarness(tmp_path / "store", workers=2) as daemon:
            replies = []

            def call(n):
                replies.append(daemon.client.query(
                    "verify", {"sorter": "oddeven_transposition", "n": n}
                ))

            threads = [
                threading.Thread(target=call, args=(n,)) for n in range(3, 9)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            started = workers_started(daemon)
            stats = daemon.client.stats()
        assert sorted(r.source for r in replies) == ["computed"] * 6
        assert all(r.result["is_sorter"] is True for r in replies)
        assert len(forked) == 2
        assert started == 2
        # one dispatch per cold job, each counted as a batch of one
        assert stats["batches"] == stats["dispatched"] == 6


class TestLeases:
    def test_a_504_neither_frees_the_worker_nor_loses_the_result(
        self, tmp_path
    ):
        # workers=1: while the cut-off attack still runs, the one
        # worker stays leased, so the verify sent right after waits for
        # it instead of sharing its pipe and reading the attack's reply
        with DaemonHarness(
            tmp_path / "store", workers=1, request_timeout=0.1
        ) as daemon:
            client = daemon.client
            with pytest.raises(ServeHTTPError) as excinfo:
                client.query("attack", SLOW_ATTACK_PARAMS)
            assert excinfo.value.status == 504
            verify = retry_through_504(
                client, "verify", {"sorter": "bitonic", "n": 8}
            )
            attack = retry_through_504(client, "attack", SLOW_ATTACK_PARAMS)
            stats = client.stats()
        assert verify.ok and verify.result["is_sorter"] is True
        assert verify.result["sorter"] == "bitonic"
        # its flight may still be writing the store: then it joins
        assert attack.ok and attack.source in ("memory", "store", "joined")
        assert attack.result["proved_not_sorting"] is True
        assert attack.result["certificate"] is not None
        assert stats["dispatched"] == 2  # the retries recomputed nothing

    def test_504_result_lands_in_the_store(self, tmp_path):
        key = job_for("attack", SLOW_ATTACK_PARAMS).key()
        with DaemonHarness(
            tmp_path / "store", workers=1, request_timeout=0.1
        ) as daemon:
            with pytest.raises(ServeHTTPError) as excinfo:
                daemon.client.query("attack", SLOW_ATTACK_PARAMS)
            assert excinfo.value.status == 504
            wait_until(lambda: daemon.store.get(key) is not None, timeout=10)
            retry = daemon.client.query("attack", SLOW_ATTACK_PARAMS)
            computed = daemon.client.stats()["cache"]["computed"]
        assert retry.source in ("memory", "store")
        assert retry.result["certificate"] is not None
        assert computed == 1

    def test_cancelled_submit_keeps_the_worker_until_run_jobs_returns(
        self, monkeypatch
    ):
        release = threading.Event()
        calls = []

        def gated_run_jobs(jobs, **kwargs):
            calls.append(jobs[0].label())
            if len(calls) == 1:
                release.wait(10)
                raise FarmError("first job ended")
            return real_run_jobs(jobs, **kwargs)

        real_run_jobs = runner.run_jobs
        monkeypatch.setattr("repro.serve.batcher.run_jobs", gated_run_jobs)

        async def scenario():
            batcher = Batcher(workers=1)
            first = asyncio.create_task(
                batcher.submit(job_for("verify", {"sorter": "bitonic", "n": 4}))
            )
            await asyncio.sleep(0.05)
            first.cancel()  # what a 504 or a drain does to its waiter
            second = asyncio.create_task(
                batcher.submit(job_for("verify", {"sorter": "bitonic", "n": 8}))
            )
            await asyncio.sleep(0.1)
            held = (not second.done(), len(calls), list(batcher._idle))
            release.set()
            result = await asyncio.wait_for(second, timeout=30)
            await batcher.stop()
            return held, result

        (waiting, ran, idle), result = asyncio.run(scenario())
        assert waiting and ran == 1 and idle == []
        assert result["n"] == 8 and result["is_sorter"] is True


class TestFaults:
    def test_sigkilled_idle_worker_is_replaced_at_dispatch(self, tmp_path):
        with DaemonHarness(tmp_path / "store", workers=1) as daemon:
            (worker,) = daemon.server.batcher._idle
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(5)
            reply = daemon.client.query("verify", {"sorter": "bitonic", "n": 8})
            started = workers_started(daemon)
        assert reply.source == "computed"
        assert reply.result["is_sorter"] is True
        assert started == 2  # workers + 1

    def test_sigkilled_busy_worker_fails_its_request_typed(self, tmp_path):
        with DaemonHarness(tmp_path / "store", workers=1) as daemon:
            batcher = daemon.server.batcher
            (worker,) = batcher._idle
            pid = worker.process.pid
            outcome = {}

            def slow():
                try:
                    daemon.client.query("attack", SLOW_ATTACK_PARAMS)
                except ServeHTTPError as exc:
                    outcome["error"] = exc

            thread = threading.Thread(target=slow)
            thread.start()
            wait_until(lambda: batcher.dispatched == 1)
            time.sleep(0.1)  # the job is on the worker
            os.kill(pid, signal.SIGKILL)
            thread.join(30)
            assert not thread.is_alive(), "the request hung"
            after = daemon.client.query("verify", {"sorter": "bitonic", "n": 8})
            started = workers_started(daemon)
        error = outcome["error"]
        assert error.status == 500
        assert f"worker process {pid} died" in str(error)
        assert "internal error" not in str(error)
        assert after.source == "computed" and after.result["is_sorter"] is True
        assert started == 2


@pytest.mark.slow  # ~2s: subprocess daemon, a timed-out job and its kill
def test_job_timeout_leaves_the_daemon_serving(tmp_path):
    # The worker inherits the daemon loop's signal handlers; the kill
    # that ends a timed-out job must not reach the daemon as a drain.
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--store", str(tmp_path / "store"),
            "--workers", "1", "--job-timeout", "0.2",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        preexec_fn=os.setsid,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving on "), line
        port = int(line.split()[2].rsplit(":", 1)[1])
        client = ServeClient(port=port, timeout=60.0)
        with pytest.raises(ServeError) as excinfo:
            client.query("attack", SLOW_ATTACK_PARAMS)
        assert "(timeout)" in str(excinfo.value)
        time.sleep(0.2)  # a drain, if one was set off, would show by now
        assert client.health() == {"status": "ok"}
        reply = client.query("verify", {"sorter": "bitonic", "n": 8})
        assert reply.source == "computed"
        assert proc.poll() is None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=30)
    assert proc.returncode == 0, stderr
    assert "drained" in stdout
