"""SIGTERM mid-request: the daemon drains in-flight work, persists it,
refuses new work, and exits cleanly -- the serving counterpart of the
farm's SIGINT-flush test."""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.farm import ArtifactStore
from repro.farm.jobs import job_for
from repro.serve import ServeClient, ServeHTTPError

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Slow enough (~0.8 s of adversary work at 2^14 wires) that a SIGTERM
#: sent once the job is on the pool lands mid-request.
SLOW_OP = "attack"
SLOW_PARAMS = {"family": "random_iterated", "n": 16384, "blocks": 3, "seed": 0}


def launch_daemon(store_path):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--store", str(store_path),
            "--workers", "1", "--batch-delay", "0.01",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        # own process group so the signal never reaches the test runner
        preexec_fn=os.setsid,
    )


def wait_for_port(proc) -> int:
    line = proc.stdout.readline()
    match = re.search(r"serving on [\d.]+:(\d+)", line)
    assert match, f"no readiness line, got {line!r}"
    return int(match.group(1))


@pytest.mark.slow  # ~3s: subprocess daemon + real SIGTERM timing
def test_sigterm_drains_inflight_request_and_persists_it(tmp_path):
    store_path = tmp_path / "store"
    proc = launch_daemon(store_path)
    try:
        port = wait_for_port(proc)
        client = ServeClient(port=port, timeout=60.0)
        assert client.health() == {"status": "ok"}

        outcome = {}

        def slow_query():
            try:
                outcome["response"] = client.query(SLOW_OP, SLOW_PARAMS)
            except ServeError as exc:
                outcome["error"] = exc
            outcome["replied_at"] = time.monotonic()

        worker = threading.Thread(target=slow_query)
        worker.start()
        # terminate as soon as the request is on the pool
        probe = ServeClient(port=port, timeout=10.0)
        deadline = time.monotonic() + 30
        while probe.stats()["dispatched"] == 0:
            assert time.monotonic() < deadline, "request never dispatched"
            time.sleep(0.005)
        signalled_at = time.monotonic()
        os.killpg(proc.pid, signal.SIGTERM)

        # the in-flight request must still complete, not be dropped
        worker.join(timeout=60)
        assert not worker.is_alive(), "in-flight request never finished"
        assert "error" not in outcome, f"dropped: {outcome.get('error')}"
        response = outcome["response"]
        assert response.ok
        assert response.source == "computed"
        # the premise of the test: the reply left after the signal, so
        # the drain, not a finished request, is what was exercised
        assert outcome["replied_at"] > signalled_at

        # a request issued during/after the drain is refused, not queued
        try:
            late = ServeClient(port=port, timeout=10.0).query(
                "verify", {"sorter": "bitonic", "n": 4}
            )
            raise AssertionError(f"late request was served: {late.to_json()}")
        except ServeHTTPError as exc:
            assert exc.status == 503
        except ServeError:
            pass  # listener already gone: connection refused

        stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 0, f"stdout={stdout!r} stderr={stderr!r}"
        assert "drained" in stdout
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate(timeout=10)

    # the drained result was persisted: a fresh store serves it directly
    job = job_for(SLOW_OP, SLOW_PARAMS)
    doc = ArtifactStore(store_path).get(job.key())
    assert doc is not None and doc["status"] == "ok"
    assert doc["result"]["proved_not_sorting"] is True
