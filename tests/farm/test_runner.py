"""Tests for the worker-pool executor: statuses, retries, timeouts."""

import os
import signal

import pytest

from repro.errors import FarmError
from repro.farm.jobs import AttackJob, SleepJob
from repro.farm.runner import run_jobs, start_workers, stop_workers
from repro.obs.registry import MetricsRegistry, use_registry


class TestRunJobs:
    def test_empty_job_list(self):
        report = run_jobs([])
        assert report.outcomes == []
        assert not report.interrupted

    def test_single_ok_job(self):
        report = run_jobs([SleepJob(duration=0.0, tag="a")])
        (out,) = report.outcomes
        assert out.status == "ok"
        assert out.ok
        assert out.result["tag"] == "a"
        assert out.attempts == 1

    def test_many_jobs_two_workers(self):
        jobs = [SleepJob(duration=0.0, tag=str(i)) for i in range(8)]
        report = run_jobs(jobs, workers=2)
        assert report.by_status() == {"ok": 8}
        # every job reported exactly once
        assert {o.result["tag"] for o in report.outcomes} == {
            str(i) for i in range(8)
        }

    def test_error_job_retries_then_fails(self):
        report = run_jobs(
            [SleepJob(fail=True, tag="boom")], retries=2, backoff=0.01
        )
        (out,) = report.outcomes
        assert out.status == "error"
        assert out.attempts == 3
        assert "injected failure" in out.error
        assert not out.ok

    def test_timeout_kills_and_reports(self):
        report = run_jobs(
            [SleepJob(duration=30.0, tag="slow")], timeout=0.3, backoff=0.01
        )
        (out,) = report.outcomes
        assert out.status == "timeout"
        assert "timeout" in out.error

    def test_pool_survives_timeout(self):
        # a fast job queued behind a killed slow one still completes
        jobs = [
            SleepJob(duration=30.0, tag="slow"),
            SleepJob(duration=0.0, tag="fast"),
        ]
        report = run_jobs(jobs, workers=1, timeout=0.3)
        statuses = {o.result["tag"] if o.result else o.job.tag: o.status
                    for o in report.outcomes}
        assert statuses == {"slow": "timeout", "fast": "ok"}

    def test_mixed_outcomes(self):
        jobs = [
            SleepJob(duration=0.0, tag="ok1"),
            SleepJob(fail=True, tag="bad"),
            SleepJob(duration=0.0, tag="ok2"),
        ]
        report = run_jobs(jobs, workers=2, retries=0)
        assert report.by_status() == {"ok": 2, "error": 1}

    def test_on_result_streams_in_completion_order(self):
        seen = []
        run_jobs(
            [SleepJob(duration=0.0, tag=str(i)) for i in range(4)],
            on_result=lambda out: seen.append(out.status),
        )
        assert seen == ["ok"] * 4

    def test_real_attack_job_runs(self):
        report = run_jobs(
            [AttackJob(family="bitonic", n=16, blocks=2, seed=0)]
        )
        (out,) = report.outcomes
        assert out.status == "ok"
        assert out.result["proved_not_sorting"] is True
        # parent-side revalidation works on the worker-produced result
        assert out.job.revalidate(out.result)

    def test_invalid_workers_rejected(self):
        with pytest.raises(FarmError, match="workers"):
            run_jobs([], workers=0)

    def test_invalid_retries_rejected(self):
        with pytest.raises(FarmError, match="retries"):
            run_jobs([], retries=-1)


class TestCallerOwnedPool:
    """``pool=``: workers forked once, kept across ``run_jobs`` calls."""

    def test_runs_on_the_given_workers_and_forks_nothing(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            pool = start_workers(2)
            try:
                pids = [w.process.pid for w in pool]
                for round_ in range(3):
                    report = run_jobs(
                        [SleepJob(tag=f"{round_}-{i}") for i in range(4)],
                        workers=2, pool=pool,
                    )
                    assert report.by_status() == {"ok": 4}
                # the same two processes, alive after every call
                assert [w.process.pid for w in pool] == pids
                assert all(w.process.is_alive() for w in pool)
            finally:
                stop_workers(pool)
        assert registry.snapshot()["counters"]["farm.workers_started"][
            "value"] == 2

    def test_worker_dead_while_idle_is_replaced_at_dispatch(self):
        pool = start_workers(1)
        try:
            dead = pool[0]
            os.kill(dead.process.pid, signal.SIGKILL)
            dead.process.join(5)
            report = run_jobs([SleepJob(tag="a")], pool=pool)
            assert report.by_status() == {"ok": 1}
            assert pool[0] is not dead and pool[0].process.is_alive()
        finally:
            stop_workers(pool)

    def test_timeout_replaces_the_worker_in_place(self):
        pool = start_workers(1)
        try:
            slow = pool[0]
            report = run_jobs(
                [SleepJob(duration=30.0, tag="slow")], pool=pool, timeout=0.3
            )
            assert report.outcomes[0].status == "timeout"
            assert pool[0] is not slow and pool[0].process.is_alive()
            # the replacement takes the next call's job
            assert run_jobs([SleepJob(tag="b")], pool=pool).by_status() == {
                "ok": 1
            }
        finally:
            stop_workers(pool)
