"""Tests for typed job specs: round-trips, seeding, execution, revalidation."""

import pytest

from repro.errors import FarmError
from repro.farm.jobs import (
    JOB_TYPES,
    AttackJob,
    ExperimentCellJob,
    LintJob,
    SleepJob,
    VerifyJob,
    job_for,
    job_from_json,
)
from repro.networks import serialize as net_serialize
from repro.sorters import bitonic_sorting_network


class TestRoundTrip:
    @pytest.mark.parametrize(
        "job",
        [
            AttackJob(family="bitonic", n=16, blocks=2, seed=3),
            AttackJob(k=2, network=net_serialize.network_to_json(bitonic_sorting_network(8))),
            VerifyJob(sorter="oddeven_merge", n=8),
            LintJob(sorter="bitonic", n=8, select=("R001",)),
            ExperimentCellJob(experiment="E7", kwargs={"exponents": [3]}),
            SleepJob(duration=0.1, fail=True, tag="x"),
        ],
    )
    def test_to_json_from_json(self, job):
        doc = job.to_json()
        back = job_from_json(doc)
        assert back == job
        assert back.key() == job.key()

    def test_key_depends_on_params(self):
        assert AttackJob(n=16).key() != AttackJob(n=32).key()
        assert AttackJob(seed=0).key() != AttackJob(seed=1).key()

    def test_key_ignores_nothing(self):
        # two equal jobs hash identically across instances
        assert AttackJob(n=16, seed=5).key() == AttackJob(n=16, seed=5).key()

    def test_job_for_rejects_unknown_kind(self):
        with pytest.raises(FarmError, match="unknown job kind"):
            job_for("bogus", {})

    def test_job_for_rejects_unknown_param(self):
        with pytest.raises(FarmError, match="no parameter"):
            job_for("attack", {"frobnicate": 1})

    def test_job_from_json_rejects_non_object(self):
        with pytest.raises(FarmError):
            job_from_json(["not", "a", "job"])

    def test_registry_covers_all_kinds(self):
        assert set(JOB_TYPES) == {"attack", "verify", "lint", "experiment", "sleep"}


class TestSeeding:
    def test_derived_seed_is_deterministic(self):
        job = AttackJob(family="random_iterated", n=16, blocks=2, seed=7)
        assert job.derived_seed(0) == AttackJob(
            family="random_iterated", n=16, blocks=2, seed=7
        ).derived_seed(0)

    def test_streams_are_independent(self):
        job = AttackJob(n=16)
        assert job.derived_seed(0) != job.derived_seed(1)

    def test_rng_reproducible(self):
        job = AttackJob(n=16)
        a = job.rng(0).integers(0, 1 << 30, 8)
        b = job.rng(0).integers(0, 1 << 30, 8)
        assert (a == b).all()


class TestAttackJob:
    def test_execute_is_deterministic(self):
        job = AttackJob(family="random_iterated", n=16, blocks=2, seed=0)
        assert job.execute() == job.execute()

    def test_rebuild_matches_original(self):
        job = AttackJob(family="random_iterated", n=16, blocks=3, seed=1)
        a = job.build_network().to_network()
        b = job.build_network().to_network()
        assert a.all_gates() == b.all_gates()

    def test_certificate_revalidates(self):
        job = AttackJob(family="bitonic", n=16, blocks=2, seed=0)
        result = job.execute()
        assert result["proved_not_sorting"]
        assert job.revalidate(result)

    def test_revalidate_rejects_foreign_certificate(self):
        job = AttackJob(family="bitonic", n=16, blocks=2, seed=0)
        # the full bitonic sorter: no certificate can verify against it
        other = AttackJob(family="bitonic", n=16, blocks=4, seed=0)
        result = job.execute()
        assert result["certificate"] is not None
        assert not other.revalidate(result)

    def test_embedded_network_attack(self):
        from repro.networks import bitonic_iterated_rdn

        payload = net_serialize.network_to_json(
            bitonic_iterated_rdn(16).truncated(2).to_network()
        )
        job = AttackJob(network=payload, seed=0)
        result = job.execute()
        assert result["proved_not_sorting"]
        assert job.revalidate(result)


class TestVerifyJob:
    def test_real_sorter_verifies(self):
        result = VerifyJob(sorter="bitonic", n=8).execute()
        assert result["is_sorter"] is True
        assert result["witness"] is None

    def test_witness_revalidates(self):
        # a truncated bitonic is not a sorter; use lint job's registry name
        job = VerifyJob(sorter="bitonic", n=8)
        result = job.execute()
        assert job.revalidate(result)

    def test_stale_witness_rejected(self):
        job = VerifyJob(sorter="bitonic", n=8)
        fake = {"witness": [0] * 8}  # sorted input cannot be a witness
        assert not job.revalidate(fake)

    @pytest.mark.parametrize(
        "params",
        [
            {"n": "16"},
            {"n": 16.0},
            {"n": True},
            {"max_wires": "x"},
            {"max_wires": None},
            {"n": 0},
            {"sorter": "insertion", "n": 30, "max_wires": 64},
            {"sorter": "nope", "n": 8},
            {"sorter": "bitonic", "n": 12},
            {"sorter": ["x"], "n": 8},
        ],
    )
    def test_job_for_refuses_what_no_worker_can_run(self, params):
        with pytest.raises(FarmError, match="verify job"):
            job_for("verify", params)

    @pytest.mark.parametrize(
        "params",
        [
            {"sorter": "nope", "n": 8},
            {"sorter": "bitonic", "n": 12},
            {"sorter": ["x"], "n": 8},
            {"sorter": "insertion", "n": "8"},
        ],
    )
    def test_lint_job_refuses_the_same_sorters(self, params):
        with pytest.raises(FarmError, match="lint job"):
            job_for("lint", params)

    def test_every_buildable_registry_width_is_admitted(self):
        """General sorters at any width, power-of-two-only ones at 4, 8, 16."""
        from repro.sorters.registry import SORTER_REGISTRY

        for name, spec in SORTER_REGISTRY.items():
            widths = (4, 8, 16) if spec.power_of_two_only else range(1, 25)
            for n in widths:
                assert job_for("verify", {"sorter": name, "n": n}).n == n
                assert job_for("lint", {"sorter": name, "n": n}).n == n

    def test_max_wires_itself_is_unbounded(self):
        # a refusal threshold, not a cost: only n bounds the sweep
        job = job_for("verify", {"sorter": "insertion", "n": 24, "max_wires": 2424})
        assert job.max_wires == 2424


class TestOtherJobs:
    def test_lint_job(self):
        result = LintJob(sorter="bitonic", n=8).execute()
        assert result["exit_code"] == 0

    def test_experiment_cell_job(self):
        result = ExperimentCellJob(
            experiment="E7", kwargs={"exponents": [3]}
        ).execute()
        assert result["experiment"] == "E7"
        assert result["table"]["rows"]

    def test_experiment_cell_unknown_raises(self):
        with pytest.raises(FarmError, match="unknown experiment"):
            ExperimentCellJob(experiment="E99").execute()

    def test_sleep_job_fails_on_demand(self):
        assert SleepJob(duration=0.0).execute()["slept"] == 0.0
        with pytest.raises(FarmError, match="injected failure"):
            SleepJob(fail=True).execute()

    def test_label_is_compact(self):
        label = AttackJob(family="bitonic", n=16, blocks=2, seed=0).label()
        assert label.startswith("attack(")
        assert "family=bitonic" in label and "n=16" in label
