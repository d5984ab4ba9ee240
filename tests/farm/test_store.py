"""Tests for the content-addressed artifact store."""

import json

import numpy as np
import pytest

from repro.errors import FarmError
from repro.farm.store import (
    ArtifactStore,
    cached,
    canonical_json,
    job_key,
    trusted_document,
)


class TestCanonicalJson:
    def test_key_order_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_numpy_scalars_become_native(self):
        text = canonical_json({"n": np.int64(4), "f": np.float64(0.5), "b": np.bool_(True)})
        assert json.loads(text) == {"b": True, "f": 0.5, "n": 4}

    def test_arrays_become_lists(self):
        assert json.loads(canonical_json(np.arange(3))) == [0, 1, 2]

    def test_job_key_is_sha256_hex(self):
        key = job_key({"x": 1})
        assert len(key) == 64
        assert key == job_key({"x": 1})
        assert key != job_key({"x": 2})


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key = job_key({"job": 1})
        store.put(key, {"status": "ok", "result": {"v": 7}})
        doc = store.get(key)
        assert doc["result"] == {"v": 7}
        assert doc["key"] == key
        assert key in store
        assert len(store) == 1

    def test_get_missing_is_none(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        assert store.get("0" * 64) is None
        assert "0" * 64 not in store

    def test_object_layout_is_sharded(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key = job_key({"job": 1})
        path = store.put(key, {"status": "ok"})
        assert path == store.objects_dir / key[:2] / f"{key[2:]}.json"
        assert list(store.keys()) == [key]

    def test_corrupted_object_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key = job_key({"job": 1})
        path = store.put(key, {"status": "ok"})
        # out-of-band corruption: the read cache must be dropped first
        path.write_text("{ not json")
        store.invalidate(key)
        assert store.get(key) is None

    def test_wrong_key_in_object_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key = job_key({"job": 1})
        path = store.put(key, {"status": "ok"})
        doc = json.loads(path.read_text())
        doc["key"] = "f" * 64
        path.write_text(json.dumps(doc))
        store.invalidate()  # full clear: same out-of-band rewrite story
        assert store.get(key) is None

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        for i in range(5):
            store.put(job_key({"job": i}), {"status": "ok"})
        assert not list(store.root.rglob("*.tmp"))

    def test_put_overwrites_atomically(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key = job_key({"job": 1})
        store.put(key, {"status": "ok", "result": {"v": 1}})
        store.put(key, {"status": "ok", "result": {"v": 2}})
        assert store.get(key)["result"] == {"v": 2}
        assert len(store) == 1

    def test_index_truncated_line_is_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.put(job_key({"job": 1}), {"status": "ok"})
        with open(store.index_path, "a") as fh:
            fh.write('{"key": "trunc')  # simulated crash mid-append
        entries = list(store.iter_index())
        assert len(entries) == 1

    def test_stats_counts_kinds_and_unindexed(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.put(
            job_key({"job": 1}),
            {"job": {"kind": "attack"}, "status": "ok", "elapsed": 0.5},
        )
        store.put(
            job_key({"job": 2}),
            {"job": {"kind": "verify"}, "status": "ok", "elapsed": 0.25},
        )
        store.index_path.unlink()  # lose the index entirely
        store.put(
            job_key({"job": 3}),
            {"job": {"kind": "attack"}, "status": "ok", "elapsed": 0.0},
        )
        stats = store.stats()
        assert stats["artifacts"] == 3
        assert stats["unindexed"] == 2
        assert stats["by_kind"] == {"attack": 1}
        assert stats["compute_seconds"] == pytest.approx(0.0)

    def test_stats_empty_store(self, tmp_path):
        stats = ArtifactStore(tmp_path / "nothing").stats()
        assert stats["artifacts"] == 0
        assert stats["bytes"] == 0


class TestReadCache:
    def test_hit_is_served_without_touching_disk(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key = job_key({"job": 1})
        path = store.put(key, {"status": "ok", "result": {"v": 7}})
        first = store.get(key)
        path.unlink()  # a hit after this can only come from memory
        second = store.get(key)
        assert second == first
        assert store.cache_hits >= 1

    def test_put_refreshes_cached_entry(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key = job_key({"job": 1})
        store.put(key, {"status": "ok", "result": {"v": 1}})
        assert store.get(key)["result"] == {"v": 1}
        store.put(key, {"status": "ok", "result": {"v": 2}})
        assert store.get(key)["result"] == {"v": 2}

    def test_invalidate_exposes_external_rewrite(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key = job_key({"job": 1})
        path = store.put(key, {"status": "ok", "result": {"v": 1}})
        assert store.get(key)["result"] == {"v": 1}
        # another process rewrites the object under our feet
        doc = json.loads(path.read_text())
        doc["result"] = {"v": 99}
        path.write_text(json.dumps(doc))
        assert store.get(key)["result"] == {"v": 1}  # stale but cached
        store.invalidate(key)
        assert store.get(key)["result"] == {"v": 99}

    def test_cached_document_matches_disk_byte_for_byte(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        key = job_key({"job": 1})
        path = store.put(key, {"status": "ok", "result": {"v": [1, 2]}})
        assert store.get(key) == json.loads(path.read_text())

    def test_lru_bound_is_enforced(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", cache_size=2)
        keys = [job_key({"job": i}) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, {"status": "ok", "result": {"v": i}})
        assert len(store._cache) == 2
        # oldest key evicted; still readable from disk (a miss)
        misses_before = store.cache_misses
        assert store.get(keys[0])["result"] == {"v": 0}
        assert store.cache_misses == misses_before + 1

    def test_zero_cache_size_disables_caching(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", cache_size=0)
        key = job_key({"job": 1})
        path = store.put(key, {"status": "ok"})
        assert store.get(key) is not None
        path.unlink()
        assert store.get(key) is None


def _refuse(result):
    raise FarmError("corrupt")


def _crash(result):
    raise RuntimeError("bug in revalidator")


class TestTrustedDocument:
    """The one trust boundary every stored-result reader goes through."""

    @pytest.mark.parametrize(
        "doc, revalidate, want",
        [
            (None, None, (False, False)),  # missing
            ({"status": "error", "result": {"v": 1}}, None, (False, False)),
            ({"status": "ok", "result": [1]}, None, (False, True)),
            ({"status": "ok", "result": {"v": 1}}, lambda r: False, (False, True)),
            ({"status": "ok", "result": {"v": 1}}, _refuse, (False, True)),
            ({"status": "ok", "result": {"v": 1}}, _crash, RuntimeError),
            ({"status": "ok", "result": {"v": 1}}, lambda r: r == {"v": 1}, (True, False)),
            ({"status": "ok", "result": {"v": 1}}, None, (True, False)),
        ],
        ids=[
            "missing", "not-ok", "non-object-result", "revalidation-false",
            "raising-repro-error", "raising-other-error", "valid", "no-revalidation",
        ],
    )
    def test_trusts_only_a_valid_ok_document(self, tmp_path, doc, revalidate, want):
        store = ArtifactStore(tmp_path / "s")
        if doc is not None:
            store.put("k" * 64, doc)
        if want is RuntimeError:
            with pytest.raises(RuntimeError, match="bug in revalidator"):
                trusted_document(store, "k" * 64, revalidate)
            return
        got, refused = trusted_document(store, "k" * 64, revalidate)
        assert (got is not None, refused) == want
        if got is not None:
            assert got["result"] == doc["result"]


class TestCached:
    def test_none_store_always_computes(self):
        calls = []
        result, hit = cached(None, {"a": 1}, lambda: calls.append(1) or {"v": 1})
        assert (result, hit) == ({"v": 1}, False)
        assert calls == [1]

    def test_second_call_hits(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        calls = []

        def compute():
            calls.append(1)
            return {"v": np.int64(7)}

        cold, hit0 = cached(store, {"a": 1}, compute)
        warm, hit1 = cached(store, {"a": 1}, compute)
        assert (hit0, hit1) == (False, True)
        # normalisation: cold and warm results are identical native values
        assert cold == warm == {"v": 7}
        assert calls == [1]

    def test_different_params_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        cached(store, {"a": 1}, lambda: {"v": 1})
        _, hit = cached(store, {"a": 2}, lambda: {"v": 2})
        assert not hit

    def test_failing_revalidation_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        cached(store, {"a": 1}, lambda: {"v": 1})
        result, hit = cached(
            store, {"a": 1}, lambda: {"v": 2}, revalidate=lambda r: False
        )
        assert (result, hit) == ({"v": 2}, False)
        # the recomputed result overwrote the stale artifact
        result, hit = cached(
            store, {"a": 1}, lambda: {"v": 3}, revalidate=lambda r: True
        )
        assert (result, hit) == ({"v": 2}, True)

    def test_raising_revalidation_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        cached(store, {"a": 1}, lambda: {"v": 1})

        def boom(result):
            raise FarmError("corrupt")

        result, hit = cached(store, {"a": 1}, lambda: {"v": 2}, revalidate=boom)
        assert (result, hit) == ({"v": 2}, False)

    def test_foreign_revalidation_error_propagates(self, tmp_path):
        # Only ReproError means "stale artifact, recompute"; anything
        # else is a bug in the revalidator and must surface.
        store = ArtifactStore(tmp_path / "s")
        cached(store, {"a": 1}, lambda: {"v": 1})

        def boom(result):
            raise RuntimeError("bug in revalidator")

        with pytest.raises(RuntimeError):
            cached(store, {"a": 1}, lambda: {"v": 2}, revalidate=boom)
