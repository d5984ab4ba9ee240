"""Joining measured profiles onto the call graph."""

import json

import pytest

from repro.errors import ObsError
from repro.flow import build_program
from repro.perf import join_profile, load_profile, span_owners, worklist_paths

from tests.perf.conftest import DIRTY, TRACE


@pytest.fixture(scope="module")
def program():
    return build_program([DIRTY])


class TestSpanJoin:
    def test_span_owner_resolved_through_constant(self, program):
        # SPAN_SWEEP = "sweep.run" resolves to the opening function
        assert span_owners(program) == {"sweep.run": {"driver.sweep"}}

    def test_self_time_subtracts_children(self, program):
        join = join_profile(program, TRACE)
        # dur 5.0 minus the 2.0 child span
        assert join.span_self["sweep.run"] == pytest.approx(3.0)

    def test_weight_propagates_down_call_edges(self, program):
        join = join_profile(program, TRACE)
        assert join.weights["driver.sweep"] == pytest.approx(3.0)
        # gather is called from inside the measured span's function
        assert join.weights["kernels.gather"] == pytest.approx(3.0)

    def test_deleted_function_spans_degrade_gracefully(self, program):
        # spans with no owning call site are reported, not fatal
        join = join_profile(program, TRACE)
        assert "gone.function" in join.unmatched
        assert join.weights.get("gone.function") is None

    def test_unmeasured_foil_has_no_weight(self, program):
        join = join_profile(program, TRACE)
        assert join.weights.get("report.render", 0.0) == 0.0


class TestProfileDocument:
    def test_cpu_rows_match_by_file_and_function(self, program, tmp_path):
        doc = {
            "cpu": [
                {
                    "cumulative_s": 9.0,
                    "self_s": 4.5,
                    "calls": 10,
                    "where": "report.py:10(render)",
                },
                {
                    "cumulative_s": 1.0,
                    "self_s": 1.0,
                    "calls": 1,
                    "where": "deleted.py:1(gone)",
                },
            ]
        }
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        join = join_profile(program, path)
        assert join.weights["report.render"] == pytest.approx(4.5)
        assert "deleted.py:1(gone)" in join.unmatched

    def test_load_profile_distinguishes_documents(self, tmp_path):
        doc_path = tmp_path / "profile.json"
        doc_path.write_text(json.dumps({"cpu": []}))
        assert isinstance(load_profile(doc_path), dict)
        assert isinstance(load_profile(TRACE), list)

    def test_corrupt_profile_raises_obs_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a trace"}\n')
        with pytest.raises(ObsError):
            load_profile(bad)

    def test_missing_profile_raises_obs_error(self, tmp_path):
        with pytest.raises(ObsError):
            load_profile(tmp_path / "absent.jsonl")


class TestProfileRanking:
    def test_static_ranking_prefers_depth(self):
        worklist = worklist_paths([DIRTY])
        assert worklist.entries[0].function == "report.render"
        assert worklist.entries[0].effective_depth == 3

    def test_profile_reranks_measured_function_first(self):
        worklist = worklist_paths([DIRTY], profile=str(TRACE))
        # sweep (3.0s observed) outranks the statically deeper render
        assert worklist.entries[0].function == "driver.sweep"
        assert worklist.entries[0].weight == pytest.approx(3.0)
        assert worklist.unmatched_spans == ["gone.function", "sweep.block"]
