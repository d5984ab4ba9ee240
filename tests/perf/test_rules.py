"""The perf rule catalog against the planted corpus."""

from repro.perf import PERF_RULES, analyze_paths
from repro.diagnostics import Severity

from tests.perf.conftest import CLEAN, DIRTY


def _rules(diagnostics):
    return {d.rule for d in diagnostics}


class TestDirtyCorpus:
    def test_every_rule_fires(self, dirty_report):
        assert _rules(dirty_report.diagnostics) == set(PERF_RULES)

    def test_all_findings_are_errors(self, dirty_report):
        assert all(
            d.severity is Severity.ERROR for d in dirty_report.diagnostics
        )
        assert dirty_report.exit_code == 1

    def test_propagated_kernel_fires(self, dirty_report):
        kernel = [
            d
            for d in dirty_report.diagnostics
            if d.location.path.endswith("kernels.py")
        ]
        assert {d.rule for d in kernel} == {
            "perf/scalar-loop-over-wires",
            "perf/append-accumulator",
        }

    def test_cold_twin_stays_silent(self, dirty_report):
        # cold_gather (entry depth 0) is byte-identical to gather's body
        lines = {
            d.location.line
            for d in dirty_report.diagnostics
            if d.location.path.endswith("kernels.py")
        }
        assert lines == {12, 13}

    def test_messages_carry_effective_depth(self, dirty_report):
        assert all(
            "effective depth" in d.message for d in dirty_report.diagnostics
        )

    def test_depth_three_foil_fires_deeper(self, dirty_report):
        foil = [
            d
            for d in dirty_report.diagnostics
            if d.location.path.endswith("report.py")
        ]
        assert foil
        assert all("effective depth 3" in d.message for d in foil)


class TestCleanCorpus:
    def test_zero_findings(self):
        report = analyze_paths([CLEAN])
        assert report.exit_code == 0
        assert report.diagnostics == []
        # the depth gate, not emptiness: the corpus has literal loops
        assert report.functions > 0

    def test_hot_count_is_zero(self):
        assert analyze_paths([CLEAN]).hot == 0


class TestRuleRegistry:
    def test_six_rules_registered(self):
        assert len(PERF_RULES) == 6
        assert all(rule_id.startswith("perf/") for rule_id in PERF_RULES)

    def test_registry_is_documented(self):
        for rule in PERF_RULES.values():
            assert rule.summary


#: Two twins: ``mutated`` writes ``marks`` by subscript and ``box`` by
#: attribute in the loop, ``invariant`` only reads them.
_STORES = """\
import numpy as np


def mutated(rows, marks, box):
    for row in rows:
        for x in row:
            marks[x] = 1
            box.last = x
            print(np.flatnonzero(marks == 1), np.sqrt(box.last))


def invariant(rows, marks, box):
    for row in rows:
        for x in row:
            print(np.flatnonzero(marks == 1), np.sqrt(box.last))
"""


class TestLoopInvariance:
    def test_subscript_and_attribute_stores_vary_the_root(self, tmp_path):
        (tmp_path / "stores.py").write_text(_STORES)
        found = [
            (d.location.line, d.message.split("(", 1)[0])
            for d in analyze_paths([tmp_path]).diagnostics
            if d.rule == "perf/repeated-recompute-in-loop"
        ]
        assert found == [(15, "numpy.flatnonzero"), (15, "numpy.sqrt")]
