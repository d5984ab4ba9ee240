"""The gate behind CI: the shipped tree has zero race findings.

Issue 9's acceptance bar mirrors issue 5's: the tree reaches zero by
*fixing* the real findings (tier-2 store access on the event loop, the
blocking SIGUSR2 dump under serve, unguarded ArtifactStore counters),
not by baselining them -- so this gate runs with no baseline at all.
"""

import pytest

from repro.race import analyze_paths

from tests.race.conftest import SRC


@pytest.fixture(scope="module")
def report():
    """``src/`` analysed once for every test here (it is read-only)."""
    return analyze_paths([SRC])


class TestSelfClean:
    def test_source_tree_has_no_findings(self, report):
        assert report.diagnostics == [], report.format_text()
        assert report.exit_code == 0

    def test_analysis_actually_covered_the_tree(self, report):
        """Guard against the gate passing vacuously."""
        assert report.files >= 100
        assert report.functions >= 800
        assert report.edges >= 2000
        assert report.suppressed == 0  # nothing grandfathered either

    def test_the_contexts_found_the_serve_farm_stack(self, report):
        """The daemon's coroutines and the farm's workers are seen."""
        assert report.contexts.get("async", 0) >= 25
        assert report.contexts.get("thread", 0) >= 10
        assert report.contexts.get("worker", 0) >= 100
        assert report.contexts.get("signal", 0) >= 1
