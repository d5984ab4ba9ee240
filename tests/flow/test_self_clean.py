"""The gate behind CI: the shipped tree has zero flow findings.

Issue 5's acceptance bar is explicit: the tree reaches zero by *fixing*
the real findings (hidden rng defaults, a raw AssertionError crossing
the CLI, silent broad excepts in the farm), not by baselining them --
so this gate runs with no baseline at all and nothing suppressed.
"""

import pytest

from repro.flow import analyze_paths

from tests.flow.conftest import SRC


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
        assert report.files >= 90
        assert report.functions >= 700
        assert report.edges >= 1500
        assert report.suppressed == 0  # nothing grandfathered either
