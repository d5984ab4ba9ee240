"""The gate behind CI: the shipped source tree sanitizes clean.

This is the analyzer applied to its own repository -- the acceptance
criterion of the sanitize milestone.  If a change to ``src/`` introduces
an unseeded generator, a fork hazard, a raw builtin raise or schema
drift, this test (and the CI sanitize job) is what fails.
"""

import pytest

from repro.sanitize import sanitize_paths

from tests.sanitize.conftest import SRC


@pytest.fixture(scope="module")
def report():
    """``src/`` analysed once for every test here (it is read-only)."""
    return sanitize_paths([SRC])


class TestSelfClean:
    def test_source_tree_has_no_findings(self, report):
        assert report.diagnostics == [], report.format_text()
        assert report.exit_code == 0

    def test_analysis_actually_covered_the_tree(self, report):
        """Guard against the gate passing vacuously (empty file set)."""
        assert report.files >= 90
        assert report.suppressed == 0  # nothing grandfathered either
