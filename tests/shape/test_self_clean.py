"""The gate behind CI: the shipped tree has zero shape findings.

Issue 10's acceptance bar mirrors issues 5 and 9: the tree reaches
zero by *fixing* the real findings (the double-materialising
``as_int_array``, the hot unpinned ``arange`` calls in the experiment
loops, the ``list()``-of-``tolist()`` churn) or by pragma-justifying
the two deliberate symbolic object arrays -- never by baselining them,
so this gate runs with no baseline at all.
"""

import pytest

from repro.shape import analyze_paths

from tests.shape.conftest import SRC


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
        assert report.arrays >= 50
        assert report.suppressed == 0  # nothing grandfathered either

    def test_the_model_pinned_the_certificate_currency(self, report):
        """Most inferred constructor dtypes are exact int64."""
        assert report.dtypes.get("int64", 0) >= 30
        # the two pragma'd symbolic stores are the only object arrays
        assert report.dtypes.get("object", 0) == 2
