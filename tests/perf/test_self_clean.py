"""The perf gate behind CI: the shipped tree ratchets at zero new findings.

Unlike the flow gate (which reached literally zero findings), perf
intentionally ships with a populated ratchet: the worklist is the
inventory of vectorization work still to do, and the baseline pins it
so *new* hot scalar loops fail CI while grandfathered ones are burned
down PR by PR.  The top of the original worklist -- the Lemma 3.4
rename loops and ``SymbolicState.apply_permutation`` -- is already
fixed, which the worklist floor below reflects.
"""

from pathlib import Path

import pytest

from repro.perf import analyze_paths, worklist_paths
from repro.sanitize import Baseline

from tests.perf.conftest import SRC

BASELINE = Path(__file__).resolve().parents[2] / "analyzer-baseline.json"


def _fingerprint(diag) -> tuple[str, str, str]:
    """A finding's baseline identity: rule, anchored path, stripped line."""
    lines = Path(diag.location.path).read_text().splitlines()
    return Baseline.fingerprint(diag, lines[diag.location.line - 1].strip())


@pytest.fixture(scope="module")
def shipped():
    return Baseline.load(BASELINE)


@pytest.fixture(scope="module")
def report(shipped):
    """``src/`` under the shipped ratchet, analysed once for the module."""
    return analyze_paths([SRC], baseline=shipped)


@pytest.fixture(scope="module")
def raw():
    """``src/`` with pragmas but no ratchet: what the ratchet may match."""
    return analyze_paths([SRC])


@pytest.fixture(scope="module")
def worklist():
    """The ``src/`` worklist, ranked once for the module."""
    return worklist_paths([SRC])


class TestSelfClean:
    def test_source_tree_clean_under_shipped_ratchet(self, report):
        assert report.diagnostics == [], report.format_text()
        assert report.exit_code == 0
        # grandfathered, not hidden: the report says what it waived
        assert report.suppressed > 0

    def test_every_baseline_entry_matches_a_finding(self, raw, shipped):
        """A waiver whose finding is gone (fixed or rewritten) must leave
        the ratchet, not linger: every entry matches a raw finding."""
        found = {_fingerprint(d) for d in raw.diagnostics}
        assert sorted(shipped.entries - found) == []

    def test_analysis_actually_covered_the_tree(self, report):
        """Guard against the gate passing vacuously."""
        assert report.files >= 90
        assert report.functions >= 700
        assert report.hot >= 200


class TestWorklistInventory:
    def test_worklist_surfaces_core_candidates(self, worklist):
        targeted = [
            e
            for e in worklist.entries
            if "/core/" in e.path or "/experiments/" in e.path
        ]
        # the acceptance floor: the analyzer must keep surfacing ranked
        # vectorization candidates in the hot subsystems
        assert len(targeted) >= 10

    def test_vectorized_functions_left_the_worklist(self, worklist):
        remaining = {e.function for e in worklist.entries}
        # the former top-of-worklist scalar loops, now NumPy expressions
        assert "repro.core.pattern.Pattern.rho" not in remaining
        assert (
            "repro.core.propagate.SymbolicState.apply_permutation"
            not in remaining
        )

    def test_worklist_lists_baselined_findings(self, report, worklist):
        # the ratchet hides findings from the gate, never from the
        # inventory
        assert len(worklist.entries) >= report.suppressed
