"""Shared fixtures for the perf test suite."""

from pathlib import Path

import pytest

from repro.perf import analyze_paths, build_analysis

#: The fixture trees: ``dirty`` plants one finding per rule (plus the
#: depth-3 re-ranking foil), ``clean`` is vectorised/cold with zero.
CORPUS = Path(__file__).parent / "corpus"
DIRTY = CORPUS / "dirty"
CLEAN = CORPUS / "clean"

#: A trace whose only owned span measures ``driver.sweep`` hot.
TRACE = Path(__file__).parent / "fixtures" / "hotpath-trace.jsonl"

#: Repository src/ directory (the self-analysis target).
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="session")
def dirty_analysis():
    """The dirty corpus analysed once per session (it is read-only)."""
    analysis, diagnostics, _files = build_analysis([DIRTY])
    return analysis, diagnostics


@pytest.fixture(scope="session")
def dirty_report():
    """The dirty corpus report built once per session."""
    return analyze_paths([DIRTY])


@pytest.fixture(scope="session")
def profiled_analysis():
    """The dirty corpus with the fixture trace joined."""
    analysis, diagnostics, _files = build_analysis([DIRTY], profile=str(TRACE))
    return analysis, diagnostics
