"""Perf reports: the entry points and text/JSON rendering.

:func:`analyze_paths` runs the perf family on the analyzer engine
(:mod:`repro.sanitize.engine`) and assembles its report;
:func:`build_analysis` returns the raw analysis and findings for the
worklist and the unit tests.

A :class:`PerfReport` is the result of one hot-path analysis run: the
sorted diagnostics plus the program's headline sizes and the number of
*hot* functions (effective loop depth >= 2 somewhere in the body),
sharing the severity accessors and exit-code convention of
:class:`repro.diagnostics.DiagnosticReport` with the lint, sanitize and
flow reports.  ``PERF_FORMAT`` versions the report JSON; the dataclass
is pinned in the sanitize schema fingerprint registry like every other
persisted format in the tree (``repro sanitize --fix`` re-pins after a
deliberate, version-bumped change).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..diagnostics import Baseline, Diagnostic, DiagnosticReport
from ..sanitize.engine import Engine
from .profilejoin import join_profile
from .rules import HOT_DEPTH, PerfAnalysis

__all__ = ["PERF_FORMAT", "PerfReport", "analyze_paths", "build_analysis"]

#: Version of the perf report JSON document.
PERF_FORMAT = 1


@dataclass
class PerfReport(DiagnosticReport):
    """The outcome of one hot-path perf analysis.

    ``targets`` are the paths as requested; ``files``, ``functions``
    and ``hot`` size the analysed program (zero hot functions on a
    non-trivial tree means depth propagation broke, not that the tree
    is fast); ``profile`` names the joined trace/profile when one was
    given; ``suppressed`` counts baseline-grandfathered findings hidden
    from ``diagnostics``.
    """

    targets: list[str] = field(default_factory=list)
    files: int = 0
    functions: int = 0
    hot: int = 0
    profile: str | None = None
    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: int = 0

    def format_text(self) -> str:
        """Full human-readable report."""
        header = (
            f"perf {' '.join(self.targets)}: "
            f"{self.files} file{'s' if self.files != 1 else ''}, "
            f"{self.functions} functions, {self.hot} hot"
        )
        if self.profile:
            header += f", profile {self.profile}"
        return self.render_text(header)

    def to_json(self) -> dict[str, Any]:
        """JSON-compatible report document."""
        return {
            "format": PERF_FORMAT,
            "targets": self.targets,
            "files": self.files,
            "functions": self.functions,
            "hot": self.hot,
            "profile": self.profile,
            **self.json_tail(),
        }


def _run(
    paths: Iterable[str | Path],
    select: Iterable[str] | None,
    profile: str | None,
) -> tuple[Engine, PerfAnalysis]:
    """The perf family on the engine, ``profile`` joined before the rules.

    ``profile`` optionally names a trace JSONL / profile document whose
    observed hot-path weights rank the findings.
    """
    engine = Engine(paths, select=select)
    join = join_profile(engine.program, profile) if profile is not None else None
    return engine, engine.run_family("perf", join=join)


def build_analysis(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    profile: str | None = None,
) -> tuple[PerfAnalysis, list[Diagnostic], int]:
    """The perf analysis, its raw findings and the file count."""
    engine, analysis = _run(paths, select, profile)
    return analysis, engine.diagnostics, len(engine.files)


def analyze_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    baseline: Baseline | None = None,
    profile: str | None = None,
) -> PerfReport:
    """Analyse a set of files/directories; pragmas and baseline apply."""
    engine, analysis = _run(paths, select, profile)
    kept, suppressed = engine.waive(baseline)
    join = analysis.join
    return PerfReport(
        targets=engine.targets,
        files=len(engine.files),
        functions=len(analysis.program.functions),
        hot=len(analysis.cost.hot_functions(HOT_DEPTH)),
        profile=join.source if join is not None else None,
        diagnostics=kept,
        suppressed=suppressed,
    )
