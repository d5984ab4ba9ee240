"""The ranked vectorization worklist (``repro perf --worklist``).

The worklist is the *inventory* view of the perf analysis: every raw
finding, ranked, with its effective depth and observed weight --
deliberately ignoring pragma waivers and the baseline, because a
grandfathered scalar loop is still work to do.  Ranking is observed
hot-path weight first (when a profile was joined), then effective loop
depth, then a deterministic source-order tiebreak, so two runs over the
same tree emit bit-identical documents.

``WORKLIST_FORMAT`` versions the document; the two dataclasses below
are pinned in the sanitize schema fingerprint registry like every
other persisted format in the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..diagnostics import Diagnostic
from .report import build_analysis
from .rules import PerfAnalysis

__all__ = [
    "WORKLIST_FORMAT",
    "WorklistEntry",
    "Worklist",
    "build_worklist",
    "worklist_paths",
]

#: Version of the worklist JSON document.
WORKLIST_FORMAT = 1


@dataclass
class WorklistEntry:
    """One ranked vectorization candidate."""

    rank: int
    function: str
    path: str
    line: int
    rule: str
    effective_depth: int
    weight: float
    message: str

    def to_json(self) -> dict[str, Any]:
        """JSON-compatible entry document."""
        return {
            "rank": self.rank,
            "function": self.function,
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "effective_depth": self.effective_depth,
            "weight": self.weight,
            "message": self.message,
        }


@dataclass
class Worklist:
    """The full ranked worklist for one analysed tree."""

    targets: list[str] = field(default_factory=list)
    profile: str | None = None
    entries: list[WorklistEntry] = field(default_factory=list)
    unmatched_spans: list[str] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        """JSON-compatible worklist document (versioned)."""
        return {
            "format": WORKLIST_FORMAT,
            "targets": self.targets,
            "profile": self.profile,
            "unmatched_spans": self.unmatched_spans,
            "entries": [e.to_json() for e in self.entries],
        }


def _owner(analysis: PerfAnalysis, diag: Diagnostic) -> str:
    """Qualname of the function containing a diagnostic's location."""
    path = getattr(diag.location, "path", None)
    line = getattr(diag.location, "line", None) or 0
    best, best_line = "", -1
    for qualname, finfo in analysis.program.functions.items():
        if finfo.path == path and best_line < finfo.line <= line:
            best, best_line = qualname, finfo.line
    return best


def build_worklist(
    analysis: PerfAnalysis,
    diagnostics: list[Diagnostic],
    targets: list[str],
) -> Worklist:
    """Rank the raw findings into the vectorization worklist."""
    rows = []
    for diag in diagnostics:
        qualname = _owner(analysis, diag)
        line = getattr(diag.location, "line", None) or 0
        depth = analysis.cost.effective_depth(qualname, line)
        rows.append(
            (
                -analysis.weight(qualname),
                -depth,
                getattr(diag.location, "path", "") or "",
                line,
                diag.rule,
                qualname,
                diag,
            )
        )
    rows.sort(key=lambda r: r[:6])
    entries = [
        WorklistEntry(
            rank=i + 1,
            function=qualname,
            path=path,
            line=line,
            rule=rule,
            effective_depth=-neg_depth,
            weight=-neg_weight,
            message=diag.message,
        )
        for i, (neg_weight, neg_depth, path, line, rule, qualname, diag)
        in enumerate(rows)
    ]
    join = analysis.join
    return Worklist(
        targets=sorted(targets),
        profile=join.source if join is not None else None,
        entries=entries,
        unmatched_spans=sorted(join.unmatched) if join is not None else [],
    )


def worklist_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    profile: str | None = None,
) -> Worklist:
    """The ranked vectorization worklist (ignores pragmas and baseline)."""
    analysis, diagnostics, _files = build_analysis(paths, select, profile)
    findings = [d for d in diagnostics if d.rule.startswith("perf/")]
    return build_worklist(analysis, findings, [str(p) for p in paths])
