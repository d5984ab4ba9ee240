"""Race reports: the entry points, text/JSON rendering, the model.

:func:`analyze_paths` runs the race family on the analyzer engine
(:mod:`repro.sanitize.engine`) and assembles its report;
:func:`build_analysis` returns the raw analysis for the ``--graph``
model and the unit tests.

A :class:`RaceReport` is the result of one whole-program concurrency
analysis run: the sorted diagnostics plus the sizes of the analysed
program and its concurrency-context summary, sharing the severity
accessors and exit-code convention of
:class:`repro.diagnostics.DiagnosticReport` with the other analyzer
reports.  ``RACE_FORMAT`` versions both the report JSON and the
``--graph`` model serialization; the report dataclass is pinned in the
sanitize schema fingerprint registry like every other persisted format
in the tree (``repro sanitize --fix`` re-pins after a deliberate,
version-bumped change).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from ..diagnostics import Baseline, Diagnostic, DiagnosticReport
from ..sanitize.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rules import RaceAnalysis

__all__ = [
    "RACE_FORMAT",
    "RaceReport",
    "analyze_paths",
    "build_analysis",
    "model_json",
]

#: Version of the race report and model JSON documents.
RACE_FORMAT = 1


@dataclass
class RaceReport(DiagnosticReport):
    """The outcome of one whole-program race analysis.

    ``targets`` are the paths as requested; ``files``, ``functions``
    and ``edges`` size the analysed program (zero edges means call
    resolution broke, not that the tree is clean); ``contexts`` counts
    the functions classified into each concurrency context, so an
    analysis that silently lost its async roots is self-diagnosing;
    ``suppressed`` counts baseline-grandfathered findings hidden from
    ``diagnostics``.
    """

    targets: list[str] = field(default_factory=list)
    files: int = 0
    functions: int = 0
    edges: int = 0
    contexts: dict[str, int] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: int = 0

    def format_text(self) -> str:
        """Full human-readable report."""
        ctx = ", ".join(
            f"{label}: {self.contexts[label]}"
            for label in sorted(self.contexts)
            if self.contexts[label]
        )
        return self.render_text(
            f"race {' '.join(self.targets)}: "
            f"{self.files} file{'s' if self.files != 1 else ''}, "
            f"{self.functions} functions, {self.edges} edges"
            + (f" ({ctx})" if ctx else "")
        )

    def to_json(self) -> dict[str, Any]:
        """JSON-compatible report document."""
        return {
            "format": RACE_FORMAT,
            "targets": self.targets,
            "files": self.files,
            "functions": self.functions,
            "edges": self.edges,
            "contexts": {k: self.contexts[k] for k in sorted(self.contexts)},
            **self.json_tail(),
        }


def model_json(analysis: "RaceAnalysis") -> dict[str, Any]:
    """Serialise the concurrency model (``repro race --graph``).

    One entry per function with its context labels, its direct
    blocking/fork/dispatch facts and its shared-state writes, plus the
    module-level handle table.  Everything iterates in sorted order, so
    two runs over the same tree emit bit-identical documents.
    """
    model = analysis.model
    functions: list[dict[str, Any]] = []
    for qualname in sorted(analysis.program.functions):
        fc = model.facts[qualname]
        entry: dict[str, Any] = {
            "id": qualname,
            "contexts": sorted(analysis.contexts.get(qualname, ())),
            "blocking": [
                {"what": s.what, "line": s.line} for s in fc.blocking
            ],
            "forks": [
                {"what": s.what, "line": s.line} for s in fc.fork_sites
            ],
            "thread_targets": sorted(
                {d.target for d in fc.thread_targets}
            ),
            "loop_targets": sorted({d.target for d in fc.loop_targets}),
            "worker_targets": sorted(
                {d.target for d in fc.worker_targets}
            ),
            "writes": [
                {
                    "scope": w.scope,
                    "name": w.name,
                    "line": w.line,
                    "locks": sorted(w.locks),
                }
                for w in fc.writes
            ],
        }
        effect = analysis.effects.get(qualname)
        if effect is not None:
            entry["blocking_effect"] = {
                "what": effect.site.what,
                "owner": effect.owner,
            }
        functions.append(entry)
    handles = [
        {"module": module, "what": site.what, "line": site.line}
        for module in sorted(model.module_handles)
        for site in model.module_handles[module]
    ]
    return {
        "format": RACE_FORMAT,
        "functions": functions,
        "handles": handles,
    }


def build_analysis(
    paths: Iterable[str | Path], select: Iterable[str] | None = None
) -> "tuple[RaceAnalysis, list[Diagnostic], int]":
    """The concurrency analysis, its raw findings and the file count."""
    engine = Engine(paths, select=select)
    return engine.run_family("race"), engine.diagnostics, len(engine.files)


def analyze_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    baseline: Baseline | None = None,
) -> RaceReport:
    """Analyse a set of files/directories as one whole program."""
    engine = Engine(paths, select=select)
    analysis = engine.run_family("race")
    kept, suppressed = engine.waive(baseline)
    return RaceReport(
        targets=engine.targets,
        files=len(engine.files),
        functions=len(analysis.program.functions),
        edges=len(analysis.program.edges),
        contexts=analysis.context_counts(),
        diagnostics=kept,
        suppressed=suppressed,
    )
