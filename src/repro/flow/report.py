"""Flow reports: the entry points, text/JSON rendering, the graph.

:func:`analyze_paths` runs the flow family on the analyzer engine
(:mod:`repro.sanitize.engine`) and assembles its report;
:func:`build_program` stops after the call graph.

A :class:`FlowReport` is the result of one whole-program analysis run:
the sorted diagnostics plus the graph's headline sizes, sharing the
severity accessors and exit-code convention of
:class:`repro.diagnostics.DiagnosticReport` with the lint and sanitize
reports.  ``FLOW_FORMAT`` versions both the report JSON and the
``--graph`` serialization; the report dataclass is pinned in the
sanitize schema fingerprint registry like every other persisted format
in the tree (``repro sanitize --fix`` re-pins after a deliberate,
version-bumped change).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..diagnostics import Baseline, Diagnostic, DiagnosticReport
from ..sanitize.engine import Engine
from .graph import Program

__all__ = [
    "FLOW_FORMAT",
    "FlowReport",
    "analyze_paths",
    "build_program",
    "graph_json",
]

#: Version of the flow report and graph JSON documents.
FLOW_FORMAT = 1


@dataclass
class FlowReport(DiagnosticReport):
    """The outcome of one whole-program flow analysis.

    ``targets`` are the paths as requested; ``files``, ``functions``
    and ``edges`` size the analysed program (they make an unexpectedly
    empty report self-diagnosing: zero edges means resolution broke,
    not that the tree is clean); ``suppressed`` counts
    baseline-grandfathered findings hidden from ``diagnostics``.
    """

    targets: list[str] = field(default_factory=list)
    files: int = 0
    functions: int = 0
    edges: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: int = 0

    def format_text(self) -> str:
        """Full human-readable report."""
        return self.render_text(
            f"flow {' '.join(self.targets)}: "
            f"{self.files} file{'s' if self.files != 1 else ''}, "
            f"{self.functions} functions, {self.edges} edges"
        )

    def to_json(self) -> dict[str, Any]:
        """JSON-compatible report document."""
        return {
            "format": FLOW_FORMAT,
            "targets": self.targets,
            "files": self.files,
            "functions": self.functions,
            "edges": self.edges,
            **self.json_tail(),
        }


def graph_json(program: Program) -> dict[str, Any]:
    """Serialise the call graph (``repro flow --graph``).

    Nodes carry kind (``function``/``class``/``module``), location and
    the per-function facts; edges carry caller/callee/kind/line plus the
    rng-forwarding mode for calls.  Node and edge order is the sorted
    order the program itself uses, so two runs over the same tree emit
    bit-identical documents.
    """
    nodes: list[dict[str, Any]] = []
    for qualname in sorted(program.functions):
        finfo = program.functions[qualname]
        nodes.append(
            {
                "id": qualname,
                "kind": "function",
                "path": finfo.path,
                "line": finfo.line,
                "class": finfo.cls,
                "rng_param": finfo.rng_param,
                "abstract": finfo.is_abstract,
                "raises": sorted({site.exc for site in finfo.raises}),
            }
        )
    for qualname in sorted(program.classes):
        cinfo = program.classes[qualname]
        nodes.append(
            {
                "id": qualname,
                "kind": "class",
                "path": cinfo.path,
                "line": cinfo.line,
                "bases": list(cinfo.bases),
                "methods": sorted(cinfo.methods),
            }
        )
    for module in sorted(program.modules):
        nodes.append(
            {
                "id": module,
                "kind": "module",
                "path": program.modules[module].path,
            }
        )
    edges = [
        {
            "caller": e.caller,
            "callee": e.callee,
            "kind": e.kind,
            "path": e.path,
            "line": e.line,
            "rng": e.rng_mode,
        }
        for e in program.edges
    ]
    return {"format": FLOW_FORMAT, "nodes": nodes, "edges": edges}


def build_program(paths: Iterable[str | Path]) -> Program:
    """Discover, parse and index a tree without running any rules."""
    return Engine(paths).program


def analyze_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    baseline: Baseline | None = None,
) -> FlowReport:
    """Analyse a set of files/directories as one whole program."""
    engine = Engine(paths, select=select)
    engine.run_family("flow")
    kept, suppressed = engine.waive(baseline)
    return FlowReport(
        targets=engine.targets,
        files=len(engine.files),
        functions=len(engine.program.functions),
        edges=len(engine.program.edges),
        diagnostics=kept,
        suppressed=suppressed,
    )
