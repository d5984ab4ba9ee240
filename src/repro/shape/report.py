"""Shape reports: the entry points, text/JSON rendering, the model.

:func:`analyze_paths` runs the shape family on the analyzer engine
(:mod:`repro.sanitize.engine`) and assembles its report;
:func:`build_analysis` returns the raw analysis for the ``--graph``
model and the unit tests.

A :class:`ShapeReport` is the result of one whole-program dtype/ndim
analysis run: the sorted diagnostics plus the sizes of the analysed
program and its inferred-dtype histogram, sharing the severity
accessors, rendering helpers and exit-code convention of
:class:`repro.diagnostics.DiagnosticReport` with the other analyzer
reports.  ``SHAPE_FORMAT`` versions both the report JSON and the
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
    from .rules import ShapeAnalysis

__all__ = [
    "SHAPE_FORMAT",
    "ShapeReport",
    "analyze_paths",
    "build_analysis",
    "model_json",
]

#: Version of the shape report and model JSON documents.
SHAPE_FORMAT = 1


@dataclass
class ShapeReport(DiagnosticReport):
    """The outcome of one whole-program shape analysis.

    ``targets`` are the paths as requested; ``files`` and ``functions``
    size the analysed program; ``arrays`` counts the array-allocating
    sites the interpreter modelled and ``dtypes`` histograms their
    inferred dtypes (an analysis that silently lost its constructor
    semantics is self-diagnosing: everything lands in ``unknown``);
    ``suppressed`` counts baseline-grandfathered findings hidden from
    ``diagnostics``.
    """

    targets: list[str] = field(default_factory=list)
    files: int = 0
    functions: int = 0
    arrays: int = 0
    dtypes: dict[str, int] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: int = 0

    def format_text(self) -> str:
        """Full human-readable report."""
        pinned = ", ".join(
            f"{label}: {self.dtypes[label]}"
            for label in sorted(self.dtypes)
            if label != "unknown"
        )
        return self.render_text(
            f"shape {' '.join(self.targets)}: "
            f"{self.files} file{'s' if self.files != 1 else ''}, "
            f"{self.functions} functions, {self.arrays} arrays"
            + (f" ({pinned})" if pinned else "")
        )

    def to_json(self) -> dict[str, Any]:
        """JSON-compatible report document."""
        return {
            "format": SHAPE_FORMAT,
            "targets": self.targets,
            "files": self.files,
            "functions": self.functions,
            "arrays": self.arrays,
            "dtypes": {k: self.dtypes[k] for k in sorted(self.dtypes)},
            **self.json_tail(),
        }


def _value_json(value) -> dict[str, Any]:
    doc: dict[str, Any] = {"kind": value.kind}
    if value.dtype is not None:
        doc["dtype"] = value.dtype
    if value.ndim is not None:
        doc["ndim"] = value.ndim
    if value.shape is not None:
        doc["shape"] = list(value.shape)
    return doc


def model_json(analysis: "ShapeAnalysis") -> dict[str, Any]:
    """Serialise the dtype/ndim model (``repro shape --graph``).

    One entry per function with its return summary and every
    constructor site the interpreter recorded (allocator, line, whether
    the dtype is pinned, the inferred abstract value).  Everything
    iterates in sorted order, so two runs over the same tree emit
    bit-identical documents.
    """
    model = analysis.model
    functions: list[dict[str, Any]] = []
    for qualname in sorted(model.facts):
        facts = model.facts[qualname]
        entry: dict[str, Any] = {
            "id": qualname,
            "returns": _value_json(facts.returns),
            "constructors": [
                {
                    "func": site.func,
                    "line": site.line,
                    "pinned": site.pinned,
                    "value": _value_json(site.value),
                }
                for site in facts.constructors
            ],
            "ops": len(facts.ops),
            "compares": len(facts.compares),
        }
        functions.append(entry)
    return {
        "format": SHAPE_FORMAT,
        "functions": functions,
        "dtypes": {
            k: analysis.dtype_counts()[k]
            for k in sorted(analysis.dtype_counts())
        },
    }


def build_analysis(
    paths: Iterable[str | Path], select: Iterable[str] | None = None
) -> "tuple[ShapeAnalysis, list[Diagnostic], int]":
    """The dtype/ndim analysis, its raw findings and the file count."""
    engine = Engine(paths, select=select)
    return engine.run_family("shape"), engine.diagnostics, len(engine.files)


def analyze_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    baseline: Baseline | None = None,
) -> ShapeReport:
    """Analyse a set of files/directories as one whole program."""
    engine = Engine(paths, select=select)
    analysis = engine.run_family("shape")
    kept, suppressed = engine.waive(baseline)
    return ShapeReport(
        targets=engine.targets,
        files=len(engine.files),
        functions=len(analysis.program.functions),
        arrays=analysis.constructor_count(),
        dtypes=analysis.dtype_counts(),
        diagnostics=kept,
        suppressed=suppressed,
    )
