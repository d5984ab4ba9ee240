"""Sanitize reports: aggregation, text rendering, JSON rendering.

A :class:`SanitizeReport` is the result of one sanitize run over a set
of files: the sorted diagnostics plus how many findings the baseline
suppressed.  The severity accessors, summaries and exit-code convention
come from :class:`repro.diagnostics.DiagnosticReport`, shared with
:mod:`repro.lint` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..diagnostics import Diagnostic, DiagnosticReport

__all__ = ["SanitizeReport"]


@dataclass
class SanitizeReport(DiagnosticReport):
    """The outcome of sanitizing a set of source files.

    ``targets`` are the paths as requested, ``files`` the number of
    Python files actually analysed, ``suppressed`` the count of
    baseline-grandfathered findings hidden from ``diagnostics`` (kept
    visible here so a grandfathered tree never reads as clean).
    """

    targets: list[str] = field(default_factory=list)
    files: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: int = 0

    def format_text(self) -> str:
        """Full human-readable report."""
        return self.render_text(
            f"sanitize {' '.join(self.targets)}: "
            f"{self.files} file{'s' if self.files != 1 else ''}"
        )

    def to_json(self) -> dict[str, Any]:
        """JSON-compatible report document."""
        return {
            "targets": self.targets,
            "files": self.files,
            **self.json_tail(),
        }
