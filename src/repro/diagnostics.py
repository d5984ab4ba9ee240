"""Diagnostic plumbing shared by the repo's static analyzers.

The analyzer family lives on this module: :mod:`repro.lint` (networks
are the analysis target) and the source-tree analyzers
:mod:`repro.sanitize`, :mod:`repro.flow`, :mod:`repro.perf`,
:mod:`repro.race` and :mod:`repro.shape`.  All express findings as
immutable :class:`Diagnostic` records -- a stable ``category/name``
rule id, a :class:`Severity`, a message, an analyzer-specific location,
and an optional :class:`FixIt` -- and aggregate them in reports sharing
one rendering, one JSON schema, and one exit-code convention
(:class:`DiagnosticReport`).  Keeping the plumbing here means the
analyzers cannot drift: a change to severity ordering, report summaries
or exit codes lands in all of them at once.

The ratcheted-baseline mechanism (:class:`Baseline`) and the waiver
pass the analyzer engine runs once over the raw findings of every
family (:func:`apply_waivers`) live here too, so the grandfathering
semantics -- line-number-independent fingerprints,
pragma-before-baseline order, suppressed counts -- are one code path.

Locations are analyzer-specific (a network finding points at a
stage/gate/wire triple, a source finding at a file/line/column, see
:class:`SourceLocation`) and are duck-typed: any object with
``format() -> str``, ``to_json() -> dict`` and a comparable
``sort_key`` tuple works.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Protocol, runtime_checkable

from .errors import SanitizeError

__all__ = [
    "Severity",
    "SupportsLocation",
    "SourceLocation",
    "FixIt",
    "Diagnostic",
    "DiagnosticReport",
    "BASELINE_VERSION",
    "Baseline",
    "apply_waivers",
]


class Severity(enum.Enum):
    """How serious a diagnostic is.

    ``ERROR``
        A violated invariant (the network provably cannot sort; the
        source change breaks reproducibility or fork safety); the
        analyzer exits non-zero.
    ``WARNING``
        Suspicious but not disqualifying.
    ``INFO``
        Neutral facts worth surfacing.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Numeric rank for sorting: errors first, infos last."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@runtime_checkable
class SupportsLocation(Protocol):
    """What a location object must provide to ride on a diagnostic."""

    def format(self) -> str:  # pragma: no cover - protocol
        """Render the location for the human-readable report."""
        ...

    def to_json(self) -> dict[str, Any]:  # pragma: no cover - protocol
        """Render the location as a JSON-compatible dict."""
        ...

    @property
    def sort_key(self) -> tuple:  # pragma: no cover - protocol
        """Tuple ordering diagnostics within one severity."""
        ...


@dataclass(frozen=True)
class SourceLocation:
    """Where in the source tree a diagnostic points.

    ``path`` is the file as given to the analyzer (kept relative so
    reports are machine-portable); ``line`` is 1-based, ``col`` 0-based
    (both straight off the AST node).  ``line`` may be ``None`` for
    whole-file findings (e.g. a module missing its version constant).
    """

    path: str
    line: int | None = None
    col: int | None = None

    def format(self) -> str:
        """Render like ``repro/core/collision.py:188:15``."""
        parts = [self.path]
        if self.line is not None:
            parts.append(str(self.line))
            if self.col is not None:
                parts.append(str(self.col))
        return ":".join(parts)

    def to_json(self) -> dict[str, Any]:
        """JSON-compatible dict (omits unset fields)."""
        doc: dict[str, Any] = {"path": self.path}
        if self.line is not None:
            doc["line"] = self.line
        if self.col is not None:
            doc["col"] = self.col
        return doc

    @property
    def sort_key(self) -> tuple[str, int, int]:
        """Report order within a severity: path, then line, then column."""
        return (
            self.path,
            self.line if self.line is not None else -1,
            self.col if self.col is not None else -1,
        )


@dataclass(frozen=True)
class FixIt:
    """A behaviour-preserving repair suggested by a rule.

    ``removals`` lists analyzer-specific ``(index, index)`` pairs of
    items that can be deleted safely; :func:`repro.lint.fixes.apply`
    consumes gate removals, and :mod:`repro.sanitize` uses the
    description alone (its repairs are applied by hand or by
    ``--fix`` for schema registry updates).
    """

    description: str
    removals: tuple[tuple[int, int], ...] = ()

    def to_json(self) -> dict[str, Any]:
        """JSON-compatible dict."""
        return {
            "description": self.description,
            "removals": [list(r) for r in self.removals],
        }


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analyzer rule.

    ``rule`` is the registry id (e.g. ``"abstract/redundant-comparator"``
    or ``"determinism/unseeded-rng"``); ``severity``, ``message`` and
    ``location`` describe the finding; ``fix`` optionally carries a safe
    repair.  ``location`` may be ``None`` for findings with no
    meaningful anchor (e.g. a whole-network budget violation).
    """

    rule: str
    severity: Severity
    message: str
    location: SupportsLocation | None = None
    fix: FixIt | None = None

    def format(self) -> str:
        """One-line rendering: ``error[rule] location: message``."""
        loc = self.location.format() if self.location is not None else "-"
        prefix = f"{self.severity.value}[{self.rule}]"
        if loc != "-":
            return f"{prefix} {loc}: {self.message}"
        return f"{prefix}: {self.message}"

    def to_json(self) -> dict[str, Any]:
        """JSON-compatible dict mirroring :meth:`format`'s content."""
        doc: dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "location": (
                self.location.to_json() if self.location is not None else {}
            ),
        }
        if self.fix is not None:
            doc["fix"] = self.fix.to_json()
        return doc

    @property
    def sort_key(self) -> tuple:
        """Order: severity rank, then location order, then rule id.

        Location sort keys are analyzer-specific tuples; within one
        report they are homogeneous, so tuple comparison is total.
        """
        loc_key = self.location.sort_key if self.location is not None else ()
        return (self.severity.rank, loc_key, self.rule)


class DiagnosticReport:
    """Severity accessors, summaries and exit codes shared by reports.

    Subclasses are dataclasses declaring (at least) a ``diagnostics``
    list plus their own headline fields, and implement
    :meth:`format_text` / :meth:`to_json` on top of the helpers here.
    The exit-code convention is uniform across analyzers: ``1`` when at
    least one error-severity diagnostic fired, else ``0`` (usage
    problems exit ``2`` at the CLI layer, before a report exists).
    """

    diagnostics: list[Diagnostic]

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        """All diagnostics of one severity, in report order."""
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        """The error-severity diagnostics."""
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        """The warning-severity diagnostics."""
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> list[Diagnostic]:
        """The info-severity diagnostics."""
        return self.by_severity(Severity.INFO)

    @property
    def has_errors(self) -> bool:
        """True iff at least one error diagnostic was reported."""
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def exit_code(self) -> int:
        """Process exit code: 1 when errors are present, else 0."""
        return 1 if self.has_errors else 0

    @property
    def fixable(self) -> list[Diagnostic]:
        """Diagnostics carrying a safe fix-it."""
        return [d for d in self.diagnostics if d.fix is not None]

    def by_rule(self, prefix: str) -> list[Diagnostic]:
        """Diagnostics whose rule id starts with ``prefix``."""
        return [d for d in self.diagnostics if d.rule.startswith(prefix)]

    def summary(self) -> str:
        """One line like ``2 errors, 1 warning, 3 notes``."""
        e, w, i = len(self.errors), len(self.warnings), len(self.infos)
        parts = [
            f"{e} error{'s' if e != 1 else ''}",
            f"{w} warning{'s' if w != 1 else ''}",
            f"{i} note{'s' if i != 1 else ''}",
        ]
        return ", ".join(parts)

    def summary_json(self) -> dict[str, int]:
        """The counts block shared by every report's ``to_json``."""
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "fixable": len(self.fixable),
        }

    def render_text(self, header: str) -> str:
        """The shared ``format_text`` body of every tree analyzer report.

        One ``header`` line sizing the analysed tree, each diagnostic
        with its optional fix-it, then the severity summary with the
        baselined count appended when the ratchet suppressed anything.
        Subclasses build their analyzer-specific header and delegate
        here, so the rendering cannot drift between families.
        """
        lines = [header]
        for diag in self.diagnostics:
            lines.append("  " + diag.format())
            if diag.fix is not None:
                lines.append(f"    fix-it: {diag.fix.description}")
        summary = self.summary()
        suppressed = getattr(self, "suppressed", 0)
        if suppressed:
            summary += f" ({suppressed} baselined)"
        lines.append(summary)
        return "\n".join(lines)

    def json_tail(self) -> dict[str, Any]:
        """The shared trailing block of every report's ``to_json``.

        Every schema-pinned report document ends with the rendered
        diagnostics, the suppressed count and the severity summary;
        subclasses splat this after their headline fields so the wire
        tail stays field-for-field identical across analyzers.
        """
        return {
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "suppressed": getattr(self, "suppressed", 0),
            "summary": self.summary_json(),
        }


#: Version of the baseline document format; bump on breaking change.
BASELINE_VERSION = 1


@dataclass
class Baseline:
    """A set of grandfathered finding fingerprints.

    A baseline is a JSON document listing findings that are
    acknowledged but not yet fixed; matching findings are suppressed
    from the report (and the exit code) so a CI gate can be turned on
    *before* the tree is fully clean, then ratcheted down to empty.
    Every analyzer family reads the one shipped file,
    ``analyzer-baseline.json``: it holds only ``perf/*`` entries (the
    grandfathered vectorization worklist, burned down PR by PR), so a
    new finding of any other family fails CI immediately.

    Entries are fingerprinted as ``(rule id, repro-anchored path,
    stripped source line)`` rather than line numbers, so unrelated
    edits above a grandfathered finding do not churn the baseline.  A
    consequence worth knowing: two *identical* violations on identical
    lines of one file share a fingerprint and are suppressed together
    -- acceptable for a ratchet-to-zero workflow, where entries only
    ever disappear.
    """

    entries: set[tuple[str, str, str]] = field(default_factory=set)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        """Read a baseline file (``SanitizeError`` on malformed input)."""
        p = Path(path)
        try:
            doc = json.loads(p.read_text())
        except OSError as exc:
            raise SanitizeError(f"cannot read baseline {p}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SanitizeError(
                f"baseline {p} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(doc, dict) or doc.get("version") != BASELINE_VERSION:
            raise SanitizeError(
                f"baseline {p} must be an object with version = "
                f"{BASELINE_VERSION}"
            )
        findings = doc.get("findings")
        if not isinstance(findings, list):
            raise SanitizeError(f"baseline {p}: 'findings' must be a list")
        entries: set[tuple[str, str, str]] = set()
        for i, entry in enumerate(findings):
            if not isinstance(entry, dict) or not all(
                isinstance(entry.get(k), str) for k in ("rule", "path")
            ):
                raise SanitizeError(
                    f"baseline {p}: finding {i} must be an object with "
                    "string 'rule' and 'path'"
                )
            entries.add(
                (entry["rule"], entry["path"], entry.get("content", ""))
            )
        return cls(entries=entries)

    @staticmethod
    def fingerprint(diag: Diagnostic, line_text: str) -> tuple[str, str, str]:
        """The line-number-independent identity of one finding."""
        from .sanitize.engine import anchored_path

        path = getattr(diag.location, "path", "") or ""
        return (diag.rule, anchored_path(path) if path else "", line_text)

    def matches(self, diag: Diagnostic, line_text: str) -> bool:
        """True iff this finding is grandfathered."""
        return self.fingerprint(diag, line_text) in self.entries

    @staticmethod
    def document(
        findings: list[tuple[Diagnostic, str]],
        kept: Iterable[tuple[str, str, str]] = (),
    ) -> dict[str, Any]:
        """Build a baseline document from ``(diagnostic, line text)`` pairs.

        ``kept`` carries entries of an older baseline over verbatim:
        a write replaces only the entries of the rules that ran.
        """
        fps = set(kept)
        fps.update(Baseline.fingerprint(d, text) for d, text in findings)
        entries = [
            {"rule": rule, "path": path, "content": content}
            for rule, path, content in fps
        ]
        entries.sort(key=lambda e: (e["path"], e["rule"], e["content"]))
        return {"version": BASELINE_VERSION, "findings": entries}

    def write(self, path: str | Path, doc: dict[str, Any]) -> None:
        """Write a baseline document with a trailing newline."""
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def apply_waivers(
    diagnostics: list[Diagnostic],
    contexts: Mapping[str, Any],
    baseline: "Baseline | None",
) -> tuple[list[Diagnostic], int]:
    """The one waiver pass over the raw findings of every family.

    Pragma-suppressed findings are dropped silently (the pragma is the
    documented waiver); baseline-matched findings are dropped but
    counted, so a grandfathered tree never reads as clean.  Returns the
    kept diagnostics sorted by :attr:`Diagnostic.sort_key` plus the
    suppressed count; the sort is stable, so ties keep the order the
    families ran in.  ``contexts`` maps file paths to objects with the
    :class:`repro.sanitize.FileContext` waiver surface (``suppressed``
    and ``line_text``); diagnostics whose path has no context skip the
    pragma check and fingerprint with an empty line.
    """
    kept: list[Diagnostic] = []
    suppressed = 0
    for diag in diagnostics:
        path = getattr(diag.location, "path", None)
        ctx = contexts.get(path) if path else None
        if ctx is not None and ctx.suppressed(diag):
            continue
        if ctx is None:
            line_text = ""
        else:
            line_text = ctx.line_text(getattr(diag.location, "line", None))
        if baseline is not None and baseline.matches(diag, line_text):
            suppressed += 1
            continue
        kept.append(diag)
    kept.sort(key=lambda d: d.sort_key)
    return kept, suppressed
