"""The analyzer engine: one pipeline for all five analyzer families.

Mirrors :mod:`repro.lint.engine` with the analysis target swapped: the
input is Python source from the repro tree itself, parsed with the
stdlib :mod:`ast` (zero new dependencies).  One :class:`Engine` pass

1. discovers the files in deterministic (sorted) order, then reads
   and parses each exactly once into a :class:`FileContext`
   (unparseable files become ``parse/syntax-error`` diagnostics
   instead of stack traces);
2. runs the selected families in the fixed order of :data:`FAMILIES`:
   the per-file ``sanitize`` rules over the contexts, then each
   whole-program family's ``*Analysis.build`` and rule registry over
   one :class:`~repro.flow.graph.Program`, built on first use;
3. applies ``# sanitize: ok`` pragmas and the baseline once, in
   :func:`~repro.diagnostics.apply_waivers`, over the findings of
   every family concatenated in run order, so the final stable sort
   breaks ties the same way whichever families ran.

Entry points: :func:`analyze` (the combined ``repro sanitize --flow
--perf --race --shape`` gate), the thin per-family wrappers built on
:class:`Engine` (:func:`sanitize_paths` here, ``analyze_paths`` in each
whole-program package), and :func:`sanitize_source` /
:func:`sanitize_file` for one in-memory or on-disk file.

Determinism contract: the report depends only on the *set* of files and
their contents -- never on visit order, dict order, or the host -- so
two runs over the same tree are bit-identical (property-tested in
``tests/sanitize/test_determinism.py`` and each family's
``test_order_independence.py``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from ..diagnostics import (
    Baseline,
    Diagnostic,
    Severity,
    SourceLocation,
    apply_waivers,
)
from ..errors import SanitizeError

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..flow.graph import Program
    from ..perf.profilejoin import ProfileJoin
    from .report import SanitizeReport

__all__ = [
    "FAMILIES",
    "SanitizeConfig",
    "FileContext",
    "Engine",
    "analyze",
    "selected",
    "rule_ids",
    "anchored_path",
    "discover_files",
    "sanitize_source",
    "sanitize_file",
    "sanitize_paths",
]

#: Every analyzer family, in the order the engine runs them.
FAMILIES = ("sanitize", "flow", "perf", "race", "shape")

#: The rule id of an unparseable file; every run reports it.
PARSE_RULE = "parse/syntax-error"

#: ``# sanitize: ok`` or ``# sanitize: ok[prefix, prefix]`` on a line
#: suppresses findings anchored there (bracketed form: only matching
#: rule-id prefixes).
_PRAGMA = re.compile(r"#\s*sanitize:\s*ok(?:\[([^\]]*)\])?")


@dataclass(frozen=True)
class SanitizeConfig:
    """Tunables for one sanitize run.

    ``select`` optionally restricts to rules whose id starts with one of
    the given prefixes.  ``schema_registry`` overrides the packaged
    schema fingerprint registry (tests inject fixture registries here);
    ``None`` loads ``schema_registry.json`` from the package.
    """

    select: tuple[str, ...] | None = None
    schema_registry: dict[str, Any] | None = None


def selected(rule_id: str, select: Iterable[str] | None) -> bool:
    """True iff ``rule_id`` passes the ``--select`` prefix filter.

    ``None`` or an empty filter selects every rule.
    """
    return not select or any(rule_id.startswith(p) for p in select)


def anchored_path(path: str | Path) -> str:
    """Normalise a file path to its ``repro/...`` suffix.

    Rule scopes and baseline fingerprints are keyed by this anchored
    form so they are independent of where the tree is checked out
    (``src/repro/core/x.py`` and ``/ci/build/src/repro/core/x.py`` both
    anchor to ``repro/core/x.py``).  Paths without a ``repro`` segment
    fall back to the bare file name.
    """
    parts = Path(path).as_posix().split("/")
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[idx:])
    return parts[-1]


class FileContext:
    """Lazily-computed shared state handed to every rule for one file."""

    def __init__(
        self,
        source: str,
        path: str,
        tree: ast.Module,
        registry: dict[str, Any] | None = None,
    ):
        self.source = source
        #: The path as given (what diagnostics display).
        self.path = path
        #: The ``repro/...``-anchored path (what rule scopes match on).
        self.relpath = anchored_path(path)
        self.tree = tree
        #: Parsed schema fingerprint registry (``schema/*`` rules).
        self.registry = registry if registry is not None else {}

    @cached_property
    def lines(self) -> list[str]:
        """Source split into lines (1-based access via :meth:`line_text`)."""
        return self.source.splitlines()

    def line_text(self, line: int | None) -> str:
        """The stripped text of a 1-based source line (or ``""``)."""
        if line is None or not (1 <= line <= len(self.lines)):
            return ""
        return self.lines[line - 1].strip()

    @cached_property
    def module(self) -> str:
        """Dotted module name derived from the anchored path."""
        rel = self.relpath
        if rel.endswith(".py"):
            rel = rel[: -len(".py")]
        parts = [p for p in rel.split("/") if p]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Imported-name map: local alias -> fully-qualified dotted name.

        Collected over the whole file (the tree under analysis imports
        lazily inside functions); relative imports are resolved against
        :attr:`module`, so ``from ..errors import ReproError`` inside
        ``repro/core/x.py`` maps ``ReproError`` to
        ``repro.errors.ReproError``.
        """
        aliases: dict[str, str] = {}
        parts = self.module.split(".") if self.module else []
        # An ``__init__.py``'s module name already IS its package, so a
        # level-1 relative import resolves against it, not its parent.
        if Path(self.relpath).name == "__init__.py":
            pkg = parts
        else:
            pkg = parts[:-1]
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        aliases[a.asname] = a.name
                    else:
                        root = a.name.split(".")[0]
                        aliases[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = pkg[: len(pkg) - (node.level - 1)]
                    head = ".".join(base + ([node.module] if node.module else []))
                else:
                    head = node.module or ""
                for a in node.names:
                    if a.name == "*":
                        continue
                    full = f"{head}.{a.name}" if head else a.name
                    aliases[a.asname or a.name] = full
        return aliases

    def dotted(self, node: ast.AST) -> str | None:
        """The literal dotted form of a Name/Attribute chain, if any."""
        if isinstance(node, ast.Attribute):
            base = self.dotted(node.value)
            return f"{base}.{node.attr}" if base else None
        if isinstance(node, ast.Name):
            return node.id
        return None

    def resolve(self, node: ast.AST) -> str | None:
        """Qualified name with the root alias expanded (or the raw name).

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when ``np`` was imported as numpy;
        an unimported root (builtin, local variable) passes through
        unchanged.
        """
        name = self.dotted(node)
        if name is None:
            return None
        root, _, rest = name.partition(".")
        target = self.aliases.get(root)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target

    def resolve_imported(self, node: ast.AST) -> str | None:
        """Like :meth:`resolve`, but ``None`` unless the root is imported.

        Module-membership rules (``random.*``, ``numpy.random.*``) use
        this so a local variable that happens to shadow a module name
        (``rng.random()``) cannot false-positive.
        """
        name = self.dotted(node)
        if name is None:
            return None
        root, _, rest = name.partition(".")
        target = self.aliases.get(root)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    @cached_property
    def module_level_names(self) -> frozenset[str]:
        """Names bound by plain assignments in the module body."""
        names: set[str] = set()
        for stmt in self.tree.body:
            for target in _assign_targets(stmt):
                names.add(target)
        return frozenset(names)

    @cached_property
    def function_nodes(self) -> list[ast.AST]:
        """Every function/lambda body node, for function-scope rules."""
        funcs: list[ast.AST] = []
        for node in ast.walk(self.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                funcs.append(node)
        return funcs

    def in_scope(self, prefixes: Iterable[str]) -> bool:
        """True iff this file's anchored path falls under any prefix."""
        rel = self.relpath
        return any(
            rel == p or (p.endswith("/") and rel.startswith(p))
            for p in prefixes
        )

    def suppressed(self, diag: Diagnostic) -> bool:
        """True iff a ``# sanitize: ok`` pragma covers this diagnostic."""
        loc = diag.location
        line = getattr(loc, "line", None)
        if line is None or not (1 <= line <= len(self.lines)):
            return False
        match = _PRAGMA.search(self.lines[line - 1])
        if match is None:
            return False
        prefixes = match.group(1)
        if prefixes is None:
            return True
        return any(
            diag.rule.startswith(p.strip())
            for p in prefixes.split(",")
            if p.strip()
        )


def _assign_targets(stmt: ast.stmt) -> Iterator[str]:
    """Plain names bound by one module-body statement."""
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                yield target.id
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(stmt.target, ast.Name):
            yield stmt.target.id


def _syntax_error(path: str, exc: SyntaxError) -> Diagnostic:
    return Diagnostic(
        rule=PARSE_RULE,
        severity=Severity.ERROR,
        message=f"cannot parse: {exc.msg}",
        location=SourceLocation(path=path, line=exc.lineno, col=exc.offset),
    )


class _Unparsed:
    """The waiver surface of a file that did not parse.

    Its syntax error fingerprints with the offending line, like every
    other finding, but no pragma can waive it.
    """

    def __init__(self, source: str):
        self.lines = source.splitlines()

    def suppressed(self, diag: Diagnostic) -> bool:
        return False

    def line_text(self, line: int | None) -> str:
        if line is None or not (1 <= line <= len(self.lines)):
            return ""
        return self.lines[line - 1].strip()


def _schema_registry(override: dict[str, Any] | None) -> dict[str, Any]:
    """The schema fingerprint registry: ``override``, else the packaged one."""
    if override is not None:
        return override
    from .schema import load_registry

    return load_registry()


def _family(family: str) -> tuple[dict[str, Any], Any]:
    """One family's rule registry and the analysis class its rules read.

    The per-file ``sanitize`` family has no analysis class: its rules
    read each :class:`FileContext`.
    """
    if family == "sanitize":
        from .rules import RULES

        return RULES, None
    if family == "flow":
        from ..flow.rules import FLOW_RULES, FlowAnalysis

        return FLOW_RULES, FlowAnalysis
    if family == "perf":
        from ..perf.rules import PERF_RULES, PerfAnalysis

        return PERF_RULES, PerfAnalysis
    if family == "race":
        from ..race.rules import RACE_RULES, RaceAnalysis

        return RACE_RULES, RaceAnalysis
    if family == "shape":
        from ..shape.rules import SHAPE_RULES, ShapeAnalysis

        return SHAPE_RULES, ShapeAnalysis
    raise SanitizeError(f"unknown analyzer family {family!r}")


def rule_ids(families: Iterable[str], select: Iterable[str] | None) -> set[str]:
    """Every rule a run of ``families`` under ``select`` checks.

    The parse check runs on every file whatever the selection, so it
    always counts.
    """
    ids = {PARSE_RULE}
    for family in families:
        ids.update(r for r in _family(family)[0] if selected(r, select))
    return ids


def _check(rules: dict[str, Any], target: Any, select) -> Iterator[Diagnostic]:
    """Every finding of the selected rules of one registry."""
    for rule in rules.values():
        if selected(rule.id, select):
            yield from rule.check(target)


class Engine:
    """One analyzer pass: each file parsed once, one program at most.

    Construction discovers, reads and parses the files.
    :meth:`run_family` adds one family's findings to :attr:`diagnostics`
    and returns the analysis its rules read (``None`` for the per-file
    ``sanitize`` family); the caller keeps it only as long as it needs
    it.  :meth:`waive` applies pragmas and the baseline to everything
    found.
    """

    def __init__(
        self,
        paths: Iterable[str | Path],
        *,
        select: Iterable[str] | None = None,
        schema_registry: dict[str, Any] | None = None,
    ):
        paths = list(paths)
        self.targets = sorted(str(p) for p in paths)
        self.files = discover_files(paths)
        self.select = tuple(select) if select else None
        self.schema_registry = schema_registry
        #: Parsed files by path, in discovery order.
        self.contexts: dict[str, FileContext] = {}
        self._unparsed: dict[str, _Unparsed] = {}
        #: Raw findings of every family run so far, in run order.
        self.diagnostics: list[Diagnostic] = []
        for f in self.files:
            path = f.as_posix()
            try:
                source = f.read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise SanitizeError(f"cannot read {f}: {exc}") from exc
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                self.diagnostics.append(_syntax_error(path, exc))
                self._unparsed[path] = _Unparsed(source)
                continue
            self.contexts[path] = FileContext(source, path, tree)

    @cached_property
    def program(self) -> "Program":
        """The whole-program call graph over every parsed file."""
        from ..flow.graph import Program

        return Program.build(list(self.contexts.values()))

    def run_family(
        self, family: str, join: "ProfileJoin | None" = None
    ) -> Any:
        """Run one family's selected rules; return what they read.

        ``join`` is a profile joined onto :attr:`program` for the perf
        rules to rank by (``repro perf --profile``).
        """
        rules, analysis_class = _family(family)
        if analysis_class is None:
            registry = _schema_registry(self.schema_registry)
            for ctx in self.contexts.values():
                ctx.registry = registry
                self.diagnostics.extend(_check(rules, ctx, self.select))
            return None
        if family == "perf":
            analysis = analysis_class.build(self.program, join=join)
        else:
            analysis = analysis_class.build(self.program)
        self.diagnostics.extend(_check(rules, analysis, self.select))
        return analysis

    def waive(self, baseline: Baseline | None) -> tuple[list[Diagnostic], int]:
        """Apply pragmas, then ``baseline``: kept findings and suppressed count."""
        return apply_waivers(
            self.diagnostics, {**self._unparsed, **self.contexts}, baseline
        )


def analyze(
    paths: Iterable[str | Path],
    families: Iterable[str],
    *,
    select: Iterable[str] | None = None,
    baseline: Baseline | None = None,
    schema_registry: dict[str, Any] | None = None,
) -> "SanitizeReport":
    """Run ``families`` over one parse of ``paths``: the combined gate.

    Families run in :data:`FAMILIES` order whatever order ``families``
    lists them in, and each analysis is dropped before the next one is
    built.  Baseline-matched findings are suppressed from the report
    (and hence from the exit code) but counted in ``report.suppressed``
    so a grandfathered tree is visibly grandfathered, not silently
    clean.
    """
    from .report import SanitizeReport

    wanted = set(families)
    engine = Engine(paths, select=select, schema_registry=schema_registry)
    for family in FAMILIES:
        if family in wanted:
            engine.run_family(family)
    kept, suppressed = engine.waive(baseline)
    return SanitizeReport(
        targets=engine.targets,
        files=len(engine.files),
        diagnostics=kept,
        suppressed=suppressed,
    )


def sanitize_paths(
    paths: Iterable[str | Path],
    config: SanitizeConfig | None = None,
    baseline: Baseline | None = None,
) -> "SanitizeReport":
    """Run the per-file rules over a set of files/directories."""
    cfg = config or SanitizeConfig()
    return analyze(
        paths,
        ("sanitize",),
        select=cfg.select,
        baseline=baseline,
        schema_registry=cfg.schema_registry,
    )


def sanitize_source(
    source: str,
    path: str,
    config: SanitizeConfig | None = None,
    *,
    registry: dict[str, Any] | None = None,
) -> list[Diagnostic]:
    """Run every selected per-file rule over one source string.

    ``path`` locates the findings *and* selects rule scopes (the
    determinism rules only apply under ``repro/core/`` etc.), so tests
    can exercise scoped rules on fixture snippets by passing virtual
    paths like ``"repro/core/example.py"``.  Returns the pragma-filtered
    diagnostics, sorted.
    """
    cfg = config or SanitizeConfig()
    if registry is None:
        registry = _schema_registry(cfg.schema_registry)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_syntax_error(path, exc)]
    ctx = FileContext(source, path, tree, registry=registry)
    diagnostics = [
        d for d in _check(_family("sanitize")[0], ctx, cfg.select)
        if not ctx.suppressed(d)
    ]
    diagnostics.sort(key=lambda d: d.sort_key)
    return diagnostics


def sanitize_file(
    path: str | Path,
    config: SanitizeConfig | None = None,
    *,
    registry: dict[str, Any] | None = None,
) -> list[Diagnostic]:
    """Analyse one file on disk (raises ``SanitizeError`` if unreadable)."""
    p = Path(path)
    try:
        source = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SanitizeError(f"cannot read {p}: {exc}") from exc
    return sanitize_source(source, p.as_posix(), config, registry=registry)


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list.

    Directories are walked recursively for ``*.py``; ``__pycache__`` is
    skipped.  The sort (by posix path string) is what makes the report
    independent of filesystem enumeration order.
    """
    files: set[Path] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.update(
                f for f in p.rglob("*.py") if "__pycache__" not in f.parts
            )
        elif p.is_file():
            files.add(p)
        else:
            raise SanitizeError(f"no such file or directory: {p}")
    return sorted(files, key=lambda f: f.as_posix())
