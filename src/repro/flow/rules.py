"""The flow rule catalog: whole-program rules over the call graph.

Mirrors the registry shape of :mod:`repro.sanitize.rules` (stable
``flow/name`` ids, severity, one-line summary), but each rule reads a
:class:`FlowAnalysis` -- the built :class:`~repro.flow.graph.Program`
plus its fixpoint summaries -- instead of a single file context.

``flow/unseeded-rng-path``
    A stochastic kernel (a function that both takes an rng-like
    parameter and constructs a constant default generator) whose rng
    can arrive as ``None`` on some call path: every such path silently
    shares the locally-pinned stream, which is exactly the bug class
    the per-file ``determinism/*`` rules cannot see.
``flow/foreign-exception-escape``
    An exception type escaping ``repro.cli.main`` without deriving from
    :class:`~repro.errors.ReproError`: the CLI maps ``ReproError`` to
    diagnostics and exit codes, anything else is a stack trace.
``flow/fork-hostile-call``
    A function reachable from a farm job handler
    (``Job.execute``/``Job.revalidate`` and overrides) that mutates
    module-level state: the mutation races the pre-fork worker pool
    even when the mutating function lives outside the per-file
    ``forksafety/*`` scope.
``flow/broad-except-swallow``
    A library ``except Exception``/``BaseException`` that neither
    re-raises nor uses the bound exception: it silently erases whole
    escape sets, so the exception-flow summary would be unsound if
    these were left unexamined.
``flow/dead-export``
    A module-level definition that is neither exported via ``__all__``
    (its own module's or any re-exporting package's) nor referenced
    anywhere in the program; also ``__all__`` entries naming nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ..diagnostics import Diagnostic, Severity, SourceLocation
from ..sanitize.rules import CLI_MODULES
from .graph import Program
from .summaries import (
    escape_sets,
    reachable,
    rng_may_arrive_none,
    witness_path,
)

__all__ = [
    "FlowRule",
    "FLOW_RULES",
    "flow_rule",
    "FlowAnalysis",
    "REPRO_ERROR",
    "ESCAPE_ALLOWLIST",
]

#: The library's exception root; dual-inheritance makes every
#: ``SomeError(ReproError, ValueError)`` pass the subtype test.
REPRO_ERROR = "repro.errors.ReproError"

#: Exception types allowed to cross ``main`` raw: process-control
#: signals the CLI deliberately lets propagate.
ESCAPE_ALLOWLIST = frozenset(
    {"SystemExit", "KeyboardInterrupt", "GeneratorExit", "BrokenPipeError"}
)

#: The farm job base class whose handler methods root fork reachability.
_JOB_BASE = "repro.farm.jobs.Job"
_HANDLER_METHODS = ("execute", "revalidate")

#: The CLI entry point rooting exception-escape analysis.
_CLI_MAIN = "repro.cli.main"


@dataclass
class FlowAnalysis:
    """The program plus every fixpoint summary the rules read."""

    program: Program
    escapes: dict[str, frozenset[str]] = field(default_factory=dict)
    may_none: dict[str, bool] = field(default_factory=dict)

    @classmethod
    def build(cls, program: Program) -> "FlowAnalysis":
        return cls(
            program=program,
            escapes=escape_sets(program),
            may_none=rng_may_arrive_none(program),
        )


@dataclass(frozen=True)
class FlowRule:
    """One registered rule: id, default severity, summary, checker."""

    id: str
    severity: Severity
    summary: str
    check: Callable[[FlowAnalysis], Iterable[Diagnostic]]


#: The global registry, keyed by rule id, in registration order.
FLOW_RULES: dict[str, FlowRule] = {}


def flow_rule(
    rule_id: str, severity: Severity, summary: str
) -> Callable[[Callable[[FlowAnalysis], Iterable[Diagnostic]]], Callable]:
    """Decorator registering a rule function under ``rule_id``."""

    def register(
        fn: Callable[[FlowAnalysis], Iterable[Diagnostic]],
    ) -> Callable:
        FLOW_RULES[rule_id] = FlowRule(
            id=rule_id, severity=severity, summary=summary, check=fn
        )
        return fn

    return register


def _chain(path: list[str]) -> str:
    return " -> ".join(path)


# ---------------------------------------------------------------------------
# flow/unseeded-rng-path


def _none_origin(analysis: FlowAnalysis, kernel: str) -> list[str]:
    """A witness chain along which ``None`` can reach the kernel's rng."""
    program = analysis.program
    chain = [kernel]
    cur = kernel
    while True:
        finfo = program.functions[cur]
        step = None
        for edge in program.edges_to.get(cur, ()):
            if edge.kind != "call":
                continue
            if edge.rng_mode == "none" or (
                edge.rng_mode == "absent" and finfo.rng_param_optional
            ):
                return [edge.caller] + chain
            if (
                edge.rng_mode == "param"
                and analysis.may_none.get(edge.caller, False)
                and edge.caller not in chain
            ):
                step = edge.caller
        if step is None:
            return chain
        chain.insert(0, step)
        cur = step


@flow_rule(
    "flow/unseeded-rng-path",
    Severity.ERROR,
    "a call path on which a stochastic kernel's rng arrives as None and "
    "triggers a locally-constructed constant default generator",
)
def check_unseeded_rng_path(analysis: FlowAnalysis) -> Iterator[Diagnostic]:
    program = analysis.program
    for qualname in sorted(program.functions):
        finfo = program.functions[qualname]
        if finfo.rng_param is None or finfo.default_rng_line is None:
            continue
        if not analysis.may_none.get(qualname, False):
            continue
        origin = _none_origin(analysis, qualname)
        if len(origin) > 1:
            how = f"via {_chain(origin)}"
        else:
            how = (
                "via any public caller omitting the keyword "
                f"({finfo.name} is exported with rng=None)"
            )
        yield Diagnostic(
            rule="flow/unseeded-rng-path",
            severity=Severity.ERROR,
            message=(
                f"{qualname} constructs a constant default generator when "
                f"its '{finfo.rng_param}' parameter arrives as None "
                f"({how}); every such path silently shares one pinned "
                "stream -- thread a seed-derived generator from the entry "
                "point instead (cf. repro.farm.jobs.Job.rng)"
            ),
            location=SourceLocation(
                path=finfo.path, line=finfo.default_rng_line
            ),
        )


# ---------------------------------------------------------------------------
# flow/foreign-exception-escape


def _escape_witness(
    analysis: FlowAnalysis, root: str, exc: str
) -> tuple[list[str], str, int]:
    """Chain from the root to a raise site of ``exc`` (path, line)."""
    program = analysis.program
    chain = [root]
    cur = root
    seen = {root}
    while True:
        finfo = program.functions.get(cur)
        if finfo is not None:
            for site in finfo.raises:
                if site.exc == exc:
                    return chain, finfo.path, site.line
        step = None
        for edge in program.edges_from.get(cur, ()):
            if edge.callee in seen:
                continue
            if exc in analysis.escapes.get(
                edge.callee, ()
            ) and not program.absorbed(exc, edge.handlers):
                step = edge.callee
                break
        if step is None:
            finfo = program.functions[root]
            return chain, finfo.path, finfo.line
        chain.append(step)
        seen.add(step)
        cur = step


@flow_rule(
    "flow/foreign-exception-escape",
    Severity.ERROR,
    "an exception escaping cli.main without dual-inheriting ReproError",
)
def check_foreign_exception_escape(
    analysis: FlowAnalysis,
) -> Iterator[Diagnostic]:
    program = analysis.program
    if _CLI_MAIN not in program.functions:
        return
    for exc in sorted(analysis.escapes.get(_CLI_MAIN, ())):
        if exc in ESCAPE_ALLOWLIST:
            continue
        if program.is_exception_subtype(exc, REPRO_ERROR):
            continue
        chain, path, line = _escape_witness(analysis, _CLI_MAIN, exc)
        yield Diagnostic(
            rule="flow/foreign-exception-escape",
            severity=Severity.ERROR,
            message=(
                f"{exc} can escape {_CLI_MAIN} as a stack trace "
                f"(via {_chain(chain)}); raise a ReproError subclass "
                f"(dual-inherit from {exc.rsplit('.', 1)[-1]}) or catch "
                "it at the boundary"
            ),
            location=SourceLocation(path=path, line=line),
        )


# ---------------------------------------------------------------------------
# flow/fork-hostile-call


def _handler_roots(program: Program) -> list[str]:
    if _JOB_BASE not in program.classes:
        return []
    roots = []
    for cls in [_JOB_BASE] + program.descendants(_JOB_BASE):
        info = program.classes.get(cls)
        if info is None:
            continue
        for method in _HANDLER_METHODS:
            qualname = info.methods.get(method)
            if qualname is None:
                continue
            if not program.functions[qualname].is_abstract:
                roots.append(qualname)
    return sorted(set(roots))


@flow_rule(
    "flow/fork-hostile-call",
    Severity.ERROR,
    "a function reachable from farm job handlers that mutates "
    "module-level state",
)
def check_fork_hostile_call(analysis: FlowAnalysis) -> Iterator[Diagnostic]:
    program = analysis.program
    roots = _handler_roots(program)
    if not roots:
        return
    parents = reachable(program, roots)
    for qualname in sorted(parents):
        finfo = program.functions.get(qualname)
        if finfo is None:
            continue
        for site in finfo.mutations:
            if site.suppressed:
                continue
            path = witness_path(parents, qualname)
            yield Diagnostic(
                rule="flow/fork-hostile-call",
                severity=Severity.ERROR,
                message=(
                    f"{site.what} in {qualname} mutates module state on a "
                    f"farm worker path ({_chain(path)}); the parent and "
                    "each forked child see their own copy, so resumed "
                    "campaigns diverge -- pass the state explicitly"
                ),
                location=SourceLocation(path=finfo.path, line=site.line),
            )


# ---------------------------------------------------------------------------
# flow/broad-except-swallow


@flow_rule(
    "flow/broad-except-swallow",
    Severity.ERROR,
    "a silent library except Exception that erases escape information",
)
def check_broad_except_swallow(
    analysis: FlowAnalysis,
) -> Iterator[Diagnostic]:
    program = analysis.program
    for qualname in sorted(program.functions):
        finfo = program.functions[qualname]
        ctx = program.contexts.get(finfo.path)
        if ctx is not None and ctx.in_scope(CLI_MODULES):
            continue
        for site in finfo.broad_excepts:
            yield Diagnostic(
                rule="flow/broad-except-swallow",
                severity=Severity.ERROR,
                message=(
                    f"except {site.caught} in {qualname} swallows every "
                    "exception without re-raising or using it; catch the "
                    "typed ReproError subclasses the callees actually "
                    "raise, or re-raise after cleanup"
                ),
                location=SourceLocation(path=finfo.path, line=site.line),
            )


# ---------------------------------------------------------------------------
# flow/dead-export


def _exported_qualnames(program: Program) -> set[str]:
    """Definitions reachable through any module's ``__all__``."""
    out: set[str] = set()
    for module in sorted(program.module_all):
        for name in program.module_all[module]:
            resolved = program.resolve(f"{module}.{name}")
            if resolved and resolved[0] in ("func", "class"):
                out.add(resolved[1])
    return out


@flow_rule(
    "flow/dead-export",
    Severity.ERROR,
    "a module-level definition that nothing exports or references",
)
def check_dead_export(analysis: FlowAnalysis) -> Iterator[Diagnostic]:
    program = analysis.program
    exported = _exported_qualnames(program)
    for module in sorted(program.module_defs):
        for qualname in program.module_defs[module]:
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            finfo = program.functions.get(qualname)
            cinfo = program.classes.get(qualname)
            decorated = (
                finfo.decorated if finfo is not None
                else (cinfo.decorated if cinfo is not None else True)
            )
            if decorated or qualname in exported:
                continue
            used = any(
                edge.caller != qualname
                and not edge.caller.startswith(qualname + ".")
                for edge in program.edges_to.get(qualname, ())
            )
            if cinfo is not None and not used:
                used = any(
                    any(
                        edge.caller != m
                        and not edge.caller.startswith(qualname + ".")
                        for edge in program.edges_to.get(m, ())
                    )
                    for m in cinfo.methods.values()
                )
            if used:
                continue
            path = finfo.path if finfo is not None else cinfo.path
            line = finfo.line if finfo is not None else cinfo.line
            yield Diagnostic(
                rule="flow/dead-export",
                severity=Severity.ERROR,
                message=(
                    f"{qualname} is defined but never exported via "
                    "__all__ and never referenced anywhere in the "
                    "program; delete it or export it deliberately"
                ),
                location=SourceLocation(path=path, line=line),
            )
    # stale __all__ entries: exported names that do not exist
    for module in sorted(program.module_all):
        ctx = program.modules.get(module)
        if ctx is None:
            continue
        for name in program.module_all[module]:
            if name in ctx.aliases or name in ctx.module_level_names:
                continue
            if program.resolve(f"{module}.{name}") is not None:
                continue
            yield Diagnostic(
                rule="flow/dead-export",
                severity=Severity.ERROR,
                message=(
                    f"__all__ of {module} exports {name!r}, which is not "
                    "defined or imported in that module"
                ),
                location=SourceLocation(path=ctx.path, line=1),
            )
