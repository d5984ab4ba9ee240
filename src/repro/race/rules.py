"""The race rule catalog: whole-program concurrency rules.

Mirrors the registry shape of :mod:`repro.flow.rules` (stable
``race/name`` ids, severity, one-line summary), but each rule reads a
:class:`RaceAnalysis` -- the built
:class:`~repro.flow.graph.Program` plus the concurrency model of
:mod:`repro.race.model`.  Every message carries a witness chain: the
concrete call path from a context root to the offending site, so a
finding is checkable by reading the named functions in order.

``race/blocking-call-in-async``
    A function that executes in ``async`` context performs blocking
    I/O (file/socket/subprocess/``time.sleep``) directly: the event
    loop thread stalls for every connection.  ``asyncio.to_thread`` is
    the sanctioned escape -- its targets run under ``thread`` instead.
``race/lock-held-across-await``
    An ``await`` inside a ``with <threading lock>`` body: the lock is
    held across a suspension point, so every thread (and any other
    task that reaches the same lock via ``to_thread``) can block on a
    task that is not even running.
``race/unawaited-coroutine``
    A statement-level call to a coroutine function whose result is
    dropped: the body never runs, and asyncio's "coroutine was never
    awaited" warning fires at garbage collection, far from the bug.
``race/blocking-in-signal-handler``
    A ``signal.signal``-registered handler transitively reaches
    blocking I/O: Python-level handlers run between bytecodes on the
    main thread, so the dump/write stalls whatever the main thread was
    doing -- fatal when the main thread is the event loop.  Handlers
    registered via ``loop.add_signal_handler`` run as loop callbacks
    and are judged by the async rule instead.
``race/fork-after-thread``
    A process fork reachable from ``thread`` context: the child
    inherits every lock in the parent exactly as some other thread
    held it mid-operation.
``race/fork-inherited-handle``
    A module-level handle (lock, socket, open file) created at import
    time in a module whose code is reachable from the fork boundary --
    the whole-program upgrade of the per-file
    ``forksafety/module-level-handle`` rule, which only watches the
    ``FORKSAFETY_SCOPE`` directories.
``race/shared-state-unlocked``
    Module or instance state written from two *truly concurrent*
    contexts (``thread``/``async``, ``thread``/``signal``,
    ``async``/``signal``) without a common lock across all write
    sites.  ``worker`` writes happen in a separate process and never
    pair; ``main``/``async`` share the main OS thread and interleave
    only at await points, which is not a data race.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ..diagnostics import Diagnostic, Severity, SourceLocation
from .model import (
    BlockingEffect,
    RaceModel,
    StateWrite,
    blocking_chain,
    blocking_effects,
    entry_locks,
    propagate_contexts,
)
from ..flow.graph import Program
from ..flow.summaries import reachable, witness_path

__all__ = [
    "RaceRule",
    "RACE_RULES",
    "race_rule",
    "RaceAnalysis",
]


@dataclass
class RaceAnalysis:
    """The program plus every concurrency summary the rules read."""

    program: Program
    model: RaceModel
    contexts: dict[str, frozenset[str]] = field(default_factory=dict)
    parents: dict[str, dict[str, str | None]] = field(default_factory=dict)
    effects: dict[str, BlockingEffect] = field(default_factory=dict)
    via: dict[str, str] = field(default_factory=dict)
    entry: dict[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, program: Program) -> "RaceAnalysis":
        model = RaceModel.build(program)
        contexts, parents = propagate_contexts(program, model)
        effects, via = blocking_effects(program, model)
        return cls(
            program=program,
            model=model,
            contexts=contexts,
            parents=parents,
            effects=effects,
            via=via,
            entry=entry_locks(program, model),
        )

    def context_counts(self) -> dict[str, int]:
        """How many functions carry each context label (for reports)."""
        counts: dict[str, int] = {}
        for labels in self.contexts.values():
            for label in labels:
                counts[label] = counts.get(label, 0) + 1
        return counts


@dataclass(frozen=True)
class RaceRule:
    """One registered rule: id, default severity, summary, checker."""

    id: str
    severity: Severity
    summary: str
    check: Callable[[RaceAnalysis], Iterable[Diagnostic]]


#: The global registry, keyed by rule id, in registration order.
RACE_RULES: dict[str, RaceRule] = {}


def race_rule(
    rule_id: str, severity: Severity, summary: str
) -> Callable[[Callable[[RaceAnalysis], Iterable[Diagnostic]]], Callable]:
    """Decorator registering a rule function under ``rule_id``."""

    def register(
        fn: Callable[[RaceAnalysis], Iterable[Diagnostic]],
    ) -> Callable:
        RACE_RULES[rule_id] = RaceRule(
            id=rule_id, severity=severity, summary=summary, check=fn
        )
        return fn

    return register


def _chain(path: list[str]) -> str:
    return " -> ".join(path)


def _context_chain(
    analysis: RaceAnalysis, label: str, qualname: str
) -> str:
    """The witness path from a ``label``-context root to ``qualname``."""
    return _chain(witness_path(analysis.parents[label], qualname))


# ---------------------------------------------------------------------------
# race/blocking-call-in-async


@race_rule(
    "race/blocking-call-in-async",
    Severity.ERROR,
    "blocking I/O performed by a function that runs on the event loop; "
    "asyncio.to_thread is the sanctioned escape",
)
def check_blocking_in_async(analysis: RaceAnalysis) -> Iterator[Diagnostic]:
    program = analysis.program
    for qualname in sorted(program.functions):
        if "async" not in analysis.contexts.get(qualname, ()):
            continue
        finfo = program.functions[qualname]
        for site in analysis.model.facts[qualname].blocking:
            chain = _context_chain(analysis, "async", qualname)
            yield Diagnostic(
                rule="race/blocking-call-in-async",
                severity=Severity.ERROR,
                message=(
                    f"{site.what} on the event loop: '{qualname}' runs "
                    f"in async context (loop chain: {chain}); move the "
                    "call off the loop with asyncio.to_thread"
                ),
                location=SourceLocation(path=finfo.path, line=site.line),
            )


# ---------------------------------------------------------------------------
# race/lock-held-across-await


@race_rule(
    "race/lock-held-across-await",
    Severity.ERROR,
    "an await suspends while a threading lock is held, blocking every "
    "other holder for the task's whole off-loop lifetime",
)
def check_lock_across_await(analysis: RaceAnalysis) -> Iterator[Diagnostic]:
    program = analysis.program
    for qualname in sorted(program.functions):
        finfo = program.functions[qualname]
        for site in analysis.model.facts[qualname].lock_awaits:
            yield Diagnostic(
                rule="race/lock-held-across-await",
                severity=Severity.ERROR,
                message=(
                    f"'{qualname}' awaits while holding lock "
                    f"'{site.what}': the lock stays taken across the "
                    "suspension, so threads (and to_thread work) "
                    "needing it block on a parked task; release before "
                    "awaiting or use asyncio.Lock"
                ),
                location=SourceLocation(path=finfo.path, line=site.line),
            )


# ---------------------------------------------------------------------------
# race/unawaited-coroutine


@race_rule(
    "race/unawaited-coroutine",
    Severity.ERROR,
    "a coroutine function is called like a plain function and the "
    "coroutine object is dropped: the body never runs",
)
def check_unawaited(analysis: RaceAnalysis) -> Iterator[Diagnostic]:
    program = analysis.program
    for qualname in sorted(program.functions):
        finfo = program.functions[qualname]
        for site in analysis.model.facts[qualname].unawaited:
            yield Diagnostic(
                rule="race/unawaited-coroutine",
                severity=Severity.ERROR,
                message=(
                    f"coroutine '{site.what}' is never awaited: the "
                    f"call in '{qualname}' builds a coroutine object "
                    "and drops it; await it or schedule it with "
                    "asyncio.create_task"
                ),
                location=SourceLocation(path=finfo.path, line=site.line),
            )


# ---------------------------------------------------------------------------
# race/blocking-in-signal-handler


def _handler_effect(
    analysis: RaceAnalysis, reg
) -> tuple[str, list[str], BlockingEffect] | None:
    """The first handler (resolved or nested) that reaches blocking I/O."""
    for handler in reg.handlers + reg.nested_calls:
        direct = analysis.model.facts.get(handler)
        if direct is not None and direct.blocking:
            return (
                handler,
                [handler],
                BlockingEffect(direct.blocking[0], handler),
            )
        effect = analysis.effects.get(handler)
        if effect is not None:
            return (
                handler,
                blocking_chain(analysis.via, handler),
                effect,
            )
    if reg.nested_blocking:
        site = reg.nested_blocking[0]
        return ("<nested handler>", [], BlockingEffect(site, ""))
    return None


@race_rule(
    "race/blocking-in-signal-handler",
    Severity.ERROR,
    "a signal.signal handler transitively performs blocking I/O, "
    "stalling the main thread (the event loop, when serving) "
    "mid-bytecode",
)
def check_signal_blocking(analysis: RaceAnalysis) -> Iterator[Diagnostic]:
    program = analysis.program
    for qualname in sorted(program.functions):
        finfo = program.functions[qualname]
        for reg in analysis.model.facts[qualname].signal_registrations:
            hit = _handler_effect(analysis, reg)
            if hit is None:
                continue
            handler, chain, effect = hit
            where = (
                f"handler chain: {_chain(chain)}; "
                if chain
                else "nested handler; "
            )
            yield Diagnostic(
                rule="race/blocking-in-signal-handler",
                severity=Severity.ERROR,
                message=(
                    f"signal handler registered by '{qualname}' "
                    f"performs {effect.site.what} ({where}"
                    "Python signal handlers run between bytecodes on "
                    "the main thread); when the main thread is the "
                    "event loop this stalls every connection -- "
                    "re-register via loop.add_signal_handler and "
                    "dispatch the work off-loop"
                ),
                location=SourceLocation(path=finfo.path, line=reg.line),
            )


# ---------------------------------------------------------------------------
# race/fork-after-thread


@race_rule(
    "race/fork-after-thread",
    Severity.ERROR,
    "a process fork reachable from thread context: the child inherits "
    "locks exactly as other threads held them mid-operation",
)
def check_fork_after_thread(analysis: RaceAnalysis) -> Iterator[Diagnostic]:
    program = analysis.program
    for qualname in sorted(program.functions):
        if "thread" not in analysis.contexts.get(qualname, ()):
            continue
        finfo = program.functions[qualname]
        for site in analysis.model.facts[qualname].fork_sites:
            chain = _context_chain(analysis, "thread", qualname)
            yield Diagnostic(
                rule="race/fork-after-thread",
                severity=Severity.ERROR,
                message=(
                    f"{site.what} from thread context (thread chain: "
                    f"{chain}): the forked child inherits every parent "
                    "lock in whatever state another thread left it, "
                    "deadlocking on first use"
                ),
                location=SourceLocation(path=finfo.path, line=site.line),
            )


# ---------------------------------------------------------------------------
# race/fork-inherited-handle


@race_rule(
    "race/fork-inherited-handle",
    Severity.ERROR,
    "a module-level handle created at import time in a module whose "
    "code runs across the fork boundary (whole-program upgrade of "
    "forksafety/module-level-handle)",
)
def check_fork_inherited_handle(
    analysis: RaceAnalysis,
) -> Iterator[Diagnostic]:
    program = analysis.program
    model = analysis.model
    if not model.module_handles:
        return
    roots = set(model.worker_roots(program))
    for qualname in sorted(program.functions):
        if model.facts[qualname].fork_sites:
            roots.add(qualname)
    if not roots:
        return
    parents = reachable(program, sorted(roots))
    fork_visible: dict[str, str] = {}
    for qualname in sorted(parents):
        finfo = program.functions.get(qualname)
        if finfo is not None and finfo.module not in fork_visible:
            fork_visible[finfo.module] = qualname
    for module in sorted(model.module_handles):
        witness = fork_visible.get(module)
        if witness is None:
            continue
        ctx = program.modules.get(module)
        path = str(ctx.path) if ctx is not None else module
        chain = _chain(witness_path(parents, witness))
        for site in model.module_handles[module]:
            yield Diagnostic(
                rule="race/fork-inherited-handle",
                severity=Severity.ERROR,
                message=(
                    f"module-level {site.what} in '{module}', whose "
                    f"code runs across the fork boundary (fork chain: "
                    f"{chain}): the handle is created at import time "
                    "and inherited by forked workers; create it inside "
                    "the function or per-instance"
                ),
                location=SourceLocation(path=path, line=site.line),
            )


# ---------------------------------------------------------------------------
# race/shared-state-unlocked


#: Context pairs that execute truly concurrently in one process.
_CONCURRENT_PAIRS = (
    ("thread", "async"),
    ("thread", "signal"),
    ("async", "signal"),
)


def _site_contexts(
    analysis: RaceAnalysis, qualname: str
) -> frozenset[str]:
    """The same-process contexts a write site can execute under."""
    labels = set(analysis.contexts.get(qualname, ()))
    labels.discard("worker")
    if not labels:
        # no explicit label left: the plain main flow of a command
        # (or worker-only code, whose writes live in the child)
        if "worker" in analysis.contexts.get(qualname, ()):
            return frozenset()
        return frozenset({"main"})
    return frozenset(labels)


@race_rule(
    "race/shared-state-unlocked",
    Severity.ERROR,
    "module/instance state written from two truly concurrent contexts "
    "without a common lock across all write sites",
)
def check_shared_state(analysis: RaceAnalysis) -> Iterator[Diagnostic]:
    program = analysis.program
    grouped: dict[str, list[tuple[str, StateWrite]]] = {}
    for qualname in sorted(program.functions):
        for write in analysis.model.facts[qualname].writes:
            grouped.setdefault(write.name, []).append((qualname, write))
    for name in sorted(grouped):
        sites = [
            (q, w, _site_contexts(analysis, q)) for q, w in grouped[name]
        ]
        sites = [s for s in sites if s[2]]
        if not sites:
            continue
        union: set[str] = set()
        for _, _, labels in sites:
            union.update(labels)
        if not any(
            a in union and b in union for a, b in _CONCURRENT_PAIRS
        ):
            continue
        # a write counts as guarded by its lexical locks plus every
        # lock held on all paths into its function (entry locks)
        common = frozenset.intersection(
            *(
                w.locks | analysis.entry.get(q, frozenset())
                for q, w, _ in sites
            )
        )
        if common:
            continue
        first_q, first_w, _ = sites[0]
        finfo = program.functions[first_q]
        described = []
        for label in sorted(union):
            if label == "main":
                continue
            owner = next(
                (q for q, _, labels in sites if label in labels), None
            )
            if owner is not None and label in analysis.parents:
                described.append(
                    f"{label} ({_context_chain(analysis, label, owner)})"
                )
        yield Diagnostic(
            rule="race/shared-state-unlocked",
            severity=Severity.ERROR,
            message=(
                f"'{name}' is written from concurrent contexts "
                f"[{', '.join(sorted(union))}] without a common lock "
                f"({len(sites)} write sites; "
                + "; ".join(described)
                + "); guard every write with one lock"
            ),
            location=SourceLocation(path=finfo.path, line=first_w.line),
        )
