"""The sanitize rule catalog: registry, scopes, rule implementations.

Each rule is a pure function from a
:class:`~repro.sanitize.engine.FileContext` to an iterable of
:class:`~repro.diagnostics.Diagnostic` records, registered under a
stable ``category/name`` id via :func:`sanitize_rule` -- the same shape
as the network linter's catalog (:mod:`repro.lint.rules`).  Families:

``determinism/*``
    Sources of run-to-run nondeterminism inside the *deterministic
    zone* -- ``repro/core``, ``repro/analysis`` and the farm job
    handlers (``repro/farm/jobs.py``) -- where every result feeds a
    content-addressed artifact or a reproducible certificate: unseeded
    generators, the stdlib global ``random``, wall clocks, entropy
    sources, and set-iteration-order hazards.
``forksafety/*``
    Hazards for the pre-fork worker pool (``repro.farm.runner``):
    module-global state mutated from function bodies, ``global``
    statements, locks/handles created at import time (and therefore
    duplicated into every forked child), and import-time capture of the
    process-global tracer.
``obs/*``
    Observability and CLI-boundary hygiene: exceptions that are not
    :class:`~repro.errors.ReproError` subclasses (the CLI maps
    ``ReproError`` to diagnostics and exit codes; anything else is a
    stack trace), stray ``print`` to stdout from library code, and
    adversary entry-point modules that lost their span instrumentation.
``schema/*``
    Serialized-format drift, via the pinned fingerprint registry of
    :mod:`repro.sanitize.schema`.

A ``parse/syntax-error`` diagnostic (emitted by the engine, not listed
here) reports unparseable files.

Scopes are path-prefix based on the ``repro/...``-anchored form, so a
fixture snippet analysed under a virtual path like
``"repro/core/example.py"`` exercises exactly the rules a real core
module would.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..diagnostics import Diagnostic, Severity, SourceLocation
from .schema import module_schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .engine import FileContext

__all__ = [
    "SanitizeRule",
    "RULES",
    "sanitize_rule",
    "DETERMINISM_SCOPE",
    "FORKSAFETY_SCOPE",
    "CLI_MODULES",
    "ENTRYPOINT_MODULES",
    "SCHEMA_MODULES",
]


# ---------------------------------------------------------------------------
# scopes

#: Where results must be bit-for-bit reproducible: the certificate
#: machinery, its analyses, and the farm job handlers whose results are
#: content-addressed by the artifact store.
DETERMINISM_SCOPE = (
    "repro/core/",
    "repro/analysis/",
    "repro/farm/jobs.py",
)

#: Code imported on both sides of the farm's pre-fork worker pool.
FORKSAFETY_SCOPE = (
    "repro/core/",
    "repro/analysis/",
    "repro/farm/",
)

#: Process boundary modules where printing/argv handling is the job.
CLI_MODULES = ("repro/cli.py", "repro/__main__.py")

#: Modules whose public entry points carry span instrumentation (PR 3);
#: losing the tracer import here silently blinds ``repro stats``.
ENTRYPOINT_MODULES = (
    "repro/core/adversary.py",
    "repro/core/attack.py",
    "repro/core/fooling.py",
    "repro/core/iterate.py",
    "repro/experiments/harness.py",
)

#: Modules owning persisted wire formats, pinned in the schema registry.
SCHEMA_MODULES = (
    "repro/core/certificates.py",
    "repro/farm/campaign.py",
    "repro/farm/heartbeat.py",
    "repro/farm/jobs.py",
    "repro/farm/store.py",
    "repro/flow/report.py",
    "repro/networks/serialize.py",
    "repro/obs/events.py",
    "repro/obs/flight.py",
    "repro/obs/registry.py",
    "repro/perf/report.py",
    "repro/perf/worklist.py",
    "repro/race/report.py",
    "repro/serve/loadgen.py",
    "repro/serve/protocol.py",
    "repro/serve/server.py",
    "repro/shape/report.py",
)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class SanitizeRule:
    """One registered rule: id, default severity, summary, checker."""

    id: str
    severity: Severity
    summary: str
    check: Callable[["FileContext"], Iterable[Diagnostic]]


#: The global registry, keyed by rule id, in registration order.
RULES: dict[str, SanitizeRule] = {}


def sanitize_rule(
    rule_id: str, severity: Severity, summary: str
) -> Callable[[Callable[["FileContext"], Iterable[Diagnostic]]], Callable]:
    """Decorator registering a rule function under ``rule_id``."""

    def register(
        fn: Callable[["FileContext"], Iterable[Diagnostic]],
    ) -> Callable:
        RULES[rule_id] = SanitizeRule(
            id=rule_id, severity=severity, summary=summary, check=fn
        )
        return fn

    return register


def _loc(ctx: "FileContext", node: ast.AST) -> SourceLocation:
    return SourceLocation(
        path=ctx.path,
        line=getattr(node, "lineno", None),
        col=getattr(node, "col_offset", None),
    )


def _calls(ctx: "FileContext") -> Iterator[ast.Call]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            yield node


def _function_body_ids(ctx: "FileContext") -> set[int]:
    """Ids of every AST node nested inside a function or lambda body."""
    inside: set[int] = set()
    for func in ctx.function_nodes:
        for node in ast.walk(func):
            if node is not func:
                inside.add(id(node))
    return inside


# ---------------------------------------------------------------------------
# determinism rules

#: Draws against numpy's *global* generator: legacy module-level state
#: that any import anywhere can perturb.
_NP_GLOBAL_DRAWS = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "bytes",
        "shuffle",
        "permutation",
        "standard_normal",
        "uniform",
        "normal",
        "seed",
        "get_state",
        "set_state",
    }
)


@sanitize_rule(
    "determinism/unseeded-rng",
    Severity.ERROR,
    "an unseeded numpy Generator (or the legacy global state) in the "
    "deterministic zone",
)
def check_unseeded_rng(ctx: "FileContext") -> Iterator[Diagnostic]:
    """``default_rng()`` without a seed, and ``np.random.<draw>`` at all.

    Every random draw in the deterministic zone must flow from an
    explicit seed (jobs derive theirs from the content hash, see
    ``Job.derived_seed``); an OS-entropy generator makes certificates,
    stored artifacts and resumed campaigns unreproducible.
    """
    if not ctx.in_scope(DETERMINISM_SCOPE):
        return
    for node in _calls(ctx):
        full = ctx.resolve(node.func)
        if full in ("numpy.random.default_rng", "numpy.random.RandomState"):
            if not node.args and not node.keywords:
                yield Diagnostic(
                    rule="determinism/unseeded-rng",
                    severity=Severity.ERROR,
                    message=(
                        f"{full.rsplit('.', 1)[1]}() without a seed draws "
                        "from OS entropy; thread an explicit seed through "
                        "(derive per-job seeds from the content hash as "
                        "repro.farm.jobs.Job.rng does)"
                    ),
                    location=_loc(ctx, node),
                )
            continue
        imported = ctx.resolve_imported(node.func)
        if (
            imported is not None
            and imported.startswith("numpy.random.")
            and imported.rsplit(".", 1)[1] in _NP_GLOBAL_DRAWS
        ):
            yield Diagnostic(
                rule="determinism/unseeded-rng",
                severity=Severity.ERROR,
                message=(
                    f"{imported} uses numpy's process-global generator; "
                    "pass an explicit np.random.Generator instead"
                ),
                location=_loc(ctx, node),
            )


@sanitize_rule(
    "determinism/bare-random",
    Severity.ERROR,
    "the stdlib global `random` module in the deterministic zone",
)
def check_bare_random(ctx: "FileContext") -> Iterator[Diagnostic]:
    """Any use of stdlib ``random.*``: global, seedable-from-anywhere state."""
    if not ctx.in_scope(DETERMINISM_SCOPE):
        return
    for node in _calls(ctx):
        full = ctx.resolve_imported(node.func)
        if full is not None and (
            full == "random" or full.startswith("random.")
        ):
            yield Diagnostic(
                rule="determinism/bare-random",
                severity=Severity.ERROR,
                message=(
                    f"{full} draws from the stdlib's process-global "
                    "generator; use a seeded np.random.Generator threaded "
                    "through the call chain"
                ),
                location=_loc(ctx, node),
            )


#: Wall clocks and calendar reads: values that differ on every run.
_WALL_CLOCKS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@sanitize_rule(
    "determinism/wall-clock",
    Severity.ERROR,
    "a wall-clock read in the deterministic zone",
)
def check_wall_clock(ctx: "FileContext") -> Iterator[Diagnostic]:
    """``time.time()`` and friends inside result-producing code.

    Timestamps belong to the observability layer (``repro.obs`` stamps
    spans; the farm runner stamps outcomes) -- never inside a job body
    or the certificate machinery, where they leak into hashed results.
    """
    if not ctx.in_scope(DETERMINISM_SCOPE):
        return
    for node in _calls(ctx):
        full = ctx.resolve_imported(node.func)
        if full in _WALL_CLOCKS:
            yield Diagnostic(
                rule="determinism/wall-clock",
                severity=Severity.ERROR,
                message=(
                    f"{full}() differs on every run; stamp wall-clock "
                    "times in the obs/runner layer, not in deterministic "
                    "result-producing code"
                ),
                location=_loc(ctx, node),
            )


@sanitize_rule(
    "determinism/entropy-source",
    Severity.ERROR,
    "an OS entropy source in the deterministic zone",
)
def check_entropy_source(ctx: "FileContext") -> Iterator[Diagnostic]:
    """``os.urandom``, ``uuid.uuid4``, ``secrets.*``: unseedable by design."""
    if not ctx.in_scope(DETERMINISM_SCOPE):
        return
    for node in _calls(ctx):
        full = ctx.resolve_imported(node.func)
        if full is None:
            continue
        if full in ("os.urandom", "uuid.uuid1", "uuid.uuid4") or (
            full.startswith("secrets.")
        ):
            yield Diagnostic(
                rule="determinism/entropy-source",
                severity=Severity.ERROR,
                message=(
                    f"{full} is unseedable OS entropy; results built from "
                    "it can never be reproduced or content-addressed"
                ),
                location=_loc(ctx, node),
            )


#: Wrapping calls that make set iteration order-insensitive or ordered.
_ORDER_SAFE_WRAPPERS = frozenset(
    {"sorted", "sum", "len", "min", "max", "any", "all", "set", "frozenset"}
)


def _is_set_expr(ctx: "FileContext", node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return ctx.resolve(node.func) in ("set", "frozenset")
    return False


@sanitize_rule(
    "determinism/set-iteration",
    Severity.WARNING,
    "order-sensitive iteration over a set in the deterministic zone",
)
def check_set_iteration(ctx: "FileContext") -> Iterator[Diagnostic]:
    """Sets iterated where the element *order* can reach a result.

    Set iteration order depends on insertion history and (for strings)
    the per-process hash seed; a special-set or wire-set loop that
    feeds an ordered result must go through ``sorted(...)``.  Only
    syntactic set expressions are flagged (literals, comprehensions,
    ``set(...)`` calls) -- soundly incomplete rather than noisily
    unsound -- and order-insensitive reducers (``sum``, ``min``, ...)
    are exempt.
    """
    if not ctx.in_scope(DETERMINISM_SCOPE):
        return

    def diag(node: ast.AST, how: str) -> Diagnostic:
        return Diagnostic(
            rule="determinism/set-iteration",
            severity=Severity.WARNING,
            message=(
                f"{how} a set {'' if how == 'iterating' else ''}exposes "
                "its undefined iteration order; wrap the set in "
                "sorted(...) to fix the order"
            ),
            location=_loc(ctx, node),
        )

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For) and _is_set_expr(ctx, node.iter):
            yield diag(node.iter, "iterating")
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            for gen in node.generators:
                if _is_set_expr(ctx, gen.iter) and not isinstance(
                    node, ast.SetComp
                ):
                    yield diag(gen.iter, "comprehending over")
        elif isinstance(node, ast.Call):
            name = ctx.resolve(node.func)
            if (
                name in ("list", "tuple")
                and len(node.args) == 1
                and _is_set_expr(ctx, node.args[0])
            ):
                yield diag(node.args[0], "materialising")


# ---------------------------------------------------------------------------
# fork-safety rules


@sanitize_rule(
    "forksafety/global-statement",
    Severity.ERROR,
    "a `global` statement in fork-shared code",
)
def check_global_statement(ctx: "FileContext") -> Iterator[Diagnostic]:
    """Rebinding module globals from functions races the worker pool.

    A forked worker inherits a snapshot of every module global; code
    that rebinds one from a function body behaves differently depending
    on whether it ran before or after the fork.  The one sanctioned
    process-global is the tracer singleton in ``repro.obs.trace``,
    which ships a documented reset hook (``set_tracer(None)`` +
    ``reset_context()``) that ``repro.farm.runner`` invokes in every
    worker -- and that module is deliberately outside this scope.
    """
    if not ctx.in_scope(FORKSAFETY_SCOPE):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Global):
            yield Diagnostic(
                rule="forksafety/global-statement",
                severity=Severity.ERROR,
                message=(
                    f"`global {', '.join(node.names)}` rebinds module "
                    "state from a function; pass state explicitly or add "
                    "a documented per-fork reset hook (cf. "
                    "repro.obs.trace.reset_context)"
                ),
                location=_loc(ctx, node),
            )


#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "extend",
        "insert",
        "setdefault",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "write",
    }
)


@sanitize_rule(
    "forksafety/module-state-mutation",
    Severity.ERROR,
    "function-body mutation of a module-level object in fork-shared code",
)
def check_module_state_mutation(ctx: "FileContext") -> Iterator[Diagnostic]:
    """In-place mutation of module-level containers from function bodies.

    Import-time registration (``RULES[...] = ...`` at module scope) is
    fine -- both sides of the fork replay it identically.  Mutating the
    same container from a function that may run in a worker is not: the
    parent never sees the change, and a resumed campaign sees whichever
    side happened to compute it.
    """
    if not ctx.in_scope(FORKSAFETY_SCOPE):
        return
    names = ctx.module_level_names
    if not names:
        return
    seen: set[int] = set()
    for func in ctx.function_nodes:
        for node in ast.walk(func):
            if id(node) in seen or node is func:
                continue
            seen.add(id(node))
            hit: ast.AST | None = None
            what = ""
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                base = node.func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in names
                    and node.func.attr in _MUTATORS
                ):
                    hit, what = node, f"{base.id}.{node.func.attr}(...)"
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, (ast.Subscript, ast.Attribute))
                        and isinstance(target.value, ast.Name)
                        and target.value.id in names
                    ):
                        hit, what = node, f"assignment into {target.value.id}"
                        break
            if hit is not None:
                yield Diagnostic(
                    rule="forksafety/module-state-mutation",
                    severity=Severity.ERROR,
                    message=(
                        f"{what} mutates module-level state from a "
                        "function body; forked workers and the parent "
                        "each see their own copy, so the mutation races "
                        "the pool -- pass the container explicitly"
                    ),
                    location=_loc(ctx, hit),
                )


#: Import-time factories whose products must not cross a fork.
_HANDLE_FACTORIES = frozenset(
    {
        "open",
        "threading.Lock",
        "threading.RLock",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Condition",
        "threading.Event",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "multiprocessing.Queue",
        "multiprocessing.Pool",
        "socket.socket",
        "tempfile.TemporaryFile",
        "tempfile.NamedTemporaryFile",
    }
)


@sanitize_rule(
    "forksafety/module-level-handle",
    Severity.ERROR,
    "a lock/file/socket created at import time in fork-shared code",
)
def check_module_level_handle(ctx: "FileContext") -> Iterator[Diagnostic]:
    """Handles created at import time are duplicated into every fork.

    A lock held during the fork deadlocks the child; a shared file
    descriptor interleaves writes.  Create handles inside the object or
    function that uses them (``Tracer`` builds its lock per instance).
    """
    if not ctx.in_scope(FORKSAFETY_SCOPE):
        return
    inside = _function_body_ids(ctx)
    for node in ast.walk(ctx.tree):
        if id(node) in inside:
            continue
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            full = ctx.resolve(value.func)
            if full in _HANDLE_FACTORIES:
                yield Diagnostic(
                    rule="forksafety/module-level-handle",
                    severity=Severity.ERROR,
                    message=(
                        f"{full}(...) at module/class scope creates a "
                        "handle before the worker pool forks; every child "
                        "inherits the same lock/descriptor -- create it "
                        "lazily inside the consumer"
                    ),
                    location=_loc(ctx, value),
                )


@sanitize_rule(
    "forksafety/tracer-capture",
    Severity.ERROR,
    "the process-global tracer captured at import time",
)
def check_tracer_capture(ctx: "FileContext") -> Iterator[Diagnostic]:
    """``TRACER = get_tracer()`` at module scope defeats the reset hook.

    Workers reset the singleton at startup (``set_tracer(None)``); a
    module-level capture keeps emitting into the parent's pre-fork
    tracer, corrupting the merged span tree.  Call ``get_tracer()`` at
    use time, as ``repro.core.attack`` does.
    """
    if not ctx.in_scope(FORKSAFETY_SCOPE):
        return
    inside = _function_body_ids(ctx)
    for node in ast.walk(ctx.tree):
        if id(node) in inside or not isinstance(node, ast.Call):
            continue
        full = ctx.resolve(node.func)
        if full is not None and (
            full == "get_tracer" or full.endswith(".get_tracer")
        ):
            yield Diagnostic(
                rule="forksafety/tracer-capture",
                severity=Severity.ERROR,
                message=(
                    "get_tracer() at import time captures the pre-fork "
                    "tracer singleton; call it at use time so worker "
                    "resets (set_tracer(None)) take effect"
                ),
                location=_loc(ctx, node),
            )


# ---------------------------------------------------------------------------
# observability / CLI-boundary rules

#: Builtin exception types that must not cross the CLI boundary raw.
_FOREIGN_EXCEPTIONS = frozenset(
    {
        "Exception",
        "BaseException",
        "ValueError",
        "TypeError",
        "RuntimeError",
        "KeyError",
        "IndexError",
    }
)


@sanitize_rule(
    "obs/foreign-exception",
    Severity.ERROR,
    "a raw builtin exception raised by library code",
)
def check_foreign_exception(ctx: "FileContext") -> Iterator[Diagnostic]:
    """Library raises must be :class:`~repro.errors.ReproError` subclasses.

    The CLI maps ``ReproError`` to located diagnostics and exit code 2;
    a raw ``ValueError`` becomes a stack trace.  Dual-inheritance
    subclasses (``DomainError(ReproError, ValueError)``) keep
    historical ``except ValueError`` callers working.
    """
    if ctx.relpath == "repro/errors.py" or ctx.in_scope(CLI_MODULES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        name = ctx.resolve(target)
        if name in _FOREIGN_EXCEPTIONS:
            yield Diagnostic(
                rule="obs/foreign-exception",
                severity=Severity.ERROR,
                message=(
                    f"raise {name} crosses the CLI boundary as a stack "
                    "trace; raise a ReproError subclass (dual-inherit "
                    f"from {name} to keep existing except clauses alive)"
                ),
                location=_loc(ctx, node),
            )


@sanitize_rule(
    "obs/print-stdout",
    Severity.WARNING,
    "library code printing to stdout",
)
def check_print_stdout(ctx: "FileContext") -> Iterator[Diagnostic]:
    """``print()`` without ``file=`` belongs to the CLI layer only.

    Library output goes through ``logging`` (configured by ``-v``/
    ``-q``/``REPRO_LOG``) or a report object the CLI renders; an
    explicit ``file=`` (e.g. the stderr line sink) is deliberate and
    allowed.
    """
    if ctx.in_scope(CLI_MODULES):
        return
    for node in _calls(ctx):
        if ctx.resolve(node.func) != "print":
            continue
        if any(kw.arg == "file" for kw in node.keywords):
            continue
        yield Diagnostic(
            rule="obs/print-stdout",
            severity=Severity.WARNING,
            message=(
                "print() to stdout from library code bypasses the "
                "logging configuration; use logging or return a "
                "renderable report"
            ),
            location=_loc(ctx, node),
        )


@sanitize_rule(
    "obs/uninstrumented-entrypoint",
    Severity.ERROR,
    "an adversary entry-point module with no tracer instrumentation",
)
def check_uninstrumented_entrypoint(ctx: "FileContext") -> Iterator[Diagnostic]:
    """Entry-point modules must keep their ``repro.obs`` instrumentation.

    PR 3 threaded spans through the attack/adversary/iterate/fooling
    pipeline and the experiment harness; a refactor that drops the
    tracer import silently blinds ``repro stats`` and the farm's
    per-job span merging.  Module granularity keeps the rule honest:
    it cannot prove every function is spanned, but it can prove the
    module stopped talking to the tracer altogether.
    """
    if not ctx.in_scope(ENTRYPOINT_MODULES):
        return
    for full in ctx.aliases.values():
        if "obs" in full.split(".") or full.endswith("get_tracer"):
            return
    yield Diagnostic(
        rule="obs/uninstrumented-entrypoint",
        severity=Severity.ERROR,
        message=(
            f"{ctx.relpath} is a span-instrumented entry point (docs/"
            "OBSERVABILITY.md) but no longer imports repro.obs; restore "
            "get_tracer()/span instrumentation"
        ),
        location=SourceLocation(path=ctx.path),
    )


# ---------------------------------------------------------------------------
# schema rules


@sanitize_rule(
    "schema/missing-version",
    Severity.ERROR,
    "a schema-bearing module without an integer version constant",
)
def check_missing_version(ctx: "FileContext") -> Iterator[Diagnostic]:
    """Every wire format names its version (``*_FORMAT``/``*_VERSION``)."""
    if not ctx.in_scope(SCHEMA_MODULES):
        return
    if module_schema(ctx).version is None:
        yield Diagnostic(
            rule="schema/missing-version",
            severity=Severity.ERROR,
            message=(
                f"{ctx.relpath} owns a persisted format but declares no "
                "module-level integer version constant (ALL_CAPS name "
                "containing FORMAT/VERSION/SCHEMA); readers cannot detect "
                "drift without one"
            ),
            location=SourceLocation(path=ctx.path),
        )


@sanitize_rule(
    "schema/fingerprint-drift",
    Severity.ERROR,
    "serialized dataclass fields changed without a version bump",
)
def check_fingerprint_drift(ctx: "FileContext") -> Iterator[Diagnostic]:
    """Compare the module's AST against the pinned schema registry."""
    if not ctx.in_scope(SCHEMA_MODULES):
        return
    schema = module_schema(ctx)
    entry = ctx.registry.get("modules", {}).get(ctx.relpath)
    if entry is None:
        yield Diagnostic(
            rule="schema/fingerprint-drift",
            severity=Severity.ERROR,
            message=(
                f"{ctx.relpath} is not pinned in the schema registry; "
                "run `repro sanitize --fix` to pin its serialized "
                "dataclasses"
            ),
            location=SourceLocation(path=ctx.path),
        )
        return
    pinned_version = entry.get("version")
    version_matches = (
        schema.version is not None
        and pinned_version is not None
        and schema.version[1] == pinned_version
    )
    if (
        schema.version is not None
        and pinned_version is not None
        and schema.version[1] != pinned_version
    ):
        yield Diagnostic(
            rule="schema/fingerprint-drift",
            severity=Severity.ERROR,
            message=(
                f"{schema.version[0]} = {schema.version[1]} does not "
                f"match the registry pin {pinned_version}; re-pin with "
                "`repro sanitize --fix`"
            ),
            location=SourceLocation(path=ctx.path, line=schema.version[2]),
        )
    pinned_classes = entry.get("classes", {})
    for name in sorted(pinned_classes):
        if name not in schema.classes:
            yield Diagnostic(
                rule="schema/fingerprint-drift",
                severity=Severity.ERROR,
                message=(
                    f"serialized dataclass {name} vanished from "
                    f"{ctx.relpath}; stored artifacts still carry its "
                    "payloads -- bump the version constant and re-pin "
                    "with `repro sanitize --fix`"
                ),
                location=SourceLocation(path=ctx.path),
            )
            continue
        current, line = schema.classes[name]
        if list(current) != pinned_classes[name]:
            hint = (
                "bump the module's version constant, add a roundtrip "
                "test, then re-pin with `repro sanitize --fix`"
                if version_matches
                else "re-pin with `repro sanitize --fix`"
            )
            yield Diagnostic(
                rule="schema/fingerprint-drift",
                severity=Severity.ERROR,
                message=(
                    f"fields of {name} drifted from the pinned "
                    f"{pinned_classes[name]} to {list(current)}"
                    + (
                        " without a version bump; " + hint
                        if version_matches
                        else "; " + hint
                    )
                ),
                location=SourceLocation(path=ctx.path, line=line),
            )
    for name in sorted(schema.classes):
        if name not in pinned_classes:
            _, line = schema.classes[name]
            yield Diagnostic(
                rule="schema/fingerprint-drift",
                severity=Severity.ERROR,
                message=(
                    f"new serialized dataclass {name} is not pinned in "
                    "the schema registry; pin it (and its roundtrip "
                    "test) with `repro sanitize --fix`"
                ),
                location=SourceLocation(path=ctx.path, line=line),
            )
