"""The perf rule catalog: vectorizable antipatterns on hot paths.

Mirrors the registry shape of :mod:`repro.flow.rules` (stable
``perf/name`` ids, severity, one-line summary), but each rule reads a
:class:`PerfAnalysis` -- the built program, the effective-depth cost
model, and (optionally) the profile join.  Every rule fires only at
effective loop depth >= :data:`HOT_DEPTH`, so cold code stays quiet no
matter how scalar it is.

``perf/scalar-loop-over-wires``
    A per-element Python ``for`` over a positionally-indexed sequence
    (``range``/``enumerate`` iteration, or loop-variable subscripts in
    the body): the shape NumPy gather/scatter/min/max replaces.
``perf/membership-in-loop``
    ``x in seq`` against a locally-built ``list``/``tuple`` inside a
    loop: O(n) per probe where a ``set`` or a boolean mask is O(1).
``perf/append-accumulator``
    Element-wise ``.append`` into a locally-initialised empty list:
    the builder loop a vectorised expression or ``fromiter`` replaces.
``perf/repeated-recompute-in-loop``
    A pure call (``sorted``/``min``/``max``/``sum``/``math.*``/
    ``numpy.*``) whose arguments are loop-invariant, evaluated on every
    iteration instead of hoisted.
``perf/copy-in-loop``
    A container copy (``.copy()``, ``list(x)``/``dict(x)``/
    ``tuple(x)``/``set(x)``, ``np.array``, ``x[:]``) inside a loop:
    O(n) allocation per iteration.
``perf/attr-lookup-in-hot-loop``
    The same loop-invariant attribute chain read three or more times
    inside one loop body: hoist to a local.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator

from ..flow.graph import FunctionInfo, Program
from ..diagnostics import Diagnostic, Severity, SourceLocation
from .costmodel import CostModel, build_cost_model
from .profilejoin import ProfileJoin

__all__ = [
    "HOT_DEPTH",
    "PerfRule",
    "PERF_RULES",
    "perf_rule",
    "PerfAnalysis",
]

#: Rules only fire at effective loop depth >= this.
HOT_DEPTH = 2


@dataclass
class PerfAnalysis:
    """The program plus everything the perf rules read."""

    program: Program
    cost: CostModel
    join: ProfileJoin | None = None

    @classmethod
    def build(
        cls, program: Program, join: ProfileJoin | None = None
    ) -> "PerfAnalysis":
        return cls(program=program, cost=build_cost_model(program), join=join)

    @cached_property
    def hot_loops(self) -> "list[tuple[FunctionInfo, _Loop, list[_Loop], int]]":
        """Every loop at effective depth >= :data:`HOT_DEPTH`.

        Each entry is ``(function, loop, enclosing stack, effective
        body depth)``, functions in qualname order and loops outermost
        first.  Walked once, on first use, and read by every rule.
        """
        return list(_hot_items(self))

    def weight(self, qualname: str) -> float:
        """Observed hot-path weight in seconds (0.0 without a profile)."""
        if self.join is None:
            return 0.0
        return self.join.weights.get(qualname, 0.0)


@dataclass(frozen=True)
class PerfRule:
    """One registered rule: id, default severity, summary, checker."""

    id: str
    severity: Severity
    summary: str
    check: Callable[[PerfAnalysis], Iterable[Diagnostic]]


#: The global registry, keyed by rule id, in registration order.
PERF_RULES: dict[str, PerfRule] = {}


def perf_rule(
    rule_id: str, severity: Severity, summary: str
) -> Callable[[Callable[[PerfAnalysis], Iterable[Diagnostic]]], Callable]:
    """Decorator registering a rule function under ``rule_id``."""

    def register(
        fn: Callable[[PerfAnalysis], Iterable[Diagnostic]],
    ) -> Callable:
        PERF_RULES[rule_id] = PerfRule(
            id=rule_id, severity=severity, summary=summary, check=fn
        )
        return fn

    return register


# ---------------------------------------------------------------------------
# shared walking machinery


@dataclass
class _Loop:
    """One lexical loop: the node, its body depth, what it binds."""

    node: ast.For | ast.AsyncFor | ast.While
    body_depth: int  # local depth inside the body
    bound: set[str] = field(default_factory=set)


def _bound_names(node: ast.AST) -> Iterator[str]:
    """Every name a statement subtree binds (targets, withitems, defs),
    and the root name of every subscript or attribute it stores into:
    after ``a[i] = x`` or ``a.x = y``, what ``a`` reads has changed."""
    for sub in ast.walk(node):
        if isinstance(getattr(sub, "ctx", None), (ast.Store, ast.Del)):
            root = sub
            while isinstance(root, (ast.Subscript, ast.Attribute)):
                root = root.value
            if isinstance(root, ast.Name):
                yield root.id
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield sub.name
        elif isinstance(sub, ast.alias):
            yield (sub.asname or sub.name).split(".")[0]


def _iter_loops(
    finfo: FunctionInfo,
) -> Iterator[tuple[_Loop, list[_Loop]]]:
    """Yield ``(loop, enclosing_stack)`` for every loop, outermost first.

    The stack includes the yielded loop itself (innermost last); nested
    ``def``/``lambda`` bodies are not descended into, matching the cost
    model's treatment of definition sites.
    """

    def walk(node: ast.AST, depth: int, stack: list[_Loop]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                loop = _Loop(node=child, body_depth=depth + 1)
                loop.bound.update(_bound_names(child))
                yield loop, stack + [loop]
                yield from walk(child, depth + 1, stack + [loop])
            else:
                yield from walk(child, depth, stack)

    yield from walk(finfo.node, 0, [])


def _loop_body_walk(loop: _Loop) -> Iterator[ast.AST]:
    """Every node in the loop body that runs at *this* loop's depth.

    Nested loops are not descended into -- their bodies belong to the
    inner (deeper, hotter) loop and are reported there, which keeps
    every finding unique.  A nested loop's iterable/test does run here
    (once per outer iteration), so it is walked.  Nested ``def`` and
    ``lambda`` bodies are skipped, matching the cost model.
    """

    def walk(node: ast.AST) -> Iterator[ast.AST]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(child, (ast.For, ast.AsyncFor)):
                yield child.iter
                yield from walk(child.iter)
                continue
            if isinstance(child, ast.While):
                continue
            yield child
            yield from walk(child)

    for stmt in loop.node.body:
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            yield stmt.iter
            yield from walk(stmt.iter)
            continue
        if isinstance(stmt, ast.While):
            continue
        yield stmt
        yield from walk(stmt)


def _attr_chain(node: ast.expr) -> str | None:
    """``a.b.c`` as a dotted string when rooted at a plain Name."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def _root_names(node: ast.expr) -> set[str] | None:
    """The Name roots an expression reads, or None if not analysable.

    Only simple value shapes qualify (names, constants, attribute and
    subscript chains, tuples of those); anything with a call or a
    comprehension inside is treated as not loop-invariant.
    """
    roots: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Call, ast.Await, ast.Lambda, *(
            ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp
        ))):
            return None
        if isinstance(sub, ast.Name):
            roots.add(sub.id)
    return roots


def _invariant(node: ast.expr, loop: _Loop) -> bool:
    """True iff the expression cannot change across the loop's iterations."""
    roots = _root_names(node)
    return roots is not None and not (roots & loop.bound)


def _hot_items(
    analysis: PerfAnalysis,
) -> Iterator[tuple[FunctionInfo, _Loop, list[_Loop], int]]:
    """Every loop of every function at effective body depth >= HOT_DEPTH."""
    program = analysis.program
    for qualname in sorted(program.functions):
        finfo = program.functions[qualname]
        cost = analysis.cost.functions.get(qualname)
        if cost is None:
            continue
        for loop, stack in _iter_loops(finfo):
            effective = cost.entry_depth + loop.body_depth
            if effective >= HOT_DEPTH:
                yield finfo, loop, stack, effective


def _diag(
    rule_id: str,
    finfo: FunctionInfo,
    node: ast.AST,
    message: str,
    effective: int,
    analysis: PerfAnalysis,
) -> Diagnostic:
    weight = analysis.weight(finfo.qualname)
    hot = f"effective depth {effective}"
    if weight > 0.0:
        hot += f", observed {weight:.3f}s"
    return Diagnostic(
        rule=rule_id,
        severity=PERF_RULES[rule_id].severity,
        message=f"{message} in {finfo.qualname} ({hot})",
        location=SourceLocation(
            path=finfo.path,
            line=getattr(node, "lineno", finfo.line),
            col=getattr(node, "col_offset", None),
        ),
    )


# ---------------------------------------------------------------------------
# perf/scalar-loop-over-wires


def _positional_iteration(loop: _Loop) -> bool:
    """``for ... in range(...)/enumerate(...)`` -- index-driven loops."""
    if not isinstance(loop.node, (ast.For, ast.AsyncFor)):
        return False
    it = loop.node.iter
    return (
        isinstance(it, ast.Call)
        and isinstance(it.func, ast.Name)
        and it.func.id in ("range", "enumerate")
    )


def _loop_var_subscript(loop: _Loop, stack: list[_Loop]) -> ast.AST | None:
    """A body subscript indexed by a variable of any enclosing loop."""
    targets: set[str] = set()
    for enclosing in stack:
        if isinstance(enclosing.node, (ast.For, ast.AsyncFor)):
            targets.update(
                n.id
                for n in ast.walk(enclosing.node.target)
                if isinstance(n, ast.Name)
            )
    if not targets:
        return None
    for node in _loop_body_walk(loop):
        if not isinstance(node, ast.Subscript):
            continue
        index_names = {
            n.id for n in ast.walk(node.slice) if isinstance(n, ast.Name)
        }
        if index_names & targets:
            return node
    return None


@perf_rule(
    "perf/scalar-loop-over-wires",
    Severity.ERROR,
    "per-element Python loop over a positionally-indexed sequence",
)
def check_scalar_loop(analysis: PerfAnalysis) -> Iterator[Diagnostic]:
    for finfo, loop, stack, effective in analysis.hot_loops:
        subscript = _loop_var_subscript(loop, stack)
        if subscript is None and not _positional_iteration(loop):
            continue
        how = (
            "loop-variable subscripts"
            if subscript is not None
            else "range/enumerate iteration"
        )
        yield _diag(
            "perf/scalar-loop-over-wires",
            finfo,
            loop.node,
            f"per-element loop with {how}; replace with a NumPy "
            "gather/scatter or reduction",
            effective,
            analysis,
        )


# ---------------------------------------------------------------------------
# perf/membership-in-loop


def _linear_locals(finfo: FunctionInfo) -> set[str]:
    """Local names bound to list/tuple literals or list()/tuple() calls."""
    names: set[str] = set()
    for node in ast.walk(finfo.node):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        linear = isinstance(value, (ast.List, ast.Tuple, ast.ListComp)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("list", "tuple", "sorted")
        )
        if not linear:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


@perf_rule(
    "perf/membership-in-loop",
    Severity.ERROR,
    "O(n) list/tuple membership probe inside a loop",
)
def check_membership(analysis: PerfAnalysis) -> Iterator[Diagnostic]:
    for finfo, loop, _stack, effective in analysis.hot_loops:
        linear = _linear_locals(finfo)
        if not linear:
            continue
        for node in _loop_body_walk(loop):
            if not isinstance(node, ast.Compare):
                continue
            for op, comparator in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.In, ast.NotIn)):
                    continue
                if (
                    isinstance(comparator, ast.Name)
                    and comparator.id in linear
                ):
                    yield _diag(
                        "perf/membership-in-loop",
                        finfo,
                        node,
                        f"membership test against list/tuple "
                        f"{comparator.id!r}; use a set or a boolean mask",
                        effective,
                        analysis,
                    )


# ---------------------------------------------------------------------------
# perf/append-accumulator


def _empty_list_locals(finfo: FunctionInfo) -> set[str]:
    """Local names initialised to ``[]`` or ``list()``."""
    names: set[str] = set()
    for node in ast.walk(finfo.node):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        empty = (isinstance(value, ast.List) and not value.elts) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "list"
            and not value.args
        )
        if not empty:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


@perf_rule(
    "perf/append-accumulator",
    Severity.ERROR,
    "element-wise .append into a list accumulator",
)
def check_append(analysis: PerfAnalysis) -> Iterator[Diagnostic]:
    for finfo, loop, _stack, effective in analysis.hot_loops:
        accumulators = _empty_list_locals(finfo)
        if not accumulators:
            continue
        for node in _loop_body_walk(loop):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in accumulators
            ):
                yield _diag(
                    "perf/append-accumulator",
                    finfo,
                    node,
                    f"per-element append to {node.func.value.id!r}; build "
                    "with a vectorised expression or np.fromiter",
                    effective,
                    analysis,
                )


# ---------------------------------------------------------------------------
# perf/repeated-recompute-in-loop

#: Pure builtins whose result depends only on their arguments.
_PURE_BUILTINS = frozenset({"sorted", "min", "max", "sum", "abs", "round"})

#: Pure module prefixes (dotted resolution of the callee).
_PURE_PREFIXES = ("math.", "numpy.", "np.")

#: Impure exceptions under the pure prefixes.
_IMPURE = ("numpy.random", "np.random")


def _pure_callee(ctx, node: ast.Call) -> str | None:
    """The dotted name of a known-pure callee, else None."""
    if isinstance(node.func, ast.Name) and node.func.id in _PURE_BUILTINS:
        return node.func.id
    dotted = ctx.resolve(node.func) if ctx is not None else _attr_chain(node.func)
    if dotted is None:
        return None
    if any(dotted.startswith(p) for p in _IMPURE):
        return None
    if any(dotted.startswith(p) for p in _PURE_PREFIXES):
        return dotted
    return None


@perf_rule(
    "perf/repeated-recompute-in-loop",
    Severity.ERROR,
    "loop-invariant pure call recomputed every iteration",
)
def check_recompute(analysis: PerfAnalysis) -> Iterator[Diagnostic]:
    program = analysis.program
    for finfo, loop, _stack, effective in analysis.hot_loops:
        ctx = program.contexts.get(finfo.path)
        for node in _loop_body_walk(loop):
            if not isinstance(node, ast.Call) or not node.args or node.keywords:
                continue
            callee = _pure_callee(ctx, node)
            if callee is None:
                continue
            if all(_invariant(arg, loop) for arg in node.args):
                yield _diag(
                    "perf/repeated-recompute-in-loop",
                    finfo,
                    node,
                    f"{callee}(...) has loop-invariant arguments; hoist "
                    "it out of the loop",
                    effective,
                    analysis,
                )


# ---------------------------------------------------------------------------
# perf/copy-in-loop

_COPY_CTORS = frozenset({"list", "dict", "tuple", "set", "frozenset"})


def _is_copy(node: ast.AST) -> str | None:
    """A short label when the node allocates a full-container copy."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "copy" and not node.args:
            return ".copy()"
        if (
            isinstance(func, ast.Name)
            and func.id in _COPY_CTORS
            and len(node.args) == 1
            and isinstance(node.args[0], (ast.Name, ast.Attribute))
        ):
            return f"{func.id}(...)"
        dotted = _attr_chain(func) if isinstance(func, ast.Attribute) else None
        if dotted is not None and dotted.split(".", 1)[-1] == "array":
            return f"{dotted}(...)"
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
        s = node.slice
        if s.lower is None and s.upper is None and s.step is None:
            return "[:] slice"
    return None


@perf_rule(
    "perf/copy-in-loop",
    Severity.ERROR,
    "full-container copy allocated inside a loop",
)
def check_copy(analysis: PerfAnalysis) -> Iterator[Diagnostic]:
    for finfo, loop, _stack, effective in analysis.hot_loops:
        for node in _loop_body_walk(loop):
            label = _is_copy(node)
            if label is not None:
                yield _diag(
                    "perf/copy-in-loop",
                    finfo,
                    node,
                    f"container copy via {label} on every iteration; "
                    "hoist or mutate in place",
                    effective,
                    analysis,
                )


# ---------------------------------------------------------------------------
# perf/attr-lookup-in-hot-loop

#: Minimum occurrences of one chain in a loop body before it fires.
_ATTR_REPEATS = 3


@perf_rule(
    "perf/attr-lookup-in-hot-loop",
    Severity.ERROR,
    "repeated loop-invariant attribute chain; hoist to a local",
)
def check_attr_lookup(analysis: PerfAnalysis) -> Iterator[Diagnostic]:
    for finfo, loop, _stack, effective in analysis.hot_loops:
        seen: dict[str, list[ast.Attribute]] = {}
        claimed: set[int] = set()
        for node in _loop_body_walk(loop):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                # bound-method lookup, not a data read; the accumulator
                # and copy rules own the call patterns worth flagging
                claimed.add(id(node.func))
                continue
            if not isinstance(node, ast.Attribute):
                continue
            if id(node) in claimed or not isinstance(node.ctx, ast.Load):
                continue
            chain = _attr_chain(node)
            if chain is None or "." not in chain:
                continue
            root = chain.split(".", 1)[0]
            if root in loop.bound or root in ("self", "cls"):
                # `self.x` is idiomatic; loop-bound roots vary per
                # iteration, so hoisting would change behaviour
                continue
            # count the outermost chain only once
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub is not node:
                    claimed.add(id(sub))
            seen.setdefault(chain, []).append(node)
        for chain in sorted(seen):
            nodes = seen[chain]
            if len(nodes) >= _ATTR_REPEATS:
                yield _diag(
                    "perf/attr-lookup-in-hot-loop",
                    finfo,
                    nodes[0],
                    f"attribute chain {chain!r} read {len(nodes)} times "
                    "per iteration; hoist to a local",
                    effective,
                    analysis,
                )
