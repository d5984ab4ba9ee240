"""The shape rule catalog: dtype/ndim discipline for the NumPy layer.

Mirrors the registry shape of :mod:`repro.race.rules` (stable
``shape/name`` ids, severity, one-line summary), but each rule reads a
:class:`ShapeAnalysis` -- the built
:class:`~repro.flow.graph.Program`, the dtype × ndim model of
:mod:`repro.shape.model`, and the :mod:`repro.perf` cost model for hot
gating.  Every finding points at the concrete allocation, operation or
comparison the interpreter recorded, so it is checkable by reading the
named line.

``shape/object-dtype-array``
    A constructor (or ``.astype``) provably produces an object-dtype
    array: element math falls back to Python objects, hashes and
    certificates stop being well-defined, and every kernel silently
    deoptimises.  ``None`` leaves and ragged literals infer to object
    exactly as NumPy does.
``shape/unpinned-dtype-constructor``
    A default-dtype-sensitive allocator (``zeros``/``empty``/
    ``arange``/...) in *hot* code (effective loop depth >= 2 per the
    repro.perf cost model) without ``dtype=``: the value silently lands
    in float64 (or whatever the arguments imply), and the vectorization
    arc needs those dtypes pinned before kernels can rely on them.
``shape/implicit-upcast``
    On an integer-exactness path (``repro/core/``, ``repro/networks/``,
    ``repro/analysis/``) an integer array meets float arithmetic -- a
    float operand, or ``/`` true division -- and the result silently
    upcasts: above 2**53 the values stop being exact, and certificate
    bytes drift.  ``//`` or an explicit ``.astype`` is the sanctioned
    spelling.  The ``uint64`` + signed-int meeting (NumPy promotes to
    float64!) is the same defect and fires here too.
``shape/broadcast-mismatch``
    Two operands with statically-known shapes that provably cannot
    broadcast: the line raises ``ValueError`` on first execution with
    real data.
``shape/needless-copy``
    Conversion churn: ``list(x.tolist())``, ``np.asarray`` of a fresh
    conversion, ``.copy()`` on an ``np.array`` result (which already
    copied), ``.astype`` chained onto a conversion that could have
    pinned the dtype itself, or ``np.asarray(...).copy()`` where a
    single ``np.array(..., dtype=...)`` does both jobs in one pass.
``shape/ndim-mismatch``
    An ``axis=`` argument or a scalar-index chain that provably exceeds
    the operand's rank: ``AxisError``/``IndexError`` waiting for the
    first real input.
``shape/float-compare-on-int-path``
    On an integer-exactness path an integer array is compared against a
    float (a float literal, a float-dtype operand, or via
    ``np.isclose``): exact integer data never needs tolerance
    comparison, and its presence means some producer upstream already
    leaked into float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ..flow.graph import Program
from ..perf.costmodel import CostModel, build_cost_model
from ..diagnostics import Diagnostic, Severity, SourceLocation
from ..sanitize.engine import anchored_path
from .model import DEFAULT_SENSITIVE, ShapeModel, dtype_kind

__all__ = [
    "ShapeRule",
    "SHAPE_RULES",
    "shape_rule",
    "ShapeAnalysis",
    "INT_EXACT_SCOPE",
    "HOT_DEPTH",
]

#: Where arrays carry certificate-bearing integer data: the adversary
#: core, the network evaluators, and the analyses re-verified from
#: archived certificates.  Matches the determinism scope of the
#: per-file sanitize rules plus the network evaluation layer.
INT_EXACT_SCOPE = (
    "repro/core/",
    "repro/networks/",
    "repro/analysis/",
)

#: Effective loop depth at which an unpinned constructor is "hot",
#: matching :data:`repro.perf.rules.HOT_DEPTH`.
HOT_DEPTH = 2


@dataclass
class ShapeAnalysis:
    """The program plus every shape summary the rules read."""

    program: Program
    model: ShapeModel
    cost: CostModel = field(default_factory=CostModel)

    @classmethod
    def build(cls, program: Program) -> "ShapeAnalysis":
        return cls(
            program=program,
            model=ShapeModel.build(program),
            cost=build_cost_model(program),
        )

    def dtype_counts(self) -> dict[str, int]:
        """Histogram of inferred constructor dtypes (for reports)."""
        return self.model.dtype_counts()

    def constructor_count(self) -> int:
        """How many array-allocating sites the interpreter saw."""
        return sum(
            len(f.constructors) for f in self.model.facts.values()
        )


@dataclass(frozen=True)
class ShapeRule:
    """One registered rule: id, default severity, summary, checker."""

    id: str
    severity: Severity
    summary: str
    check: Callable[[ShapeAnalysis], Iterable[Diagnostic]]


#: The global registry, keyed by rule id, in registration order.
SHAPE_RULES: dict[str, ShapeRule] = {}


def shape_rule(
    rule_id: str, severity: Severity, summary: str
) -> Callable[[Callable[[ShapeAnalysis], Iterable[Diagnostic]]], Callable]:
    """Decorator registering a rule function under ``rule_id``."""

    def register(
        fn: Callable[[ShapeAnalysis], Iterable[Diagnostic]],
    ) -> Callable:
        SHAPE_RULES[rule_id] = ShapeRule(
            id=rule_id, severity=severity, summary=summary, check=fn
        )
        return fn

    return register


def _in_scope(path: str) -> bool:
    return anchored_path(path).startswith(INT_EXACT_SCOPE)


def _each_facts(analysis: ShapeAnalysis):
    for qualname in sorted(analysis.model.facts):
        yield qualname, analysis.model.facts[qualname]


def _loc(site) -> SourceLocation:
    return SourceLocation(path=site.path, line=site.line, col=site.col)


# ---------------------------------------------------------------------------
# the rules


@shape_rule(
    "shape/object-dtype-array",
    Severity.ERROR,
    "an array provably carries dtype=object",
)
def check_object_dtype(analysis: ShapeAnalysis) -> Iterator[Diagnostic]:
    for qualname, facts in _each_facts(analysis):
        for site in facts.constructors:
            if site.value.dtype != "object":
                continue
            if site.pinned:
                why = "dtype=object is explicit"
            else:
                why = (
                    "the literal holds None or ragged rows, so NumPy "
                    "falls back to dtype=object"
                )
            yield Diagnostic(
                rule="shape/object-dtype-array",
                severity=Severity.ERROR,
                message=(
                    f"`{qualname}` builds an object-dtype array via "
                    f"np.{site.func} ({why}): element access runs "
                    "Python-object math and certificate hashes stop "
                    "being well-defined; keep the data numeric or use "
                    "a plain list"
                ),
                location=_loc(site),
            )


@shape_rule(
    "shape/unpinned-dtype-constructor",
    Severity.ERROR,
    "hot allocator relies on a default dtype",
)
def check_unpinned_constructor(
    analysis: ShapeAnalysis,
) -> Iterator[Diagnostic]:
    for qualname, facts in _each_facts(analysis):
        for site in facts.constructors:
            if site.pinned or site.func not in DEFAULT_SENSITIVE:
                continue
            depth = analysis.cost.effective_depth(qualname, site.line)
            if depth < HOT_DEPTH:
                continue
            default = (
                "int64/float64 depending on its arguments"
                if site.func in ("arange", "full", "fromiter")
                else "float64"
            )
            yield Diagnostic(
                rule="shape/unpinned-dtype-constructor",
                severity=Severity.ERROR,
                message=(
                    f"hot np.{site.func} call in `{qualname}` "
                    f"(effective loop depth {depth}) defaults to "
                    f"{default}; pin dtype= so the vectorized kernels "
                    "keep exact, platform-independent semantics"
                ),
                location=_loc(site),
            )


@shape_rule(
    "shape/implicit-upcast",
    Severity.ERROR,
    "integer array silently upcasts to float on a certificate path",
)
def check_implicit_upcast(analysis: ShapeAnalysis) -> Iterator[Diagnostic]:
    for qualname, facts in _each_facts(analysis):
        if not facts.ops:
            continue
        if not _in_scope(facts.ops[0].path):
            continue
        for site in facts.ops:
            int_side = site.left.is_int_array or site.right.is_int_array
            if not (int_side and site.result.is_float_like):
                continue
            if site.op == "truediv":
                how = (
                    "`/` true-divides it into float64; use `//` for "
                    "exact integer division or make the cast explicit "
                    "with .astype"
                )
            elif "uint64" in (site.left.dtype, site.right.dtype):
                how = (
                    "uint64 meets a signed integer, which NumPy "
                    "promotes to float64 (no int128); convert one "
                    "side with .astype(np.int64) first"
                )
            else:
                floaty = (
                    site.right.dtype
                    if site.left.is_int_array
                    else site.left.dtype
                )
                how = (
                    f"a {floaty or 'float'} operand drags the result "
                    f"to {site.result.dtype or 'float'}; keep the "
                    "operand integral or make the upcast explicit"
                )
            yield Diagnostic(
                rule="shape/implicit-upcast",
                severity=Severity.ERROR,
                message=(
                    f"integer array upcasts to float in `{qualname}`: "
                    f"{how} -- above 2**53 the values stop being "
                    "exact and certificate bytes drift"
                ),
                location=_loc(site),
            )


@shape_rule(
    "shape/broadcast-mismatch",
    Severity.ERROR,
    "statically-known shapes cannot broadcast",
)
def check_broadcast(analysis: ShapeAnalysis) -> Iterator[Diagnostic]:
    for qualname, facts in _each_facts(analysis):
        for site in facts.broadcast_violations:
            left = "x".join(str(d) if d is not None else "?"
                            for d in site.left)
            right = "x".join(str(d) if d is not None else "?"
                             for d in site.right)
            yield Diagnostic(
                rule="shape/broadcast-mismatch",
                severity=Severity.ERROR,
                message=(
                    f"shapes ({left}) and ({right}) cannot broadcast "
                    f"in `{qualname}`: this line raises ValueError on "
                    "the first real input"
                ),
                location=_loc(site),
            )


_COPY_MESSAGES = {
    "list-of-tolist": (
        "list() wraps .tolist(), which already returns a new list; "
        "drop the outer list()"
    ),
    "copy-of-asarray": (
        "np.asarray(...).copy() materialises the data twice; "
        "np.array(..., dtype=...) converts and copies in one pass"
    ),
    "copy-of-array": (
        ".copy() of an np.array(...) result copies twice: np.array "
        "already allocated fresh storage"
    ),
}


@shape_rule(
    "shape/needless-copy",
    Severity.ERROR,
    "conversion churn: the same data is materialised twice",
)
def check_needless_copy(analysis: ShapeAnalysis) -> Iterator[Diagnostic]:
    for qualname, facts in _each_facts(analysis):
        for site in facts.copies:
            detail = _COPY_MESSAGES.get(site.pattern)
            if detail is None:
                outer, _, inner = site.pattern.partition("-of-")
                detail = (
                    f"np.{outer} re-converts the fresh result of a "
                    f"{inner} call; fold the dtype/copy into the inner "
                    "conversion"
                )
            yield Diagnostic(
                rule="shape/needless-copy",
                severity=Severity.ERROR,
                message=f"needless copy in `{qualname}`: {detail}",
                location=_loc(site),
            )


@shape_rule(
    "shape/ndim-mismatch",
    Severity.ERROR,
    "axis or index provably exceeds the array's rank",
)
def check_ndim(analysis: ShapeAnalysis) -> Iterator[Diagnostic]:
    for qualname, facts in _each_facts(analysis):
        for site in facts.ndim_violations:
            yield Diagnostic(
                rule="shape/ndim-mismatch",
                severity=Severity.ERROR,
                message=(
                    f"{site.what} applied to a {site.ndim}-D array in "
                    f"`{qualname}`: this raises on the first real "
                    "input"
                ),
                location=_loc(site),
            )


@shape_rule(
    "shape/float-compare-on-int-path",
    Severity.ERROR,
    "integer array compared against float on a certificate path",
)
def check_float_compare(analysis: ShapeAnalysis) -> Iterator[Diagnostic]:
    for qualname, facts in _each_facts(analysis):
        if not facts.compares:
            continue
        if not _in_scope(facts.compares[0].path):
            continue
        for site in facts.compares:
            int_side = site.left.is_int_array or site.right.is_int_array
            if not int_side:
                continue
            other = (
                site.right if site.left.is_int_array else site.left
            )
            floaty = site.float_const or dtype_kind(other.dtype) in (
                "float", "complex"
            )
            if site.isclose:
                yield Diagnostic(
                    rule="shape/float-compare-on-int-path",
                    severity=Severity.ERROR,
                    message=(
                        f"np.isclose on an integer array in "
                        f"`{qualname}`: exact integer data never "
                        "needs tolerance comparison -- use == and "
                        "keep the path in int64"
                    ),
                    location=_loc(site),
                )
            elif floaty:
                yield Diagnostic(
                    rule="shape/float-compare-on-int-path",
                    severity=Severity.ERROR,
                    message=(
                        f"integer array compared against a float in "
                        f"`{qualname}`: some producer upstream "
                        "leaked into float; pin the producer's dtype "
                        "and compare integers exactly"
                    ),
                    location=_loc(site),
                )
