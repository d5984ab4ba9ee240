"""Circuit elements of the comparator-network model.

The paper's register model labels each pair of registers per step with an
operation from ``{+, -, 0, 1}`` (Section 1):

``+``
    compare; smaller value to the first wire, larger to the second.
``-``
    compare; larger value to the first wire, smaller to the second.
``0``
    do nothing (the pair passes through).
``1``
    unconditionally exchange the two values (a switching element, *not*
    a comparison -- Definition 3.6 explicitly excludes it from collisions).

A :class:`Gate` applies one of these operations to an ordered pair of wire
positions ``(a, b)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .._util import require_wire
from ..errors import WireError

__all__ = [
    "Op",
    "OPS",
    "OP_CODE",
    "Gate",
    "comparator",
    "reverse_comparator",
    "exchange",
    "passthrough",
]


class Op(enum.Enum):
    """Operation applied by a gate to its ordered wire pair ``(a, b)``."""

    PLUS = "+"
    MINUS = "-"
    NOP = "0"
    SWAP = "1"

    @property
    def is_comparator(self) -> bool:
        """True iff the gate compares its inputs (``+`` or ``-``).

        Only comparator gates produce *collisions* in the sense of
        Definition 3.6; ``0``/``1`` elements never compare values.
        """
        return self in (Op.PLUS, Op.MINUS)

    @classmethod
    def from_str(cls, s: str) -> "Op":
        """Parse the single-character register-model label."""
        for op in cls:
            if op.value == s:
                return op
        raise WireError(f"unknown gate op {s!r}; expected one of '+', '-', '0', '1'")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: The ops by integer code, the op column of the array form of a level:
#: ``OPS[code]`` is the op, and the two comparators come first, so
#: ``code <= OP_CODE[Op.MINUS]`` tests "is a comparator".
OPS: tuple[Op, ...] = (Op.PLUS, Op.MINUS, Op.NOP, Op.SWAP)

#: Inverse of :data:`OPS`: the integer code of each op.
OP_CODE: dict[Op, int] = {op: code for code, op in enumerate(OPS)}


@dataclass(frozen=True)
class Gate:
    """A two-wire circuit element on wire positions ``a`` and ``b``.

    Semantics on the pair of values ``(va, vb)`` currently at ``(a, b)``:

    ========  =======================================
    op        result at ``(a, b)``
    ========  =======================================
    ``+``     ``(min(va, vb), max(va, vb))``
    ``-``     ``(max(va, vb), min(va, vb))``
    ``0``     ``(va, vb)``
    ``1``     ``(vb, va)``
    ========  =======================================
    """

    a: int
    b: int
    op: Op = Op.PLUS

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise WireError(f"gate endpoints must differ, got ({self.a}, {self.b})")
        if self.a < 0 or self.b < 0:
            raise WireError(f"gate endpoints must be nonnegative: ({self.a}, {self.b})")
        if not isinstance(self.op, Op):
            object.__setattr__(self, "op", Op.from_str(self.op))

    @property
    def is_comparator(self) -> bool:
        """True iff this gate compares (op in ``{+, -}``)."""
        return self.op.is_comparator

    @property
    def wires(self) -> tuple[int, int]:
        """The ordered wire pair ``(a, b)``."""
        return (self.a, self.b)

    def apply_scalar(self, va, vb):
        """Apply the gate to a single pair of values, returning the new pair."""
        if self.op is Op.PLUS:
            return (va, vb) if va <= vb else (vb, va)
        if self.op is Op.MINUS:
            return (vb, va) if va <= vb else (va, vb)
        if self.op is Op.SWAP:
            return (vb, va)
        return (va, vb)

    def reversed(self) -> "Gate":
        """The same element with its endpoints swapped (equal behaviour).

        A ``+`` gate on ``(a, b)`` behaves like a ``-`` gate on ``(b, a)``,
        and vice versa; ``0``/``1`` are symmetric.
        """
        if self.op is Op.PLUS:
            return Gate(self.b, self.a, Op.MINUS)
        if self.op is Op.MINUS:
            return Gate(self.b, self.a, Op.PLUS)
        return Gate(self.b, self.a, self.op)

    def normalized(self) -> "Gate":
        """Equivalent gate with ``a < b``."""
        return self if self.a < self.b else self.reversed()

    def validate(self, n: int) -> None:
        """Check both endpoints lie in ``range(n)``."""
        require_wire(self.a, n)
        require_wire(self.b, n)

    def __str__(self) -> str:
        return f"({self.a}{self.op.value}{self.b})"


def comparator(a: int, b: int) -> Gate:
    """A ``+`` gate: min to ``a``, max to ``b``."""
    return Gate(a, b, Op.PLUS)


def reverse_comparator(a: int, b: int) -> Gate:
    """A ``-`` gate: max to ``a``, min to ``b``."""
    return Gate(a, b, Op.MINUS)


def exchange(a: int, b: int) -> Gate:
    """A ``1`` element: unconditionally swap."""
    return Gate(a, b, Op.SWAP)


def passthrough(a: int, b: int) -> Gate:
    """A ``0`` element: do nothing (kept for register-model fidelity)."""
    return Gate(a, b, Op.NOP)
