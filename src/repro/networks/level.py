"""A single level (parallel layer) of gates touching disjoint wires."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from ..errors import LevelConflictError, WireError
from .gates import OP_CODE, OPS, Gate, Op

__all__ = ["Level"]

_PLUS = OP_CODE[Op.PLUS]
_MINUS = OP_CODE[Op.MINUS]
_SWAP = OP_CODE[Op.SWAP]


def _first_repeat(ends: np.ndarray) -> int | None:
    """The first entry of ``ends`` equal to an earlier one, if any."""
    order = np.argsort(ends, kind="stable")
    ranked = ends[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    return int(ends[repeats.min()]) if repeats.size else None


def _checked(
    a: np.ndarray, b: np.ndarray, ops: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one validation of a level's arrays; returns them read-only.

    Endpoints must be 1-D int64 arrays and op codes a 1-D integer
    array, all of one length; every gate needs two distinct nonnegative
    endpoints and a code indexing :data:`~repro.networks.gates.OPS`,
    and no wire may be used twice.
    """
    for ends in (a, b):
        if not isinstance(ends, np.ndarray) or ends.ndim != 1 or ends.dtype != np.int64:
            raise WireError("level endpoints must be 1-D int64 arrays")
    if not isinstance(ops, np.ndarray) or ops.ndim != 1 or ops.dtype.kind not in "iu":
        raise WireError("level op codes must be a 1-D integer array")
    if not a.size == b.size == ops.size:
        raise WireError(
            f"level arrays differ in length: {a.size}, {b.size}, {ops.size}"
        )
    bad = np.flatnonzero((a == b) | (a < 0) | (b < 0))
    if bad.size:
        pair = (int(a[bad[0]]), int(b[bad[0]]))
        if pair[0] == pair[1]:
            raise WireError(f"gate endpoints must differ, got {pair}")
        raise WireError(f"gate endpoints must be nonnegative: {pair}")
    unknown = np.flatnonzero((ops < 0) | (ops >= len(OPS)))
    if unknown.size:
        raise WireError(f"unknown gate op code {int(ops[unknown[0]])}")
    repeat = _first_repeat(np.stack((a, b), axis=1).ravel())
    if repeat is not None:
        raise LevelConflictError(f"wire {repeat} is touched by two gates in one level")
    ops = ops.astype(np.int8, copy=False)
    for arr in (a, b, ops):
        arr.setflags(write=False)
    return a, b, ops


class Level:
    """An immutable set of gates that act simultaneously on disjoint wires.

    The level corresponds to one entry :math:`\\vec{x}_i` of the paper's
    register model: every wire is touched by at most one gate, so all gates
    can fire in parallel.

    A level *is* its array form (see :attr:`arrays`): equality, hashing,
    the checks and evaluation all read it.  :attr:`gates` is a view,
    built on first use.

    Parameters
    ----------
    gates:
        The gates of the level.  Their endpoints must be pairwise disjoint.
        :meth:`from_arrays` makes a level from its arrays instead.
    """

    __slots__ = ("_gates", "_arrays", "__dict__")

    def __init__(self, gates: Iterable[Gate] = ()):
        gates = tuple(gates)
        for g in gates:
            if not isinstance(g, Gate):
                raise WireError(f"expected Gate, got {type(g).__name__}")
            for w in (g.a, g.b):
                if not isinstance(w, (int, np.integer)) or isinstance(w, bool):
                    raise WireError(f"wire index must be an integer, got {w!r}")
        count = len(gates)
        try:
            a = np.fromiter((g.a for g in gates), dtype=np.int64, count=count)
            b = np.fromiter((g.b for g in gates), dtype=np.int64, count=count)
        except OverflowError:
            raise WireError("wire index out of the int64 range") from None
        ops = np.fromiter((OP_CODE[g.op] for g in gates), dtype=np.int8, count=count)
        self._arrays = _checked(a, b, ops)
        self._gates: tuple[Gate, ...] | None = gates

    @classmethod
    def from_arrays(cls, a: np.ndarray, b: np.ndarray, ops: np.ndarray) -> "Level":
        """The level with gates ``(a[i], b[i], OPS[ops[i]])``.

        ``a`` and ``b`` are 1-D int64 arrays and ``ops`` integer codes
        indexing :data:`~repro.networks.gates.OPS`.  The arrays are taken
        over, not copied, and made read-only; the checks are those of
        the gate entry, with the same exception types.
        """
        level = cls.__new__(cls)
        level._arrays = _checked(a, b, ops)
        level._gates = None
        return level

    # -- protocol ----------------------------------------------------------
    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates of the level (built from the arrays on first use)."""
        if self._gates is None:
            a, b, ops = self._arrays
            self._gates = tuple(
                Gate(x, y, OPS[c])
                for x, y, c in zip(a.tolist(), b.tolist(), ops.tolist())
            )
        return self._gates

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only array form ``(a, b, op codes)``, in gate order;
        op codes index :data:`~repro.networks.gates.OPS`."""
        return self._arrays

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __len__(self) -> int:
        return self._arrays[0].size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Level):
            return NotImplemented
        return all(
            np.array_equal(x, y) for x, y in zip(self._arrays, other._arrays)
        )

    def __hash__(self) -> int:
        return hash(tuple(arr.tobytes() for arr in self._arrays))

    def __repr__(self) -> str:
        return f"Level([{', '.join(str(g) for g in self.gates)}])"

    # -- derived data --------------------------------------------------------
    @cached_property
    def comparator_count(self) -> int:
        """Number of true comparators (``+``/``-``) in the level."""
        return int(np.count_nonzero(self._arrays[2] <= _MINUS))

    @cached_property
    def touched_wires(self) -> frozenset[int]:
        """All wires touched by any gate of the level."""
        a, b, _ = self._arrays
        return frozenset(a.tolist()) | frozenset(b.tolist())

    @cached_property
    def max_wire(self) -> int:
        """Largest wire index touched, or -1 for an empty level."""
        a, b, _ = self._arrays
        return int(max(a.max(), b.max())) if len(a) else -1

    def validate(self, n: int) -> None:
        """Check all gate endpoints lie in ``range(n)``."""
        a, b, _ = self._arrays
        bad = np.flatnonzero((a >= n) | (b >= n))
        if bad.size:
            i = bad[0]
            w = a[i] if a[i] >= n else b[i]
            raise WireError(f"wire index {w} out of range [0, {n})")

    def gate_on(self, wire: int) -> Gate | None:
        """The gate touching ``wire``, if any."""
        a, b, _ = self._arrays
        hit = np.flatnonzero((a == wire) | (b == wire))
        return self.gates[hit[0]] if hit.size else None

    # -- vectorised index arrays (cached; used by network evaluation) -------
    @cached_property
    def _kernel(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Comparator min/max ends, then exchange ends, as index arrays."""
        a, b, ops = self._arrays
        plus = ops == _PLUS
        compares = plus | (ops == _MINUS)
        swaps = ops == _SWAP
        return (
            np.where(plus, a, b)[compares],
            np.where(plus, b, a)[compares],
            a[swaps],
            b[swaps],
        )

    @cached_property
    def partners(self) -> tuple[np.ndarray, np.ndarray]:
        """Per wire ``0 .. max_wire``: the other end of its gate (-1 if
        untouched), and whether that gate is a comparator."""
        a, b, ops = self._arrays
        partner = np.full(self.max_wire + 1, -1, dtype=np.int64)
        partner[a] = b
        partner[b] = a
        compares = np.zeros(self.max_wire + 1, dtype=bool)
        compares[a] = compares[b] = ops <= _MINUS
        return partner, compares

    def apply_inplace(self, values: np.ndarray) -> None:
        """Apply the level to a value vector or batch, in place.

        ``values`` is a 1-D vector of length ``n`` or a 2-D ``(batch, n)``
        array; rows are processed independently.
        """
        lo, hi, sa, sb = self._kernel
        if lo.size:
            va = values[..., lo]
            vb = values[..., hi]
            values[..., lo] = np.minimum(va, vb)
            values[..., hi] = np.maximum(va, vb)
        if sa.size:
            va = values[..., sa]
            values[..., sa] = values[..., sb]
            values[..., sb] = va

    def reoriented(self, flip: np.ndarray) -> "Level":
        """The level with the gates where ``flip`` is true turned around:
        endpoints swapped and ``+``/``-`` exchanged (equal behaviour)."""
        a, b, ops = self._arrays
        # the comparator codes are 0 and 1 (``OPS`` order), so ``^ 1`` swaps them
        turned = np.where(flip & (ops <= _MINUS), ops ^ 1, ops).astype(np.int8)
        return Level.from_arrays(np.where(flip, b, a), np.where(flip, a, b), turned)

    def normalized(self) -> "Level":
        """The level with each gate normalised to ``a < b`` and gates sorted."""
        a, b, _ = self._arrays
        turned = self.reoriented(a > b)
        order = np.argsort(turned.arrays[0], kind="stable")
        return Level.from_arrays(*(arr[order] for arr in turned.arrays))
