"""A single level (parallel layer) of gates touching disjoint wires."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from ..errors import LevelConflictError, WireError
from .gates import OP_CODE, Gate, Op

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


class Level:
    """An immutable set of gates that act simultaneously on disjoint wires.

    The level corresponds to one entry :math:`\\vec{x}_i` of the paper's
    register model: every wire is touched by at most one gate, so all gates
    can fire in parallel.

    Besides its gates, a level holds their array form (see :attr:`arrays`),
    which the disjointness and range checks and evaluation run on.

    Parameters
    ----------
    gates:
        The gates of the level.  Their endpoints must be pairwise disjoint.
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
        repeat = _first_repeat(np.stack((a, b), axis=1).ravel())
        if repeat is not None:
            raise LevelConflictError(
                f"wire {repeat} is touched by two gates in one level"
            )
        for arr in (a, b, ops):
            arr.setflags(write=False)
        self._gates = gates
        self._arrays = (a, b, ops)

    # -- protocol ----------------------------------------------------------
    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates of the level."""
        return self._gates

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only array form ``(a, b, op codes)``, in gate order;
        op codes index :data:`~repro.networks.gates.OPS`."""
        return self._arrays

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Level):
            return NotImplemented
        return self._gates == other._gates

    def __hash__(self) -> int:
        return hash(self._gates)

    def __repr__(self) -> str:
        return f"Level([{', '.join(str(g) for g in self._gates)}])"

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
        for g in self._gates:
            if wire in g.wires:
                return g
        return None

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

    def normalized(self) -> "Level":
        """The level with each gate normalised to ``a < b`` and gates sorted."""
        return Level(sorted((g.normalized() for g in self._gates), key=lambda g: g.a))
