"""Reverse delta networks and iterated reverse delta networks.

Definition 3.4 of the paper: a :math:`2^l`-input comparator network
:math:`\\Delta` is an *l-level reverse delta network* if

* ``l == 0`` and the network contains no comparator elements, or
* ``l > 0`` and :math:`\\Delta \\in (\\Delta_0 \\oplus \\Delta_1) \\otimes
  \\Gamma_l`, where :math:`\\Delta_0, \\Delta_1` are ``(l-1)``-level reverse
  delta networks on disjoint wire sets and the final level
  :math:`\\Gamma_l` contains at most :math:`2^{l-1}` elements, each taking
  one input from :math:`\\Delta_0` and one from :math:`\\Delta_1`.

Because parallel composition places no constraint on *which* wires go to
which subnetwork, and serial composition allows an arbitrary one-to-one
wire map, the split need not be into contiguous halves: this class
includes, e.g., the depth-:math:`\\lg n` shuffle-based network (whose
recursive split is by the *low* index bit) as well as the canonical
butterfly (split by the *high* bit).

A *(k, l)-iterated reverse delta network* is ``k`` consecutive ``l``-level
reverse delta networks with arbitrary fixed permutations in between.

Representation
--------------
A :class:`ReverseDeltaNetwork` is its wires in depth-first leaf order
(child 0 first) plus one :class:`~repro.networks.level.Level` per tree
height.  With ``rank[w]`` the position of wire ``w`` in the leaf order,
the height-``h`` ancestor of ``w`` is node ``rank[w] >> h`` of that
height, and bit ``h - 1`` of ``rank[w]`` says whether ``w`` lies on its
child-1 side.  Level ``h`` holds the final levels of all height-``h``
nodes, in leaf order: level ``h`` of the flattened network, the root's
level last as in Definition 3.4.  Same-height nodes own disjoint wires,
so validation, flattening and the Lemma 4.1 kernel treat a whole height
in one array step; ``child0``, ``child1`` and ``final`` are derived.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np

from .._util import require_power_of_two
from ..errors import LevelConflictError, TopologyError, WireError
from .gates import OPS, Gate
from .level import Level
from .network import ComparatorNetwork, Stage
from .permutations import Permutation

__all__ = ["ReverseDeltaNetwork", "IteratedReverseDeltaNetwork"]


class ReverseDeltaNetwork:
    """A reverse delta network (Definition 3.4): leaf order plus levels.

    ``leaf_order`` lists the ``2 ** l`` distinct wires in depth-first
    order; ``levels[h - 1]`` (a :class:`~repro.networks.level.Level` or
    an iterable of gates) holds the final levels of the height-``h``
    nodes, and each of its gates joins two wires of one such node,
    child-0 end first.  Anything else raises
    :class:`~repro.errors.TopologyError`.  :meth:`leaf` and :meth:`node`
    compose small trees by hand.
    """

    __slots__ = ("_leaves", "_levels")

    def __init__(
        self,
        leaf_order: Iterable[int] | np.ndarray,
        levels: Iterable[Level | Iterable[Gate]] = (),
    ):
        leaves = np.array(leaf_order, dtype=np.int64)
        with _form_conflicts():
            levels = tuple(x if isinstance(x, Level) else Level(x) for x in levels)
        if leaves.size != 1 << len(levels):
            raise TopologyError(
                f"a {len(levels)}-level reverse delta network has "
                f"{1 << len(levels)} leaves, got {leaves.size}"
            )
        if leaves.min() < 0:
            raise TopologyError(f"wires must be nonnegative, got {leaves.min()}")
        leaves.setflags(write=False)
        self._leaves, self._levels = leaves, levels
        rank = self.rank
        if np.count_nonzero(rank >= 0) != leaves.size:
            raise TopologyError("the leaf order repeats a wire")
        if levels:
            _check_gates(rank, levels)

    # -- constructors --------------------------------------------------------
    @classmethod
    def leaf(cls, wire: int) -> "ReverseDeltaNetwork":
        """The 0-level reverse delta network: a single wire."""
        return cls((wire,))

    @classmethod
    def node(
        cls,
        child0: "ReverseDeltaNetwork",
        child1: "ReverseDeltaNetwork",
        final: Iterable[Gate] = (),
    ) -> "ReverseDeltaNetwork":
        """Combine two subnetworks with a final level of gates.

        Every gate must have its first endpoint in ``child0`` and its
        second in ``child1``; at most one gate per wire.
        """
        with _form_conflicts():
            below = [
                Level.from_arrays(*map(np.concatenate, zip(x.arrays, y.arrays)))
                for x, y in zip(child0._levels, child1._levels)
            ]
        leaves = np.concatenate((child0._leaves, child1._leaves))
        return cls(leaves, below + [final])

    # -- structure -----------------------------------------------------------
    @property
    def leaf_order(self) -> np.ndarray:
        """The wires in depth-first leaf order (read-only int64)."""
        return self._leaves

    @property
    def rank(self) -> np.ndarray:
        """``rank[w]``: wire ``w``'s position in :attr:`leaf_order`, -1 for
        an unowned wire (int64, length ``max(wires) + 1``; a new array on
        every call, so a subtree holds no array of the whole range)."""
        rank = np.full(int(self._leaves.max()) + 1, -1, dtype=np.int64)
        rank[self._leaves] = np.arange(self._leaves.size, dtype=np.int64)
        return rank

    @property
    def wires(self) -> tuple[int, ...]:
        """The global wire positions this (sub)network owns, ascending."""
        return tuple(np.sort(self._leaves).tolist())

    @property
    def n(self) -> int:
        """Number of wires (``2 ** levels``)."""
        return self._leaves.size

    @property
    def levels(self) -> int:
        """The parameter ``l`` of Definition 3.4."""
        return len(self._levels)

    @property
    def is_leaf(self) -> bool:
        """True for the 0-level (single-wire) network."""
        return not self._levels

    def covers(self, n: int) -> bool:
        """True iff the network owns exactly the wires ``0 .. n-1``."""
        return self._leaves.size == n == int(self._leaves.max()) + 1

    @property
    def child0(self) -> "ReverseDeltaNetwork":
        """First subnetwork, on the first half of the leaf order."""
        return self._child(False)

    @property
    def child1(self) -> "ReverseDeltaNetwork":
        """Second subnetwork, on the second half of the leaf order."""
        return self._child(True)

    def _child(self, second: bool) -> "ReverseDeltaNetwork":
        if self.is_leaf:
            raise TopologyError("a leaf has no children")
        half, rank, below = self.n >> 1, self.rank, self._levels[:-1]
        keep = [(rank[lvl.arrays[0]] >= half) == second for lvl in below]
        return ReverseDeltaNetwork(
            self._leaves[half:] if second else self._leaves[:half],
            [
                Level.from_arrays(*(arr[mask] for arr in lvl.arrays))
                for lvl, mask in zip(below, keep)
            ],
        )

    @property
    def final(self) -> tuple[Gate, ...]:
        """The gates of the node's final level :math:`\\Gamma_l`."""
        return self._levels[-1].gates if self._levels else ()

    def __repr__(self) -> str:
        return f"ReverseDeltaNetwork(n={self.n}, levels={self.levels})"

    def nodes(self) -> Iterator["ReverseDeltaNetwork"]:
        """All tree nodes, children before parents (post-order)."""
        if not self.is_leaf:
            yield from self.child0.nodes()
            yield from self.child1.nodes()
        yield self

    @property
    def size(self) -> int:
        """Total number of comparators in the (sub)network."""
        return sum(self.comparator_count_by_level())

    # -- flattening ----------------------------------------------------------
    def levels_flat(self) -> list[Level]:
        """Global gate levels in execution order (heights ``1 .. levels``).

        Level ``m`` collects the final levels of every node of height
        ``m``; all such nodes own disjoint wires, so the union is a valid
        parallel level.
        """
        return list(self._levels)

    def to_network(self, n: int | None = None) -> ComparatorNetwork:
        """Flatten to a :class:`ComparatorNetwork` on ``n`` global wires.

        ``n`` defaults to ``max(wires) + 1``; wires outside the tree are
        pass-through.  The network has exactly ``levels`` stages, some of
        which may be empty.
        """
        top = int(self._leaves.max())
        if n is None:
            n = top + 1
        if n <= top:
            raise WireError(f"n={n} too small for wires up to {top}")
        return ComparatorNetwork(n, self.levels_flat())

    # -- convenience ----------------------------------------------------------
    def map_wires(self, mapping: Callable[[int], int]) -> "ReverseDeltaNetwork":
        """Relabel every wire through ``mapping`` (must stay injective)."""
        mapped = np.array([mapping(w) for w in self._leaves.tolist()], dtype=np.int64)
        relabel = np.zeros(int(self._leaves.max()) + 1, dtype=np.int64)
        relabel[self._leaves] = mapped
        with _form_conflicts():
            levels = [
                Level.from_arrays(relabel[a], relabel[b], ops)
                for a, b, ops in (lvl.arrays for lvl in self._levels)
            ]
        return ReverseDeltaNetwork(mapped, levels)

    def with_final(self, final: Iterable[Gate]) -> "ReverseDeltaNetwork":
        """Replace the root's final level (children unchanged)."""
        return ReverseDeltaNetwork(self._leaves, self._levels[:-1] + (final,))

    def comparator_count_by_level(self) -> list[int]:
        """Comparators per flattened level (length ``levels``)."""
        return [lvl.comparator_count for lvl in self._levels]


@contextmanager
def _form_conflicts() -> Iterator[None]:
    """Report a wire used twice in one level as a flaw of the form."""
    try:
        yield
    except LevelConflictError as exc:
        raise TopologyError(f"{exc} of a reverse delta network") from None


def _check_gates(rank: np.ndarray, levels: tuple[Level, ...]) -> None:
    """Raise unless every height-``h`` gate ``(a, b)`` joins two wires of
    one height-``h`` node, child-0 end first: ``rank[a] >> (h - 1)`` is
    even and ``rank[b] >> (h - 1)`` the next number.  All levels are
    checked in one array step; an unowned wire ranks -1 and fails."""
    sizes = [len(lvl) for lvl in levels]
    below = np.repeat(np.arange(len(levels), dtype=np.int64), sizes)
    a, b = (np.concatenate([lvl.arrays[end] for lvl in levels]) for end in (0, 1))
    ranks = np.append(rank, np.int64(-1))  # wires past the end rank -1 too
    half_a = ranks[np.minimum(a, rank.size)] >> below
    half_b = ranks[np.minimum(b, rank.size)] >> below
    bad = np.flatnonzero((half_a & 1 == 1) | (half_b != half_a + 1))
    if bad.size:
        ops = np.concatenate([lvl.arrays[2] for lvl in levels])
        gate = Gate(int(a[bad[0]]), int(b[bad[0]]), OPS[ops[bad[0]]])
        raise TopologyError(
            f"height-{below[bad[0]] + 1} gate {gate} must pair a child-0 wire "
            "(first endpoint) with a child-1 wire (second endpoint) of one node"
        )


class IteratedReverseDeltaNetwork:
    """A (k, l)-iterated reverse delta network.

    ``k`` consecutive ``l``-level reverse delta networks on the same ``n``
    wires, with an arbitrary fixed permutation allowed before each block
    (the paper's serial composition allows one between any two consecutive
    blocks; we also allow one before the first block, which is harmless --
    it just relabels inputs).
    """

    __slots__ = ("_n", "_blocks", "__dict__")

    def __init__(
        self,
        n: int,
        blocks: Iterable[tuple[Permutation | None, ReverseDeltaNetwork]],
    ):
        require_power_of_two(n, "iterated reverse delta size")
        blocks = tuple(blocks)
        lvl: int | None = None
        for perm, rdn in blocks:
            if not rdn.covers(n):
                raise TopologyError(
                    f"every block must cover all {n} wires exactly once"
                )
            if perm is not None and perm.n != n:
                raise WireError("inter-block permutation has wrong size")
            if lvl is None:
                lvl = rdn.levels
            elif rdn.levels != lvl:
                raise TopologyError(
                    "all blocks of an iterated reverse delta network must "
                    f"have the same level count (got {rdn.levels} and {lvl})"
                )
        self._n = n
        self._blocks = blocks

    @property
    def n(self) -> int:
        """Number of wires."""
        return self._n

    @property
    def blocks(self) -> tuple[tuple[Permutation | None, ReverseDeltaNetwork], ...]:
        """The ``(inter-block permutation, block)`` pairs, in order."""
        return self._blocks

    @property
    def k(self) -> int:
        """Number of blocks (the paper's ``k``, ``d`` in Theorem 4.1)."""
        return len(self._blocks)

    @property
    def block_levels(self) -> int:
        """Levels per block (the paper's ``l``)."""
        return self._blocks[0][1].levels if self._blocks else 0

    @property
    def depth(self) -> int:
        """Total comparator-level depth ``k * l``."""
        return self.k * self.block_levels

    @cached_property
    def size(self) -> int:
        """Total number of comparators."""
        return sum(rdn.size for _, rdn in self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __repr__(self) -> str:
        return (
            f"IteratedReverseDeltaNetwork(n={self._n}, k={self.k}, "
            f"l={self.block_levels})"
        )

    def to_network(self) -> ComparatorNetwork:
        """Flatten to a single :class:`ComparatorNetwork`."""
        stages: list[Stage] = []
        for perm, rdn in self._blocks:
            block_levels = rdn.levels_flat()
            if perm is not None and not perm.is_identity:
                if block_levels:
                    stages.append(Stage(level=block_levels[0], perm=perm))
                    stages.extend(Stage(level=lvl) for lvl in block_levels[1:])
                else:
                    stages.append(Stage(level=Level(()), perm=perm))
            else:
                stages.extend(Stage(level=lvl) for lvl in block_levels)
        return ComparatorNetwork(self._n, stages)

    def truncated(self, k: int) -> "IteratedReverseDeltaNetwork":
        """The first ``k`` blocks."""
        return IteratedReverseDeltaNetwork(self._n, self._blocks[:k])

    def then_block(
        self, rdn: ReverseDeltaNetwork, perm: Permutation | None = None
    ) -> "IteratedReverseDeltaNetwork":
        """Append one more block (with an optional preceding permutation)."""
        return IteratedReverseDeltaNetwork(
            self._n, self._blocks + ((perm, rdn),)
        )
