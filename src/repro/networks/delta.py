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
:class:`ReverseDeltaNetwork` is a binary tree.  Each node owns a set of
global wire positions; its children partition that set, and its *final
level* is a list of gates each pairing a child-0 wire with a child-1 wire.
Evaluation is in place on global positions, so flattening the tree gives a
:class:`~repro.networks.network.ComparatorNetwork` whose level ``m``
(1-based) collects the final levels of all tree nodes of height ``m`` --
small blocks first, the root's level last, exactly the recursive order of
Definition 3.4.

The block array form
--------------------
One tree walk turns a tree into :class:`BlockArrays`, cached on the
tree: the rank of every wire in the depth-first leaf order, and one
:class:`~repro.networks.level.Level` per height, whose ``arrays`` hold
its gates' endpoints and op codes.  Because the tree is complete and
children come before parents, the height-``h`` ancestor of wire ``w``
is node number ``rank[w] >> h`` of that height, and bit ``h - 1`` of
``rank[w]`` says whether ``w`` lies on its child-1 side.  Same-height
nodes own disjoint wires, so a whole height can be processed in one
array step; the Lemma 4.1 kernel and flattening both read this form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np

from .._util import require_power_of_two
from ..errors import TopologyError, WireError
from .gates import Gate
from .level import Level
from .network import ComparatorNetwork, Stage
from .permutations import Permutation

__all__ = ["BlockArrays", "ReverseDeltaNetwork", "IteratedReverseDeltaNetwork"]


@dataclass(frozen=True)
class BlockArrays:
    """The array form of a reverse delta network (see the module notes).

    Attributes
    ----------
    rank:
        ``rank[w]`` is wire ``w``'s position in the depth-first leaf order
        (child 0 before child 1), ``-1`` for wires the tree does not own.
    levels:
        ``levels[h - 1]`` holds the final-level gates of every height-``h``
        node, nodes in leaf order and each node's gates in its own order
        -- the flattened network's level ``h``.
    """

    rank: np.ndarray
    levels: tuple[Level, ...]


class ReverseDeltaNetwork:
    """A reverse delta network (Definition 3.4) as an explicit tree.

    Use the class methods :meth:`leaf` and :meth:`node` to construct;
    higher-level constructors (butterfly, random, bitonic blocks, ...)
    live in :mod:`repro.networks.builders`.
    """

    __slots__ = ("_wires", "_child0", "_child1", "_final", "_levels", "__dict__")

    def __init__(
        self,
        wires: tuple[int, ...],
        child0: "ReverseDeltaNetwork | None",
        child1: "ReverseDeltaNetwork | None",
        final: tuple[Gate, ...],
    ):
        self._wires = wires
        self._child0 = child0
        self._child1 = child1
        self._final = final
        if child0 is None:
            if child1 is not None or final:
                raise TopologyError("a leaf has no second child and no final level")
            if len(wires) != 1:
                raise TopologyError(f"a leaf owns exactly one wire, got {wires!r}")
            self._levels = 0
        else:
            assert child1 is not None
            w0, w1 = set(child0.wires), set(child1.wires)
            if w0 & w1:
                raise TopologyError("children must own disjoint wire sets")
            if w0 | w1 != set(wires):
                raise TopologyError("children must partition the node's wires")
            if len(w0) != len(w1):
                raise TopologyError(
                    f"children must be equal-sized, got {len(w0)} and {len(w1)}"
                )
            if child0.levels != child1.levels:
                raise TopologyError("children must have equal level counts")
            used: set[int] = set()
            for g in final:
                if g.a not in w0 or g.b not in w1:
                    raise TopologyError(
                        f"final-level gate {g} must pair a child-0 wire (first "
                        "endpoint) with a child-1 wire (second endpoint)"
                    )
                for w in g.wires:
                    if w in used:
                        raise TopologyError(
                            f"wire {w} used twice in one final level"
                        )
                    used.add(w)
            self._levels = child0.levels + 1

    # -- constructors --------------------------------------------------------
    @classmethod
    def leaf(cls, wire: int) -> "ReverseDeltaNetwork":
        """The 0-level reverse delta network: a single wire."""
        return cls((int(wire),), None, None, ())

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
        wires = tuple(sorted(child0.wires + child1.wires))
        return cls(wires, child0, child1, tuple(final))

    # -- structure -----------------------------------------------------------
    @property
    def wires(self) -> tuple[int, ...]:
        """The global wire positions this (sub)network owns."""
        return self._wires

    @property
    def n(self) -> int:
        """Number of wires (``2 ** levels``)."""
        return len(self._wires)

    @property
    def levels(self) -> int:
        """The parameter ``l`` of Definition 3.4."""
        return self._levels

    @property
    def is_leaf(self) -> bool:
        """True for the 0-level (single-wire) network."""
        return self._child0 is None

    @property
    def child0(self) -> "ReverseDeltaNetwork":
        """First subnetwork (raises on a leaf)."""
        if self._child0 is None:
            raise TopologyError("a leaf has no children")
        return self._child0

    @property
    def child1(self) -> "ReverseDeltaNetwork":
        """Second subnetwork (raises on a leaf)."""
        if self._child1 is None:
            raise TopologyError("a leaf has no children")
        return self._child1

    @property
    def final(self) -> tuple[Gate, ...]:
        """The gates of the node's final level :math:`\\Gamma_l`."""
        return self._final

    def __repr__(self) -> str:
        return f"ReverseDeltaNetwork(n={self.n}, levels={self.levels})"

    def nodes(self) -> Iterator["ReverseDeltaNetwork"]:
        """All tree nodes, children before parents (post-order)."""
        if not self.is_leaf:
            yield from self.child0.nodes()
            yield from self.child1.nodes()
        yield self

    @cached_property
    def size(self) -> int:
        """Total number of comparators in the (sub)network."""
        total = sum(1 for g in self._final if g.is_comparator)
        if not self.is_leaf:
            total += self.child0.size + self.child1.size
        return total

    # -- flattening ----------------------------------------------------------
    @cached_property
    def arrays(self) -> BlockArrays:
        """The block array form, built in one tree walk and cached."""
        leaves: list[int] = []
        buckets: list[list[Gate]] = [[] for _ in range(self._levels)]

        def visit(node: "ReverseDeltaNetwork") -> None:
            if node.is_leaf:
                leaves.append(node.wires[0])
                return
            visit(node.child0)
            visit(node.child1)
            buckets[node.levels - 1].extend(node.final)

        visit(self)
        rank = np.full(max(self._wires) + 1, -1, dtype=np.int64)
        rank[leaves] = np.arange(len(leaves), dtype=np.int64)
        rank.setflags(write=False)
        levels = tuple(Level(gates) for gates in buckets)
        return BlockArrays(rank=rank, levels=levels)

    def levels_flat(self) -> list[Level]:
        """Global gate levels in execution order (heights ``1 .. levels``).

        Level ``m`` collects the final levels of every node of height
        ``m``; all such nodes own disjoint wires, so the union is a valid
        parallel level.  The levels are the cached levels of
        :attr:`arrays`.
        """
        return list(self.arrays.levels)

    def to_network(self, n: int | None = None) -> ComparatorNetwork:
        """Flatten to a :class:`ComparatorNetwork` on ``n`` global wires.

        ``n`` defaults to ``max(wires) + 1``; wires outside the tree are
        pass-through.  The network has exactly ``levels`` stages, some of
        which may be empty.
        """
        if n is None:
            n = max(self._wires) + 1
        if n <= max(self._wires, default=0):
            raise WireError(f"n={n} too small for wires up to {max(self._wires)}")
        return ComparatorNetwork(n, self.levels_flat())

    # -- convenience ----------------------------------------------------------
    def map_wires(self, mapping: Callable[[int], int]) -> "ReverseDeltaNetwork":
        """Relabel every wire through ``mapping`` (must stay injective)."""
        if self.is_leaf:
            return ReverseDeltaNetwork.leaf(mapping(self._wires[0]))
        c0 = self.child0.map_wires(mapping)
        c1 = self.child1.map_wires(mapping)
        final = tuple(Gate(mapping(g.a), mapping(g.b), g.op) for g in self._final)
        return ReverseDeltaNetwork.node(c0, c1, final)

    def with_final(self, final: Iterable[Gate]) -> "ReverseDeltaNetwork":
        """Replace the root's final level (children unchanged)."""
        return ReverseDeltaNetwork.node(self.child0, self.child1, tuple(final))

    def comparator_count_by_level(self) -> list[int]:
        """Comparators per flattened level (length ``levels``)."""
        return [lvl.comparator_count for lvl in self.levels_flat()]


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
            if set(rdn.wires) != set(range(n)):
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
