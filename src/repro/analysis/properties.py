"""Topology recognisers: reverse delta, delta, butterfly (Section 3.2).

Definition 3.4 is existential ("there *exist* subnetworks such that...");
these functions decide it constructively for a concrete pure-circuit
network by reconstructing the recursion:

* the gates of the last level must cross a balanced bipartition of the
  wires that no earlier gate crosses;
* candidate bipartitions are found by contracting the earlier levels'
  connectivity into components, 2-colouring the constraint graph the
  final level induces on them, and balancing the colour classes with a
  subset-sum choice of colouring orientations;
* recurse into both sides.

A *delta* network is the level-reversal of a reverse delta network, and
the butterfly is the unique network that is both [Kruskal-Snir], which is
exactly how :func:`is_butterfly_topology` decides it.
"""

from __future__ import annotations


import numpy as np

from .._util import ilog2, is_power_of_two
from ..errors import TopologyError
from ..networks.delta import ReverseDeltaNetwork
from ..networks.gates import OPS, Gate
from ..networks.level import Level
from ..networks.network import ComparatorNetwork

__all__ = [
    "reconstruct_reverse_delta",
    "is_reverse_delta_topology",
    "reversed_levels_network",
    "is_delta_topology",
    "is_butterfly_topology",
]


def _balanced_orientations(
    groups: list[tuple[int, int]], target: int
):
    """Yield every per-group orientation whose side-0 sizes sum to ``target``.

    ``groups[c] = (size0, size1)``; orientation 0 contributes ``size0``
    to side 0, orientation 1 contributes ``size1``.  Subset-sum DP over
    reachable totals, then a DFS back through the table enumerating all
    solutions lazily (sparse networks can admit many balanced splits, of
    which only some are recursively valid -- the caller backtracks).
    """
    reachable_after: list[set[int]] = []
    reachable: set[int] = {0}
    for s0, s1 in groups:
        nxt = set()
        for total in reachable:
            if total + s0 <= target:
                nxt.add(total + s0)
            if total + s1 <= target:
                nxt.add(total + s1)
        reachable_after.append(nxt)
        reachable = nxt
        if not reachable:
            return
    if target not in reachable:
        return
    # reachable-before sets for the backward DFS
    before: list[set[int]] = [{0}] + reachable_after[:-1]

    def dfs(c: int, remaining: int, suffix: list[int]):
        if c < 0:
            yield list(reversed(suffix))
            return
        s0, s1 = groups[c]
        for pick, sub in ((0, s0), (1, s1)):
            prev = remaining - sub
            if prev >= 0 and prev in before[c]:
                suffix.append(pick)
                yield from dfs(c - 1, prev, suffix)
                suffix.pop()

    yield from dfs(len(groups) - 1, target, [])


def reconstruct_reverse_delta(
    network: ComparatorNetwork, max_attempts: int = 4096
) -> ReverseDeltaNetwork:
    """Reconstruct the Definition 3.4 tree of a pure-circuit network.

    Requires ``n = 2^l`` wires, exactly ``l`` stages, and no stage
    permutations.  Raises :class:`~repro.errors.TopologyError` if the
    network is not an ``l``-level reverse delta network.

    Sparse networks can admit many balanced bipartitions per level, only
    some of which work recursively; the search backtracks across them.
    A search that never backtracks tries one split at each of the
    ``n - 1`` tree nodes; ``max_attempts`` bounds the split trials beyond
    those (dense networks such as the butterfly have essentially unique
    splits and never backtrack).
    """
    n = network.n
    if not network.is_pure_circuit():
        raise TopologyError("topology recognition requires a pure circuit network")
    if not is_power_of_two(n):
        raise TopologyError(f"need a power-of-two wire count, got {n}")
    log_n = ilog2(n)
    if network.depth != log_n:
        raise TopologyError(
            f"an l-level reverse delta network has exactly lg n = {log_n} levels, "
            f"got {network.depth}"
        )
    if not log_n:
        return ReverseDeltaNetwork([0])
    search = _Search([s.level for s in network.stages], n, max_attempts)
    search.node(
        np.arange(n, dtype=np.int64), log_n, np.arange(search.a.size, dtype=np.int64)
    )
    return search.tree()


class _Search:
    """The backtracking split search of one :func:`reconstruct_reverse_delta`.

    Gates are numbered in level-then-gate order over the concatenated
    level arrays.  :meth:`node` decides one node from its wires and the
    ids of the gates below and at its final level that lie inside it
    (the parent splits its own list, keeping the order), so no node
    rescans a level.  Its components come from :func:`_union_roots`:
    one union pass over all levels gives every node the roots that a
    union-find over only its own gates would.  Each success appends to
    :attr:`leaves` and :attr:`finals` in depth-first order, and a failed
    attempt truncates both back.
    """

    def __init__(self, levels: list[Level], n: int, max_attempts: int):
        self.a, self.b, self.ops = (
            np.concatenate([lvl.arrays[i] for lvl in levels]) for i in range(3)
        )
        #: First gate id of each level, and the total.
        self.starts = np.cumsum([0] + [len(lvl) for lvl in levels])
        parent = list(range(n))
        #: Per level ``t <= l - 2``: each wire's root after levels ``0 .. t``.
        self.roots = [
            _union_roots(parent, self.a[lo:hi].tolist(), self.b[lo:hi].tolist())
            for lo, hi in zip(self.starts[:-2], self.starts[1:-1])
        ]
        #: split trials left: one per tree node, plus ``max_attempts``
        self.budget = max_attempts + n - 1
        self.scratch = np.zeros(n, dtype=np.int64)
        self.leaves: list[int] = []
        #: ``(level, final gate ids)`` of every decided node, depth first.
        self.finals: list[tuple[int, np.ndarray]] = []
        self.levels = len(levels)

    def gate(self, gate_id: int) -> Gate:
        """The gate with id ``gate_id``, for an error message."""
        return Gate(
            int(self.a[gate_id]), int(self.b[gate_id]), OPS[self.ops[gate_id]]
        )

    def attempt(self) -> None:
        """Spend one split trial of the budget."""
        if self.budget <= 0:
            raise TopologyError(
                "topology recognition exceeded its backtracking budget; "
                "increase max_attempts"
            )
        self.budget -= 1

    def node(self, wires: np.ndarray, j: int, gates: np.ndarray) -> None:
        """Decide the height-``j`` node on ``wires`` or raise."""
        cut = np.searchsorted(gates, self.starts[j - 1])
        inner, final = gates[:cut], gates[cut:]
        if j == 1:
            # two single-wire components: a gate joins them, and the
            # first balanced orientation puts the smaller wire first;
            # without one the first puts the larger wire first
            self.attempt()
            low, high = sorted(wires.tolist())
            self.leaves += (low, high) if final.size else (high, low)
            self.finals.append((0, final))
            return
        index = self.scratch
        roots = self.roots[j - 2][wires]
        tops = np.sort(wires[roots == wires])  # one root per component
        index[tops] = np.arange(tops.size, dtype=np.int64)
        comp = index[roots]
        index[wires] = comp
        ca, cb = index[self.a[final]], index[self.b[final]]
        joined = np.flatnonzero(ca == cb)
        if joined.size:
            g = self.gate(final[joined[0]])
            raise TopologyError(
                f"final-level gate {g} joins wires already connected below",
                level=j - 1,
                gate=g,
            )
        colouring = _two_colour(ca, cb, tops.size)
        if colouring is None:
            raise TopologyError(
                "final level induces an odd cycle; no valid split", level=j - 1
            )
        colour, group = colouring
        sizes = np.bincount(
            2 * group[comp] + colour[comp], minlength=2 * int(group.max() + 1)
        )
        # Sparse final levels can admit several balanced bipartitions, of
        # which only some are recursively valid -- backtrack over all of
        # them (bounded by the attempt budget).
        last_error: TopologyError | None = None
        tried = 0
        for orientation in _balanced_orientations(
            sizes.reshape(-1, 2).tolist(), wires.size // 2
        ):
            tried += 1
            self.attempt()
            side = (colour ^ np.take(orientation, group))[comp]
            try:
                self.children(wires, side, inner, j)
            except TopologyError as exc:
                last_error = exc
                continue
            self.finals.append((j - 1, final))
            return
        if tried == 0:
            raise TopologyError(
                "no balanced bipartition exists at this level", level=j - 1
            )
        assert last_error is not None
        raise last_error

    def children(
        self, wires: np.ndarray, side: np.ndarray, inner: np.ndarray, j: int
    ) -> None:
        """Decide both children of a split, or raise and undo.

        Sides are whole components of the gates below the final level,
        so each such gate lies inside one child: no child can find a
        gate crossing its boundary, and the side of a gate's first end
        says which child's list it joins.
        """
        self.scratch[wires] = side
        low = self.scratch[self.a[inner]] == 0
        mark = len(self.leaves), len(self.finals)
        try:
            self.node(wires[side == 0], j - 1, inner[low])
            self.node(wires[side != 0], j - 1, inner[~low])
        except TopologyError:
            del self.leaves[mark[0] :], self.finals[mark[1] :]
            raise

    def tree(self) -> ReverseDeltaNetwork:
        """The decided network: each level's final gates in node order,
        turned so the child-0 end comes first."""
        leaves = np.array(self.leaves, dtype=np.int64)
        rank = np.empty(leaves.size, dtype=np.int64)
        rank[leaves] = np.arange(leaves.size, dtype=np.int64)
        return ReverseDeltaNetwork(
            leaves, [self.level(h, rank) for h in range(self.levels)]
        )

    def level(self, h: int, rank: np.ndarray) -> Level:
        """Level ``h`` of the decided network."""
        ids = np.concatenate([gates for lvl, gates in self.finals if lvl == h])
        level = Level.from_arrays(self.a[ids], self.b[ids], self.ops[ids])
        return level.reoriented((rank[self.a[ids]] >> h) & 1 == 1)


def _union_roots(parent: list[int], a: list[int], b: list[int]) -> np.ndarray:
    """Add one level's gates to the union-find ``parent``; every wire's root.

    The union rule is ``parent[find(a)] = find(b)``, in gate order.  The
    roots a component ends with depend only on that rule and the order
    of its own gates -- not on path compression, nor on unions of other
    components -- so the roots after levels ``0 .. t`` are those a node
    would get from a union-find over just its own gates.
    """
    for x, y in zip(a, b):
        root_x, root_y = _find(parent, x), _find(parent, y)
        if root_x != root_y:
            parent[root_x] = root_y
    roots = np.array(parent, dtype=np.int64)
    up = roots[roots]
    while not np.array_equal(up, roots):
        roots, up = up, up[up]
    return roots


def _find(parent: list[int], x: int) -> int:
    """The root of ``x``, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _two_colour(
    ca: np.ndarray, cb: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """2-colour ``count`` components so every edge ``(ca[i], cb[i])``
    joins two colours, or ``None`` if an edge closes an odd cycle.

    Returns each component's colour and group (connected part of the
    edge graph); groups are numbered by their smallest component, which
    gets colour 0 -- what a search from each group's smallest component
    gives.  It works on the bipartite double cover: node ``2c + s`` is
    component ``c`` in colour ``s``, and an edge joins ``2u + s`` to
    ``2v + 1 - s``.  Min-label propagation with shortcutting labels every
    cover node with the smallest node of its part, ``2m`` or ``2m + 1``
    for ``m`` the smallest component of its group; a component whose two
    cover nodes share a label lies on an odd cycle.
    """
    if not ca.size:
        return np.zeros(count, dtype=np.int64), np.arange(count, dtype=np.int64)
    if count == 2:  # every edge joins the two components
        return np.arange(2, dtype=np.int64), np.zeros(2, dtype=np.int64)
    ends = np.concatenate((2 * ca, 2 * ca + 1, 2 * cb, 2 * cb + 1))
    other = np.concatenate((2 * cb + 1, 2 * cb, 2 * ca + 1, 2 * ca))
    label = np.arange(2 * count, dtype=np.int64)
    while True:
        low = np.minimum(label[ends], label[other])
        nxt = label[label]
        np.minimum.at(nxt, ends, low)
        if np.array_equal(nxt, label):
            break
        label = nxt
    even, odd = label[0::2], label[1::2]
    if (even == odd).any():
        return None
    group = np.unique(even >> 1, return_inverse=True)[1]
    return even & 1, group.astype(np.int64)


def is_reverse_delta_topology(network: ComparatorNetwork) -> bool:
    """Decide Definition 3.4 for a pure-circuit network."""
    try:
        reconstruct_reverse_delta(network)
    except TopologyError:
        return False
    return True


def reversed_levels_network(network: ComparatorNetwork) -> ComparatorNetwork:
    """The mirror image: same levels in reverse order (pure circuits only)."""
    if not network.is_pure_circuit():
        raise TopologyError("level reversal requires a pure circuit network")
    return ComparatorNetwork(
        network.n, [s.level for s in reversed(network.stages)]
    )


def is_delta_topology(network: ComparatorNetwork) -> bool:
    """A delta network is the level-reversal of a reverse delta network."""
    return is_reverse_delta_topology(reversed_levels_network(network))


def is_butterfly_topology(network: ComparatorNetwork) -> bool:
    """Kruskal-Snir: the butterfly is the unique delta ∩ reverse delta.

    Decides whether the network's wiring is (a relabelling of) the
    butterfly by checking both memberships.
    """
    return is_reverse_delta_topology(network) and is_delta_topology(network)
