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


from .._util import ilog2, is_power_of_two
from ..errors import TopologyError
from ..networks.delta import ReverseDeltaNetwork
from ..networks.gates import Gate
from ..networks.network import ComparatorNetwork

__all__ = [
    "reconstruct_reverse_delta",
    "is_reverse_delta_topology",
    "reversed_levels_network",
    "is_delta_topology",
    "is_butterfly_topology",
]


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


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
    some of which work recursively; the search backtracks across them,
    bounded by ``max_attempts`` total split trials (dense networks such
    as the butterfly have essentially unique splits and never backtrack).
    """
    n = network.n
    budget = [max_attempts]
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
    levels: list[tuple[Gate, ...]] = [s.level.gates for s in network.stages]

    def rec(wires: frozenset[int], j: int) -> tuple[list[int], list[list[Gate]]]:
        if j == 0:
            (w,) = wires
            return [w], []
        inner_edges: list[tuple[int, int]] = []
        for lvl in range(j - 1):
            for g in levels[lvl]:
                ina, inb = g.a in wires, g.b in wires
                if ina != inb:
                    raise TopologyError(
                        f"gate {g} at level {lvl} crosses a required subnetwork "
                        "boundary",
                        level=lvl,
                        gate=g,
                    )
                if ina:
                    inner_edges.append((g.a, g.b))
        final = [g for g in levels[j - 1] if g.a in wires or g.b in wires]
        for g in final:
            if not (g.a in wires and g.b in wires):
                raise TopologyError(
                    f"final-level gate {g} crosses the subnetwork boundary",
                    level=j - 1,
                    gate=g,
                )
        uf = _UnionFind(wires)
        for a, b in inner_edges:
            uf.union(a, b)
        comp_of = {w: uf.find(w) for w in wires}
        comps = sorted(set(comp_of.values()))
        comp_index = {c: i for i, c in enumerate(comps)}
        # 2-colour the component graph induced by the final level.
        adj: list[list[int]] = [[] for _ in comps]
        for g in final:
            ca, cb = comp_index[comp_of[g.a]], comp_index[comp_of[g.b]]
            if ca == cb:
                raise TopologyError(
                    f"final-level gate {g} joins wires already connected below",
                    level=j - 1,
                    gate=g,
                )
            adj[ca].append(cb)
            adj[cb].append(ca)
        colour: list[int | None] = [None] * len(comps)
        groups: list[list[int]] = []  # meta-components (lists of comp indices)
        for start in range(len(comps)):
            if colour[start] is not None:
                continue
            colour[start] = 0
            stack = [start]
            members = [start]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if colour[v] is None:
                        colour[v] = 1 - colour[u]  # type: ignore[operator]
                        stack.append(v)
                        members.append(v)
                    elif colour[v] == colour[u]:
                        raise TopologyError(
                            "final level induces an odd cycle; no valid split",
                            level=j - 1,
                        )
            groups.append(members)
        comp_sizes = [0] * len(comps)
        for w in wires:
            comp_sizes[comp_index[comp_of[w]]] += 1
        group_sizes = []
        for members in groups:
            s0 = sum(comp_sizes[c] for c in members if colour[c] == 0)
            s1 = sum(comp_sizes[c] for c in members if colour[c] == 1)
            group_sizes.append((s0, s1))
        # Sparse final levels can admit several balanced bipartitions, of
        # which only some are recursively valid -- backtrack over all of
        # them (bounded by the attempt budget).
        last_error: TopologyError | None = None
        tried = 0
        for orientation in _balanced_orientations(group_sizes, len(wires) // 2):
            tried += 1
            if budget[0] <= 0:
                raise TopologyError(
                    "topology recognition exceeded its backtracking budget; "
                    "increase max_attempts"
                )
            budget[0] -= 1
            side_of_comp = [0] * len(comps)
            for gi, members in enumerate(groups):
                for c in members:
                    side_of_comp[c] = colour[c] ^ orientation[gi]  # type: ignore[operator]
            w0 = frozenset(
                w for w in wires if side_of_comp[comp_index[comp_of[w]]] == 0
            )
            w1 = wires - w0
            try:
                leaves0, levels0 = rec(w0, j - 1)
                leaves1, levels1 = rec(w1, j - 1)
            except TopologyError as exc:
                last_error = exc
                continue
            oriented = [g if g.a in w0 else g.reversed() for g in final]
            below = [gates0 + gates1 for gates0, gates1 in zip(levels0, levels1)]
            return leaves0 + leaves1, below + [oriented]
        if tried == 0:
            raise TopologyError(
                "no balanced bipartition exists at this level", level=j - 1
            )
        assert last_error is not None
        raise last_error

    try:
        return ReverseDeltaNetwork(*rec(frozenset(range(n)), log_n))
    finally:
        del rec  # it refers to itself; a kept cycle would hold the gates


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
