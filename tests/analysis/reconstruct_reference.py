"""Test-only oracle: Definition 3.4 recognition as a per-node rescan.

This is :func:`repro.analysis.properties.reconstruct_reverse_delta` as
it was when every tree node rescanned every gate of every lower level
and ran its own union-find over :class:`~repro.networks.gates.Gate`
objects (quadratic in ``n``).  The source version splits the parent's
gate lists instead and reads one union pass over the level arrays;
``test_reconstruct_differential.py`` checks that both return the same
network or raise the same :class:`~repro.errors.TopologyError`.  Nothing
in ``src/`` imports this module.
"""

from __future__ import annotations

from repro._util import ilog2, is_power_of_two
from repro.analysis.properties import _balanced_orientations
from repro.errors import TopologyError
from repro.networks.delta import ReverseDeltaNetwork
from repro.networks.gates import Gate
from repro.networks.network import ComparatorNetwork

__all__ = ["reference_reconstruct_reverse_delta"]


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


def reference_reconstruct_reverse_delta(
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
    budget = [max_attempts + n - 1]
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
