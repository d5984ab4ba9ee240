"""Adaptive network construction: the builder-vs-adversary duel (E9).

Section 5 notes the lower bound survives *adaptive* networks: the
labelling of level ``i`` may depend on all earlier comparison outcomes,
because the proof lets the adversary answer any labelling level by
level.  This module makes the duel concrete.  An adaptive **builder**
constructs each reverse delta block node by node *while watching the
adversary's bookkeeping* (token positions and set indices at the child
outputs), choosing the final-level pairing to hurt the adversary as much
as possible.

Builder strategies
------------------
``aligned``
    pair equal-index medium tokens (all collisions land on shift 0 --
    provably harmless: the adversary picks a different shift and loses
    nothing);
``random``
    uniform random pairing of the child outputs;
``spread``
    greedy diagonal balancing: pair tokens so collision shifts load all
    ``k^2`` diagonals as evenly as possible, forcing the adversary's
    argmin to pay about ``collisions / k^2`` per node -- the worst the
    averaging argument allows.

The co-simulation mirrors :func:`repro.core.adversary.run_lemma41`
exactly (same demotion, shift and merge rules); after building, the
caller re-runs the real ``run_lemma41`` on the finished block, and the
duel asserts both agree -- the mirror can steer construction but the
reported numbers always come from the reference implementation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.alphabet import Symbol, X
from ..core.iterate import run_adversary
from ..core.pattern import Pattern, all_medium_pattern
from ..errors import PatternError
from ..networks.delta import IteratedReverseDeltaNetwork, ReverseDeltaNetwork
from ..networks.gates import Gate, Op

__all__ = ["BUILDER_STRATEGIES", "build_adaptive_block", "DuelResult", "run_duel"]

#: A pairing strategy: given the two children's output descriptors --
#: lists of ``(position, set_index_or_None)`` -- and ``k``, return a list
#: of ``(pos0, pos1)`` pairs to place comparators on.
PairingStrategy = Callable[
    [list[tuple[int, int | None]], list[tuple[int, int | None]], int,
     np.random.Generator],
    list[tuple[int, int]],
]


def _pair_rest(
    used0: set[int], used1: set[int],
    side0: list[tuple[int, int | None]], side1: list[tuple[int, int | None]],
    pairs: list[tuple[int, int]],
) -> list[tuple[int, int]]:
    rest0 = [p for p, _ in side0 if p not in used0]
    rest1 = [p for p, _ in side1 if p not in used1]
    return pairs + list(zip(rest0, rest1))


def _strategy_aligned(side0, side1, k, rng):
    by_index1: dict[int, list[int]] = defaultdict(list)
    for p, idx in side1:
        if idx is not None:
            by_index1[idx].append(p)
    pairs: list[tuple[int, int]] = []
    used0: set[int] = set()
    used1: set[int] = set()
    for p, idx in side0:
        if idx is not None and by_index1.get(idx):
            q = by_index1[idx].pop()
            pairs.append((p, q))
            used0.add(p)
            used1.add(q)
    return _pair_rest(used0, used1, side0, side1, pairs)


def _strategy_random(side0, side1, k, rng):
    pos0 = [p for p, _ in side0]
    pos1 = [int(x) for x in rng.permutation([p for p, _ in side1])]
    return list(zip(pos0, pos1))


def _strategy_spread(side0, side1, k, rng):
    k2 = k * k
    by_index1: dict[int, list[int]] = defaultdict(list)
    for p, idx in side1:
        if idx is not None:
            by_index1[idx].append(p)
    loads = [0] * k2
    pairs: list[tuple[int, int]] = []
    used0: set[int] = set()
    used1: set[int] = set()
    tokens0 = [(p, idx) for p, idx in side0 if idx is not None]
    order = rng.permutation(len(tokens0))
    for oi in order:
        p, i = tokens0[int(oi)]
        best_s, best_load = None, None
        for s in range(k2):
            j = i - s
            if j >= 0 and by_index1.get(j):
                if best_load is None or loads[s] < best_load:
                    best_s, best_load = s, loads[s]
        if best_s is None:
            continue
        q = by_index1[i - best_s].pop()
        loads[best_s] += 1
        pairs.append((p, q))
        used0.add(p)
        used1.add(q)
    return _pair_rest(used0, used1, side0, side1, pairs)


BUILDER_STRATEGIES: dict[str, PairingStrategy] = {
    "aligned": _strategy_aligned,
    "random": _strategy_random,
    "spread": _strategy_spread,
}


def build_adaptive_block(
    pattern: Pattern,
    k: int,
    strategy: str | PairingStrategy,
    rng: np.random.Generator,
) -> ReverseDeltaNetwork:
    """Build one full reverse delta block adaptively against the adversary.

    Mirrors the Lemma 4.1 bookkeeping (argmin shifts) to expose the
    adversary's token indices to the pairing strategy at every node.  The
    wire partition is by contiguous halves; only the pairings (and hence
    the collision structure) are adaptive; every placed gate is a ``+``
    comparator (direction is irrelevant to collisions).
    """
    n = pattern.n
    pattern.validate_sml()
    pairing: PairingStrategy = (
        BUILDER_STRATEGIES[strategy] if isinstance(strategy, str) else strategy
    )
    k2 = k * k
    assign: list[Symbol] = list(pattern.symbols)
    sym: list[Symbol] = list(pattern.symbols)
    tok: dict[int, int] = {w: w for w in pattern.m_set(0)}
    levels: list[list[Gate]] = [[] for _ in range(n.bit_length() - 1)]
    fresh_x = [0]

    def recurse(lo: int, hi: int) -> None:
        if hi - lo == 1:
            return
        mid = (lo + hi) // 2
        recurse(lo, mid)
        recurse(mid, hi)
        side0 = [(p, sym[p].i if p in tok else None) for p in range(lo, mid)]
        side1 = [(p, sym[p].i if p in tok else None) for p in range(mid, hi)]
        final = [Gate(a, b, Op.PLUS) for a, b in pairing(side0, side1, k, rng)]
        levels[(hi - lo).bit_length() - 2].extend(final)
        # --- mirror of the run_lemma41 node step -------------------------
        collisions: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
        for g in final:
            wa, wb = tok.get(g.a), tok.get(g.b)
            if wa is None or wb is None:
                continue
            collisions[(sym[g.a].i, sym[g.b].i)].append((wa, g.a))
        losses = [0] * k2
        for (i, j), entries in collisions.items():
            s = i - j
            if 0 <= s < k2:
                losses[s] += len(entries)
        i0 = int(np.argmin(losses))
        j0 = fresh_x[0]
        fresh_x[0] += 1
        for (i, j), entries in collisions.items():
            if i - j != i0:
                continue
            for wire, pos in entries:
                new_sym = X(i, j0)
                assign[wire] = new_sym
                sym[pos] = new_sym
                del tok[pos]
        if i0:
            for w in range(mid, hi):
                if assign[w].is_medium or assign[w].is_x:
                    assign[w] = assign[w].shifted(i0)
                s = sym[w]
                if s.is_medium or s.is_x:
                    sym[w] = s.shifted(i0)
        for g in final:
            sa, sb = sym[g.a], sym[g.b]
            if sa is sb:
                continue
            if not sa < sb:
                sym[g.a], sym[g.b] = sb, sa
                oa, ob = tok.pop(g.a, None), tok.pop(g.b, None)
                if oa is not None:
                    tok[g.b] = oa
                if ob is not None:
                    tok[g.a] = ob

    recurse(0, n)
    del recurse  # it refers to itself; a kept cycle would hold the gates
    return ReverseDeltaNetwork(range(n), levels)


@dataclass
class DuelResult:
    """Outcome of an adaptive duel over up to ``max_blocks`` blocks."""

    n: int
    k: int
    strategy: str
    survivor_sizes: list[int] = field(default_factory=list)
    blocks_survived: int = 0
    network: IteratedReverseDeltaNetwork | None = None


def run_duel(
    n: int,
    max_blocks: int,
    strategy: str,
    *,
    k: int | None = None,
    seed: int = 0,
) -> DuelResult:
    """Alternate adaptive building and adversary play for up to ``max_blocks``.

    Each block is built against the adversary's current three-symbol
    pattern, then the reference adversary processes it; the loop stops
    when the survivor drops below two wires.  The assembled network is
    returned so the caller can re-run the whole adversary (or extract a
    fooling pair) as an end-to-end consistency check.
    """
    import math

    if k is None:
        k = max(1, round(math.log2(n)))
    rng = np.random.default_rng(seed)
    pattern = all_medium_pattern(n)
    blocks: list = []
    result = DuelResult(n=n, k=k, strategy=strategy)
    for b in range(max_blocks):
        block = build_adaptive_block(pattern, k, strategy, rng)
        blocks.append((None, block))
        one = IteratedReverseDeltaNetwork(n, [(None, block)])
        play = run_adversary(
            one, k=k, initial_pattern=pattern, rng=np.random.default_rng(seed)
        )
        survivor = len(play.special_set)
        result.survivor_sizes.append(survivor)
        if survivor < 2:
            break
        result.blocks_survived = b + 1
        if play.final_cut is None:  # pragma: no cover - defensive
            raise PatternError("adversary returned no cut state")
        pattern = Pattern(play.final_cut.symbols)
    result.network = IteratedReverseDeltaNetwork(n, blocks)
    return result
