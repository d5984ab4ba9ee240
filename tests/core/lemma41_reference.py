"""Test-only oracle: Lemma 4.1 as a node-by-node post-order recursion.

This is the proof's induction written out literally over
:class:`~repro.networks.delta.ReverseDeltaNetwork` nodes and
:class:`~repro.core.alphabet.Symbol` objects -- the form
:func:`repro.core.adversary.run_lemma41` had before it became a
height-by-height array sweep.  It is kept only as the reference the
sweep is compared against (``test_lemma41_differential.py``); nothing in
``src/`` imports it.  It returns its own records, with the attribute
names of :class:`~repro.core.adversary.Lemma41Result` and its trace.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.adversary import SHIFT_STRATEGIES, NodeRecord, ShiftStrategy, t_sets
from repro.core.alphabet import M, Symbol, X
from repro.core.pattern import Pattern
from repro.core.propagate import SymbolicState
from repro.errors import GuaranteeError, PatternError, PropagationError
from repro.networks.delta import ReverseDeltaNetwork
from repro.networks.gates import Op

__all__ = ["reference_lemma41"]


@dataclass
class ReferenceTrace:
    """The recursion's node records, in post-order."""

    nodes: list[NodeRecord] = field(default_factory=list)


@dataclass
class ReferenceResult:
    """The recursion's outcome, named as ``Lemma41Result`` names it."""

    pattern: Pattern
    sets: dict[int, frozenset[int]]
    t: int
    k: int
    levels: int
    state: SymbolicState
    a_size: int
    b_size: int
    trace: ReferenceTrace


def reference_lemma41(
    rdn: ReverseDeltaNetwork,
    pattern: Pattern,
    k: int,
    *,
    shift_strategy: str | ShiftStrategy = "argmin",
    rng: np.random.Generator | None = None,
) -> ReferenceResult:
    """Lemma 4.1 by post-order recursion; same contract as ``run_lemma41``."""
    if k < 1:
        raise PatternError(f"k must be positive, got {k}")
    n = pattern.n
    if set(rdn.wires) != set(range(n)):
        raise PatternError(
            "the block must cover the pattern's wires 0..n-1 exactly"
        )
    pattern.validate_sml()
    strategy: ShiftStrategy = (
        SHIFT_STRATEGIES[shift_strategy]
        if isinstance(shift_strategy, str)
        else shift_strategy
    )
    if rng is None and strategy is SHIFT_STRATEGIES["random"]:
        raise PatternError(
            "shift_strategy='random' draws from rng; pass a seed-derived "
            "np.random.Generator (there is no implicit default stream)"
        )
    k2 = k * k

    a_set = pattern.m_set(0)
    # Global mutable state.  Children own disjoint positions, so one array
    # per role suffices for the whole recursion.
    assign: list[Symbol] = list(pattern.symbols)  # refined input pattern
    sym: list[Symbol] = list(pattern.symbols)  # symbol at each position
    tok: dict[int, int] = {w: w for w in a_set}  # position -> input wire
    trace = ReferenceTrace()
    fresh_x = [0]  # next fresh second index for demotion symbols

    def recurse(node: ReverseDeltaNetwork) -> dict[int, set[int]]:
        if node.is_leaf:
            w = node.wires[0]
            return {0: {w}} if assign[w] is M(0) else {}
        sets0 = recurse(node.child0)
        sets1 = recurse(node.child1)

        # --- collision scan over the final level ------------------------
        collisions: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
        n_collisions = 0
        for g in node.final:
            if not g.op.is_comparator:
                continue
            wa = tok.get(g.a)
            wb = tok.get(g.b)
            if wa is None or wb is None:
                continue
            sa, sb = sym[g.a], sym[g.b]
            assert sa.is_medium and sb.is_medium, "tracked token lost its symbol"
            collisions[(sa.i, sb.i)].append((wa, g.a))
            n_collisions += 1

        # --- choose the shift i_0 ---------------------------------------
        losses = [0] * k2
        for (i, j), entries in collisions.items():
            s = i - j
            if 0 <= s < k2:
                losses[s] += len(entries)
        i0 = strategy(losses, k, rng)
        if not 0 <= i0 < k2:
            raise PatternError(f"shift strategy returned {i0} outside [0, {k2})")

        # --- demote colliding child-0 wires (refinement step 2) -----------
        j0 = fresh_x[0]
        fresh_x[0] += 1
        demoted = 0
        for (i, j), entries in collisions.items():
            if i - j != i0:
                continue
            for wire, pos in entries:
                new_sym = X(i, j0)
                assign[wire] = new_sym
                sym[pos] = new_sym
                del tok[pos]
                demoted += 1
            if i in sets0:
                sets0[i] -= {wire for wire, _ in entries}
                if not sets0[i]:
                    del sets0[i]

        # --- shift child-1 band symbols up by i_0 (step 2') ---------------
        if i0:
            for w in node.child1.wires:
                if assign[w].is_medium or assign[w].is_x:
                    assign[w] = assign[w].shifted(i0)
                s = sym[w]
                if s.is_medium or s.is_x:
                    sym[w] = s.shifted(i0)

        # --- merge the set collections -----------------------------------
        merged: dict[int, set[int]] = sets0
        for j, s in sets1.items():
            idx = j + i0
            if idx in merged:
                merged[idx] |= s
            else:
                merged[idx] = s

        # --- run the final level on the symbolic state -------------------
        for g in node.final:
            apply_gate(g)

        trace.nodes.append(
            NodeRecord(
                height=node.levels,
                collisions=n_collisions,
                chosen_shift=i0,
                demoted=demoted,
                elements_after=sum(len(s) for s in merged.values()),
            )
        )
        return merged

    def apply_gate(g) -> None:
        a, b = g.a, g.b
        if g.op is Op.NOP:
            return

        def swap() -> None:
            sym[a], sym[b] = sym[b], sym[a]
            oa = tok.pop(a, None)
            ob = tok.pop(b, None)
            if oa is not None:
                tok[b] = oa
            if ob is not None:
                tok[a] = ob

        if g.op is Op.SWAP:
            swap()
            return
        sa, sb = sym[a], sym[b]
        if sa is sb:
            if a in tok or b in tok:
                raise PropagationError(
                    "two equal-symbol tokens met at the final level after "
                    "demotion; this indicates a bug in the recombination"
                )
            return
        if (sa < sb) != (g.op is Op.PLUS):
            swap()

    sets = recurse(rdn)
    result_sets = {i: frozenset(s) for i, s in sets.items() if s}
    b_size = sum(len(s) for s in result_sets.values())
    levels = rdn.levels
    t = t_sets(levels, k)
    assert all(0 <= i < t for i in result_sets), "set index outside t(l)"
    result = ReferenceResult(
        pattern=Pattern(assign),
        sets=result_sets,
        t=t,
        k=k,
        levels=levels,
        state=SymbolicState(symbols=sym, origin=tok),
        a_size=len(a_set),
        b_size=b_size,
        trace=trace,
    )
    guarantee = len(a_set) * (1.0 - levels / k2)
    if strategy is SHIFT_STRATEGIES["argmin"] and b_size < guarantee - 1e-9:
        raise GuaranteeError(
            f"Lemma 4.1 guarantee violated: |B|={b_size} < "
            f"{guarantee} = |A|(1 - l/k^2)"
        )
    return result
