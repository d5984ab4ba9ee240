"""The executable Theorem 4.1: iterating Lemma 4.1 over consecutive blocks.

Theorem 4.1 (paper, Section 4).  For a ``(d, l)``-iterated reverse delta
network on ``n >= 8`` wires there is a pattern ``p`` using only
:math:`\\mathcal{S}_0, \\mathcal{M}_0, \\mathcal{L}_0` whose
:math:`[\\mathcal{M}_0]`-set ``D`` is noncolliding in the whole network
and has :math:`|D| \\ge n / \\lg^{4d} n` (for ``l = k = lg n``).

The constructive loop implemented here, per block:

1. move the symbolic cut state through the inter-block permutation;
2. run :func:`~repro.core.adversary.run_lemma41` on the block with the
   current three-symbol pattern, getting refined sets
   :math:`M_0, \\ldots, M_{t(l)-1}`;
3. pick the best surviving set :math:`M_{i_0}` (the paper averages, we
   take the largest -- selection is pluggable for the E3 ablation);
4. pull the block-input refinement back to the network's *input* pattern
   through the token map (Lemma 3.3: medium tokens correspond one-to-one
   across a noncolliding prefix);
5. apply the :math:`\\rho_{i_0}` renaming of Lemma 3.4, collapsing the
   pattern back to three symbols with the survivors as the new
   :math:`[\\mathcal{M}_0]`-set.

It runs on Lemma 4.1's int64 symbol codes (see
:mod:`repro.core.adversary`): steps 1, 4 and 5 are array steps, and the
final pattern and cut are decoded once, when the loop ends.

The loop records, per block, the measured survivor size next to the
proof's guarantee -- the E3 experiment is literally this trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import PatternError
from ..networks.delta import IteratedReverseDeltaNetwork
from ..obs import events as obs_events
from ..obs.registry import get_registry
from ..obs.trace import get_tracer
from .adversary import _decode, _rho, _sml_codes, run_lemma41
from .pattern import Pattern, all_medium_pattern
from .propagate import SymbolicState

__all__ = [
    "SetChoice",
    "SET_CHOICES",
    "BlockRecord",
    "AdversaryRun",
    "theorem41_guarantee",
    "run_adversary",
]

#: Chooses which special set survives a block: called with the sparse
#: ``sets`` map and an RNG, returns the chosen index.
SetChoice = Callable[[dict[int, frozenset[int]], "np.random.Generator | None"], int]


def _choose_largest(
    sets: dict[int, frozenset[int]], rng: np.random.Generator | None
) -> int:
    return max(sets, key=lambda i: (len(sets[i]), -i))


def _choose_random(
    sets: dict[int, frozenset[int]], rng: np.random.Generator | None
) -> int:
    if rng is None:
        raise PatternError(
            "set_choice='random' needs an explicit seed-derived rng"
        )
    keys = sorted(sets)
    return int(keys[rng.integers(0, len(keys))])


def _choose_first(
    sets: dict[int, frozenset[int]], rng: np.random.Generator | None
) -> int:
    return min(sets)


SET_CHOICES: dict[str, SetChoice] = {
    "largest": _choose_largest,
    "random": _choose_random,
    "first": _choose_first,
}


@dataclass(frozen=True)
class BlockRecord:
    """Measured adversary state after one block."""

    block_index: int
    entering_size: int
    union_size: int
    nonempty_sets: int
    chosen_index: int
    chosen_size: int
    collisions: int
    guarantee: float

    @property
    def retained_fraction(self) -> float:
        """``union_size / entering_size`` (Lemma 4.1, Property 4)."""
        return self.union_size / self.entering_size if self.entering_size else 1.0


@dataclass
class AdversaryRun:
    """Outcome of the Theorem 4.1 loop on a concrete network.

    ``pattern`` is the final three-symbol input pattern; ``special_set``
    is its :math:`[\\mathcal{M}_0]`-set ``D`` -- wires of the *network
    input* whose values are provably never compared.  ``survived`` is
    ``|D| >= 2``, the Corollary 4.1.1 threshold.
    """

    n: int
    k: int
    pattern: Pattern
    special_set: frozenset[int]
    records: list[BlockRecord] = field(default_factory=list)
    blocks_processed: int = 0
    aborted_early: bool = False
    #: Symbolic state at the output of the last processed block: renamed
    #: three-symbol pattern per position, plus ``position -> input wire``
    #: for the surviving medium tokens.  Lets callers chain adversary runs
    #: block by block (used by the E9 adaptive duel).
    final_cut: SymbolicState | None = None

    @property
    def survived(self) -> bool:
        """True iff the network is proved non-sorting (``|D| >= 2``)."""
        return len(self.special_set) >= 2

    def sizes(self) -> list[int]:
        """Survivor size after each processed block."""
        return [rec.chosen_size for rec in self.records]


def theorem41_guarantee(n: int, d: int) -> float:
    """The proof's floor :math:`n / \\lg^{4d} n` (``l = k = lg n``)."""
    if n < 2:
        raise PatternError(f"need n >= 2, got {n}")
    return n / (math.log2(n) ** (4 * d)) if d else float(n)


def run_adversary(
    network: IteratedReverseDeltaNetwork,
    *,
    k: int | None = None,
    initial_pattern: Pattern | None = None,
    set_choice: str | SetChoice = "largest",
    shift_strategy: str = "argmin",
    rng: np.random.Generator | None = None,
    stop_when_dead: bool = True,
) -> AdversaryRun:
    """Run the Theorem 4.1 adversary against an iterated RDN.

    Parameters
    ----------
    network:
        The (d, l)-iterated reverse delta network to attack.
    k:
        Lemma 4.1's parameter; default ``max(1, round(lg n))`` -- the
        paper's choice.
    initial_pattern:
        Starting pattern (only ``S0``/``M0``/``L0``); default all-medium,
        as in the theorem's base case.
    set_choice:
        Survivor selection per block (``"largest"``, ``"random"``,
        ``"first"``, or a callable) -- E3 ablation knob.
    shift_strategy:
        Forwarded to :func:`run_lemma41` (E2 ablation knob).
    rng:
        Seed-derived generator, required only by the stochastic knobs
        (``set_choice="random"``, ``shift_strategy="random"``).  There
        is deliberately no implicit default stream: an omitted rng on a
        stochastic path raises :class:`~repro.errors.PatternError`
        instead of silently pinning every caller to one sequence.
    stop_when_dead:
        Stop as soon as the survivor set drops below two wires; further
        blocks cannot revive a dead adversary.

    Returns
    -------
    AdversaryRun
        Final pattern + special set + per-block records.  The result is
        *checkable*: the special set's noncollision can be verified
        independently with
        :func:`repro.core.collision.noncolliding_certificate` or by
        traced evaluation, and a concrete fooling pair can be extracted
        with :func:`repro.core.fooling.extract_fooling_pair`.
    """
    n = network.n
    if k is None:
        k = max(1, round(math.log2(n)))
    chooser: SetChoice = (
        SET_CHOICES[set_choice] if isinstance(set_choice, str) else set_choice
    )
    if rng is None and chooser is _choose_random:
        raise PatternError(
            "set_choice='random' draws from rng; pass a seed-derived "
            "np.random.Generator (there is no implicit default stream)"
        )

    pattern = initial_pattern if initial_pattern is not None else all_medium_pattern(n)
    if pattern.n != n:
        raise PatternError(f"initial pattern has {pattern.n} wires, network {n}")
    pattern.validate_sml()

    # The input pattern per network wire, and the cut: the symbol at each
    # position at the current depth and the network-input wire of the
    # medium token there (-1 for none).  Every M0 of the cut has a token.
    inp = _sml_codes(pattern)
    cut = inp.copy()
    origin = np.where(inp == n, np.arange(n, dtype=np.int64), np.int64(-1))
    run = AdversaryRun(n=n, k=k, pattern=pattern, special_set=frozenset())
    dead = False

    tracer = get_tracer()
    with tracer.span(
        obs_events.SPAN_ADVERSARY, n=n, k=k, blocks=len(network.blocks)
    ) as adv_span:
        for bi, (perm, rdn) in enumerate(network.blocks):
            with tracer.span(obs_events.SPAN_BLOCK, block=bi) as block_span:
                if perm is not None:
                    moved = np.empty((2, n), dtype=np.int64)
                    moved[:, perm.mapping] = cut, origin
                    cut, origin = moved
                held = np.flatnonzero(origin >= 0)
                result = run_lemma41(
                    rdn,
                    Pattern(_decode(cut, n)),
                    k,
                    shift_strategy=shift_strategy,
                    rng=rng,
                )
                chosen = survivors = 0
                # with no set left every special element was demoted: the
                # adversary is dead
                dead = not result.sets
                if dead:
                    block_span.set(dead=True)
                else:
                    chosen = chooser(result.sets, rng)
                    survivors = len(result.sets[chosen])
                    # Lemma 3.3 pullback: the refined symbol at each block
                    # input position belongs to the network-input wire whose
                    # token sat there; then Lemma 3.4's rho_chosen collapses
                    # the input pattern and the block's outputs to three
                    # symbols, with the chosen set's tokens as the new M0.
                    pivot = (chosen + 1) * n
                    inp[origin[held]] = _rho(result.refined_codes[held], pivot, n)
                    out = result.output_codes
                    origin = np.where(out == pivot, origin[result.tokens], -1)
                    cut = _rho(out, pivot, n)
                    if tracer.enabled:
                        tracer.event(
                            obs_events.EV_RHO,
                            index=chosen,
                            medium_before=survivors,
                            medium_after=int(np.count_nonzero(inp == n)),
                        )
                run.records.append(
                    BlockRecord(
                        block_index=bi,
                        entering_size=held.size,
                        union_size=result.b_size,
                        nonempty_sets=len(result.sets),
                        chosen_index=chosen,
                        chosen_size=survivors,
                        collisions=result.trace.total_collisions,
                        guarantee=theorem41_guarantee(n, bi + 1)
                        if n >= 4
                        else 0.0,
                    )
                )
                get_registry().inc("core.blocks_refined")
                if tracer.enabled:
                    tracer.event(
                        obs_events.EV_SETS,
                        block=bi,
                        entering=held.size,
                        union=result.b_size,
                        survivor=survivors,
                        chosen=chosen,
                        sets=len(result.sets),
                        sizes=sorted(map(len, result.sets.values()), reverse=True),
                    )
                if dead or (stop_when_dead and survivors < 2):
                    break
        run.blocks_processed = len(run.records)
        run.aborted_early = run.blocks_processed < len(network.blocks)
        if not dead:
            run.special_set = frozenset(np.flatnonzero(inp == n).tolist())
        adv_span.set(
            survivor=len(run.special_set),
            blocks_processed=run.blocks_processed,
        )
    run.pattern = Pattern(_decode(inp, n))
    if run.records:
        held = np.flatnonzero(origin >= 0)
        run.final_cut = SymbolicState(
            symbols=_decode(cut, n),
            origin=dict(zip(held.tolist(), origin[held].tolist())),
        )
    return run
