"""Symbolic propagation of patterns through networks (Definition 3.5).

A comparator network maps an input pattern to an output pattern: when two
symbols meet at a comparator, the :math:`<_P`-larger one leaves on the
max-output and the smaller on the min-output; equal symbols leave a copy
of themselves on both outputs, so the output *pattern* is always
well-defined even though the routing of the individual values is not.

For the lower-bound machinery we additionally track *tokens*: the
positions of designated input wires.  Token paths are deterministic
exactly when a tracked wire never meets an equal symbol at a comparator
(the content of Lemma 3.2: sets that are noncolliding so far have
deterministic paths); if that precondition is violated,
:class:`~repro.errors.PropagationError` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..errors import PropagationError
from ..networks.gates import Gate, Op
from ..networks.network import ComparatorNetwork
from .alphabet import Symbol
from .pattern import Pattern

__all__ = ["SymbolicState", "propagate", "propagate_with_tokens", "apply_gate_symbolic"]


@dataclass
class SymbolicState:
    """Mutable symbolic machine state during propagation.

    Attributes
    ----------
    symbols:
        ``symbols[pos]`` is the pattern symbol currently at position
        ``pos``.
    origin:
        For tracked positions, ``origin[pos]`` is the input wire whose
        token currently sits at ``pos``.
    """

    symbols: list[Symbol]
    origin: dict[int, int] = field(default_factory=dict)

    @property
    def n(self) -> int:
        """Number of positions."""
        return len(self.symbols)

    def token_positions(self) -> dict[int, int]:
        """Inverse map: input wire -> current position."""
        return {wire: pos for pos, wire in self.origin.items()}

    def to_pattern(self) -> Pattern:
        """The current output pattern."""
        return Pattern(self.symbols)

    def apply_permutation(self, mapping: np.ndarray) -> None:
        """Move all symbols and tokens by a position permutation.

        One vectorised scatter for the symbols; the (sparse) token map
        moves by a single fancy-indexed gather over its positions.
        """
        dest = np.asarray(mapping, dtype=np.int64)
        # Deliberate object array: it scatters Python symbol objects in
        # one vectorised step and never feeds certificate numerics.
        scattered = np.empty(self.n, dtype=object)  # sanitize: ok[shape/object-dtype-array]
        scattered[dest] = self.symbols
        self.symbols = scattered.tolist()
        if self.origin:
            held = np.fromiter(
                self.origin.keys(), dtype=np.int64, count=len(self.origin)
            )
            self.origin = dict(
                zip(dest[held].tolist(), self.origin.values())
            )


def apply_gate_symbolic(state: SymbolicState, gate: Gate) -> None:
    """Apply one gate to a symbolic state, updating symbols and tokens.

    Raises :class:`PropagationError` if a tracked token meets an equal
    symbol at a comparator -- the routing would be ambiguous, meaning the
    caller's noncollision precondition does not hold.
    """
    a, b = gate.a, gate.b
    sa, sb = state.symbols[a], state.symbols[b]
    if gate.op is Op.NOP:
        return
    if gate.op is not Op.SWAP:  # a comparator ('+' or '-')
        if sa is sb:
            if a in state.origin or b in state.origin:
                raise PropagationError(
                    f"tracked token meets an equal symbol {sa!r} at comparator "
                    f"({a}, {b}); noncollision precondition violated"
                )
            return  # both outputs carry the same symbol; no tracked motion
        if (sa < sb) == (gate.op is Op.PLUS):
            return  # the min already leaves where the gate puts it
    state.symbols[a], state.symbols[b] = sb, sa
    oa, ob = state.origin.pop(a, None), state.origin.pop(b, None)
    if oa is not None:
        state.origin[b] = oa
    if ob is not None:
        state.origin[a] = ob


def propagate(network: ComparatorNetwork, pattern: Pattern) -> Pattern:
    """The output pattern :math:`\\Lambda(p)` of Definition 3.5."""
    state = propagate_with_tokens(network, pattern, tracked=())
    return state.to_pattern()


def propagate_with_tokens(
    network: ComparatorNetwork,
    pattern: Pattern,
    tracked: Iterable[int],
) -> SymbolicState:
    """Propagate a pattern, tracking the positions of selected input wires.

    Parameters
    ----------
    network:
        The network to propagate through.
    pattern:
        Input pattern on the network's wires.
    tracked:
        Input wires whose token positions should be followed.  Their paths
        are deterministic (and the call succeeds) iff no tracked value
        ever meets an equal symbol at a comparator.

    Returns
    -------
    SymbolicState
        Final symbols per position and token origins.
    """
    if pattern.n != network.n:
        raise PropagationError(
            f"pattern has {pattern.n} wires, network has {network.n}"
        )
    state = SymbolicState(
        symbols=list(pattern.symbols),
        origin={int(w): int(w) for w in tracked},
    )
    for stage in network.stages:
        if stage.perm is not None:
            state.apply_permutation(stage.perm.mapping)
        for gate in stage.level:
            apply_gate_symbolic(state, gate)
    return state
