"""Test-only oracle: the reverse delta builders as node-composing recursions.

These are :func:`repro.networks.builders.rdn_from_bit_order` and
:func:`repro.networks.builders.random_reverse_delta` as they were when a
:class:`~repro.networks.delta.ReverseDeltaNetwork` stored its Definition
3.4 tree: one :meth:`~repro.networks.delta.ReverseDeltaNetwork.leaf` per
wire and one :meth:`~repro.networks.delta.ReverseDeltaNetwork.node` per
internal node, built by the recursion itself, with a
:class:`~repro.networks.gates.Gate` and scalar draws per pair.  The
builders now fill the leaf order and per-height level arrays directly
(one bulk draw per node); ``test_rdn_form.py`` checks they give the same
network, make the same chooser calls and leave the generator in the same
state.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._util import ilog2, require_power_of_two
from repro.errors import TopologyError, WireError
from repro.networks.builders import OpChooser
from repro.networks.delta import ReverseDeltaNetwork
from repro.networks.gates import Gate, Op

__all__ = ["reference_rdn_from_bit_order", "reference_random_reverse_delta"]


def reference_rdn_from_bit_order(
    n: int,
    bit_order: Sequence[int],
    op_chooser: OpChooser,
    wires: Sequence[int] | None = None,
) -> ReverseDeltaNetwork:
    """The recursion: split by ``bit_order[depth]``, children first."""
    d = ilog2(require_power_of_two(n, "network size"))
    if sorted(bit_order) != list(range(d)):
        raise TopologyError(
            f"bit_order must be a permutation of range({d}), got {bit_order!r}"
        )
    labels = list(range(n)) if wires is None else list(wires)
    if len(labels) != n or len(set(labels)) != n:
        raise WireError("wires must be n distinct labels")

    def build(indices: list[int], depth: int) -> ReverseDeltaNetwork:
        if len(indices) == 1:
            return ReverseDeltaNetwork.leaf(labels[indices[0]])
        bit = bit_order[depth]
        mask = 1 << bit
        lows = [i for i in indices if not i & mask]
        highs = [i for i in indices if i & mask]
        c0 = build(lows, depth + 1)
        c1 = build(highs, depth + 1)
        height = d - depth
        final = []
        for i in lows:
            op = op_chooser(height, bit, labels[i])
            if op is not None:
                final.append(Gate(labels[i], labels[i | mask], op))
        return ReverseDeltaNetwork.node(c0, c1, tuple(final))

    return build(list(range(n)), 0)


def reference_random_reverse_delta(
    n: int,
    rng: np.random.Generator,
    *,
    p_gate: float = 1.0,
    p_minus: float = 0.5,
    p_exchange: float = 0.0,
    shuffle_pairing: bool = True,
) -> ReverseDeltaNetwork:
    """The recursion: shuffle the split on the way down, pair and draw
    the gates on the way up."""
    require_power_of_two(n, "network size")

    def build(wires: list[int]) -> ReverseDeltaNetwork:
        if len(wires) == 1:
            return ReverseDeltaNetwork.leaf(int(wires[0]))
        half = len(wires) // 2
        wires = [int(w) for w in wires]
        if shuffle_pairing:
            rng.shuffle(wires)
        lows, highs = wires[:half], wires[half:]
        c0 = build(sorted(lows))
        c1 = build(sorted(highs))
        if shuffle_pairing:
            lows = list(rng.permutation(lows))
            highs = list(rng.permutation(highs))
        final = []
        for a, b in zip(lows, highs):
            if rng.random() >= p_gate:
                continue
            if rng.random() < p_exchange:
                op = Op.SWAP
            elif rng.random() < p_minus:
                op = Op.MINUS
            else:
                op = Op.PLUS
            final.append(Gate(int(a), int(b), op))
        return ReverseDeltaNetwork.node(c0, c1, tuple(final))

    return build(list(range(n)))
