"""Constructors for reverse delta networks and iterated compositions.

The generic builder :func:`rdn_from_bit_order` constructs a reverse delta
network whose recursive split follows a chosen ordering of the index bits:

* ``bit_order[0]`` is the bit the *root's* final level pairs across (the
  last level executed);
* ``bit_order[r]`` is the bit used by nodes at tree depth ``r``.

Two special cases matter for the paper:

* the **canonical butterfly** uses ``bit_order = [d-1, ..., 1, 0]``
  (contiguous halves; stride doubles level by level); and
* the **shuffle split** uses ``bit_order = [0, 1, ..., d-1]``, which is
  exactly the structure of a depth-``d`` shuffle-based network: the first
  executed level compares registers differing in bit ``d-1`` and the last
  compares bit ``0``, so bit 0 is untouched until the final level and the
  even/odd wires form the two subnetworks of Definition 3.4.

Both are reverse delta networks; they differ only by the bit-reversal
relabelling of the wires.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .._util import ilog2, require_power_of_two
from ..errors import TopologyError, WireError
from .delta import IteratedReverseDeltaNetwork, ReverseDeltaNetwork
from .gates import Gate, Op
from .permutations import Permutation, random_permutation

__all__ = [
    "OpChooser",
    "rdn_from_bit_order",
    "butterfly_rdn",
    "shuffle_split_rdn",
    "random_reverse_delta",
    "random_iterated_rdn",
    "bitonic_phase_rdn",
    "bitonic_iterated_rdn",
    "truncated_rdn",
    "empty_rdn",
    "constant_op_chooser",
]

#: Decides the gate for a final-level pair.  Called with ``(height, bit,
#: low_wire)`` where ``height`` is the tree height of the node (root =
#: total levels), ``bit`` the index bit the pair differs in, and
#: ``low_wire`` the pair's wire with that bit clear.  Return ``None`` for
#: no gate.
OpChooser = Callable[[int, int, int], "Op | None"]


def constant_op_chooser(op: Op | str | None) -> OpChooser:
    """An :data:`OpChooser` returning the same op for every pair."""
    resolved = None if op is None else (op if isinstance(op, Op) else Op.from_str(op))

    def choose(height: int, bit: int, low_wire: int) -> Op | None:
        return resolved

    return choose


def rdn_from_bit_order(
    n: int,
    bit_order: Sequence[int],
    op_chooser: OpChooser,
    wires: Sequence[int] | None = None,
) -> ReverseDeltaNetwork:
    """Build a reverse delta network splitting by the given bit order.

    Parameters
    ----------
    n:
        Number of wires, a power of two ``2**d``.
    bit_order:
        A permutation of ``range(d)``; ``bit_order[r]`` is the bit paired
        at tree depth ``r`` (so ``bit_order[0]`` belongs to the root and is
        executed *last*).
    op_chooser:
        Gate chooser; see :data:`OpChooser`.
    wires:
        Optional explicit global wire labels (default ``range(n)``); the
        bit structure refers to positions within this sequence.
    """
    d = ilog2(require_power_of_two(n, "network size"))
    if sorted(bit_order) != list(range(d)):
        raise TopologyError(
            f"bit_order must be a permutation of range({d}), got {bit_order!r}"
        )
    labels = list(range(n)) if wires is None else list(wires)
    if len(labels) != n or len(set(labels)) != n:
        raise WireError("wires must be n distinct labels")
    leaves: list[int] = []
    levels: list[list[Gate]] = [[] for _ in range(d)]

    def build(indices: list[int], depth: int) -> None:
        if len(indices) == 1:
            leaves.append(labels[indices[0]])
            return
        bit = bit_order[depth]
        mask = 1 << bit
        lows = [i for i in indices if not i & mask]
        highs = [i for i in indices if i & mask]
        build(lows, depth + 1)
        build(highs, depth + 1)
        height = d - depth
        for i in lows:
            op = op_chooser(height, bit, labels[i])
            if op is not None:
                levels[height - 1].append(Gate(labels[i], labels[i | mask], op))

    build(list(range(n)), 0)
    del build  # it refers to itself; a kept cycle would hold the gates
    return ReverseDeltaNetwork(leaves, levels)


def butterfly_rdn(
    n: int, op_chooser: OpChooser | Op | str = Op.PLUS
) -> ReverseDeltaNetwork:
    """The canonical butterfly: contiguous halves, stride ``1, 2, ..., n/2``.

    With a constant ``+`` chooser this is the classical "ascending
    comparator butterfly"; pass an :data:`OpChooser` for per-pair control.
    """
    if not callable(op_chooser):
        op_chooser = constant_op_chooser(op_chooser)
    d = ilog2(require_power_of_two(n, "butterfly size"))
    return rdn_from_bit_order(n, list(range(d - 1, -1, -1)), op_chooser)


def shuffle_split_rdn(
    n: int, op_chooser: OpChooser | Op | str = Op.PLUS
) -> ReverseDeltaNetwork:
    """The reverse delta structure of a depth-``d`` shuffle-based block.

    Executed level ``t`` (0-based) pairs registers differing in bit
    ``d - 1 - t``; the recursive split is by the *low* bit.  This is the
    bit-reversal relabelling of :func:`butterfly_rdn`.
    """
    if not callable(op_chooser):
        op_chooser = constant_op_chooser(op_chooser)
    d = ilog2(require_power_of_two(n, "network size"))
    return rdn_from_bit_order(n, list(range(d)), op_chooser)


def empty_rdn(n: int) -> ReverseDeltaNetwork:
    """An ``lg n``-level reverse delta network with no gates at all."""
    return butterfly_rdn(n, constant_op_chooser(None))


def truncated_rdn(
    rdn: ReverseDeltaNetwork, populated_levels: int
) -> ReverseDeltaNetwork:
    """Keep gates only in the first ``populated_levels`` executed levels.

    Executed level ``m`` corresponds to tree height ``m``; gates at
    heights above ``populated_levels`` are removed.  This realises the
    Section 5 extension in which an arbitrary permutation is allowed every
    ``f(n)`` stages: a block with only its first ``f`` levels populated is
    a forest of :math:`2^f`-wire reverse delta networks embedded in a full
    ``lg n``-level one.
    """
    return ReverseDeltaNetwork(
        rdn.leaf_order,
        [
            level if height <= populated_levels else ()
            for height, level in enumerate(rdn.levels_flat(), 1)
        ],
    )


def random_reverse_delta(
    n: int,
    rng: np.random.Generator,
    *,
    p_gate: float = 1.0,
    p_minus: float = 0.5,
    p_exchange: float = 0.0,
    shuffle_pairing: bool = True,
) -> ReverseDeltaNetwork:
    """A random reverse delta network.

    At each node, child-0 outputs are matched to child-1 outputs by a
    random bijection (if ``shuffle_pairing``) or positionally; each matched
    pair independently receives a gate with probability ``p_gate``, which
    is an exchange with probability ``p_exchange`` and otherwise a ``-``
    comparator with probability ``p_minus`` (``+`` else).

    This samples from the *full* class of Definition 3.4, exercising the
    arbitrary wire maps that serial composition permits.
    """
    d = ilog2(require_power_of_two(n, "network size"))
    leaves: list[int] = []
    levels: list[list[Gate]] = [[] for _ in range(d)]

    def build(wires: list[int]) -> None:
        if len(wires) == 1:
            leaves.append(wires[0])
            return
        half = len(wires) // 2
        if shuffle_pairing:
            rng.shuffle(wires)
        lows, highs = wires[:half], wires[half:]
        build(sorted(lows))
        build(sorted(highs))
        if shuffle_pairing:
            lows = rng.permutation(lows).tolist()
            highs = rng.permutation(highs).tolist()
        final = levels[half.bit_length() - 1]
        for a, b in zip(lows, highs):
            if rng.random() >= p_gate:
                continue
            if rng.random() < p_exchange:
                op = Op.SWAP
            elif rng.random() < p_minus:
                op = Op.MINUS
            else:
                op = Op.PLUS
            final.append(Gate(a, b, op))

    build(list(range(n)))
    del build  # it refers to itself; a kept cycle would hold the gates
    return ReverseDeltaNetwork(leaves, levels)


def random_iterated_rdn(
    n: int,
    k: int,
    rng: np.random.Generator,
    *,
    random_inter_perms: bool = True,
    p_gate: float = 1.0,
    p_minus: float = 0.5,
    p_exchange: float = 0.0,
) -> IteratedReverseDeltaNetwork:
    """A random (k, lg n)-iterated reverse delta network."""
    blocks = []
    for _ in range(k):
        perm: Permutation | None = (
            random_permutation(n, rng) if random_inter_perms else None
        )
        rdn = random_reverse_delta(
            n, rng, p_gate=p_gate, p_minus=p_minus, p_exchange=p_exchange
        )
        blocks.append((perm, rdn))
    return IteratedReverseDeltaNetwork(n, blocks)


def bitonic_phase_rdn(n: int, phase: int) -> ReverseDeltaNetwork:
    """Phase ``p`` (1-based) of Batcher's bitonic sorter as an RDN block.

    Phase ``p`` merges bitonic runs of length :math:`2^p`: its executed
    stages compare strides :math:`2^{p-1}, \\ldots, 2, 1` in that order,
    with direction chosen by bit ``p`` of the pair's low index (``+`` if
    clear, ``-`` if set; for the final phase ``p == d`` the bit is always
    clear, giving a fully ascending merge).

    Because the last executed stage pairs bit 0 and stage ``s`` preserves
    all bits below ``s``, each phase is an ``lg n``-level reverse delta
    network whose first ``lg n - p`` executed levels are empty --
    certifying that the full bitonic sorter is a (lg n, lg n)-iterated
    reverse delta network (with identity inter-block permutations), i.e.
    that it lies in the class the paper's lower bound addresses.
    """
    d = ilog2(require_power_of_two(n, "bitonic size"))
    if not 1 <= phase <= d:
        raise TopologyError(f"phase must be in [1, {d}], got {phase}")
    # Root pairs bit 0, depth r pairs bit r for r < phase; the remaining
    # (empty) structure uses the leftover bits in ascending order.
    bit_order = list(range(phase)) + list(range(phase, d))
    block_mask = 1 << phase

    def choose(height: int, bit: int, low_wire: int) -> Op | None:
        if bit >= phase:
            return None  # empty padding levels
        return Op.MINUS if low_wire & block_mask else Op.PLUS

    return rdn_from_bit_order(n, bit_order, choose)


def bitonic_iterated_rdn(
    n: int, phases: int | None = None
) -> IteratedReverseDeltaNetwork:
    """Batcher's bitonic sorting network as a (lg n, lg n)-iterated RDN.

    Sorts ascending.  Depth ``lg n`` blocks of ``lg n`` levels each (many
    empty), i.e. :math:`\\lg^2 n` stages of which
    :math:`\\lg n (\\lg n + 1)/2` contain comparators -- the
    :math:`\\Theta(\\lg^2 n)` upper bound the paper cites.

    ``phases`` builds only the first phases, the same network as
    ``bitonic_iterated_rdn(n).truncated(phases)`` (the count is read as
    a slice bound, like :meth:`~IteratedReverseDeltaNetwork.truncated`)
    without building the rest.
    """
    d = ilog2(require_power_of_two(n, "bitonic size"))
    built = range(1, d + 1)
    if phases is not None:
        built = built[:phases]
    blocks = [(None, bitonic_phase_rdn(n, p)) for p in built]
    return IteratedReverseDeltaNetwork(n, blocks)
