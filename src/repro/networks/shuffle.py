"""Shuffle-based networks and their reverse-delta structure.

A network is *based on the shuffle permutation* if, in register-model
form, every step's permutation is the shuffle :math:`\\pi` (Section 1).
This module provides:

* construction of shuffle-based networks from op vectors;
* the exact correspondence between a depth-``d`` shuffle-based block on
  :math:`n = 2^d` registers and a reverse delta network whose recursive
  split is by the *low* index bit (:func:`shuffle_split_rdn` structure):
  executed stage ``t`` of the shuffle block compares registers differing
  in bit ``d-1-t`` of their original index, and after ``t+1`` shuffles
  that bit sits at position 0, so the stage's adjacent pairs are exactly
  those register pairs;
* conversion of longer shuffle-based programs into iterated reverse delta
  networks (one block per ``d`` stages), realising the containment
  "shuffle-based networks ⊆ iterated reverse delta networks" the lower
  bound relies on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._util import ilog2, require_power_of_two, rotate_left
from ..errors import TopologyError
from .delta import IteratedReverseDeltaNetwork, ReverseDeltaNetwork
from .gates import OP_CODE, OPS, Op
from .permutations import bit_reversal_permutation
from .registers import RegisterProgram, RegisterStep
from .builders import rdn_from_bit_order

__all__ = [
    "shuffle_based_network",
    "shuffle_program_from_split_rdn",
    "split_rdn_from_shuffle_stages",
    "iterated_rdn_from_shuffle_program",
    "shuffle_program_from_iterated_rdn",
]


def shuffle_based_network(
    n: int, op_vectors: Sequence[Sequence[Op | str]]
):
    """A shuffle-based :class:`ComparatorNetwork` from op vectors.

    ``op_vectors[t][k]`` is the op applied to registers ``(2k, 2k+1)``
    after the ``(t+1)``-th shuffle.
    """
    return RegisterProgram.shuffle_based(n, op_vectors).to_network()


def shuffle_program_from_split_rdn(rdn: ReverseDeltaNetwork) -> RegisterProgram:
    """Convert a low-bit-split RDN into an equivalent shuffle-based program.

    Requires the tree to have the :func:`~repro.networks.builders.
    shuffle_split_rdn` structure: the node at tree depth ``r`` splits its
    wires by bit ``r`` (root splits by bit 0).  The resulting program has
    ``d = lg n`` steps and computes *exactly* the same function: after
    ``d`` shuffles the registers return to their original order, so no
    trailing relabelling is needed.

    Raises :class:`~repro.errors.TopologyError` if the tree does not have
    the required bit structure.
    """
    n = rdn.n
    d = ilog2(require_power_of_two(n, "network size"))
    if rdn.levels != d or not rdn.covers(n):
        raise TopologyError(
            "expected a full lg(n)-level reverse delta network on wires 0..n-1"
        )
    # depth-r nodes split by bit r exactly when the leaf order is the
    # bit reversal of 0..n-1
    if not np.array_equal(rdn.rank, bit_reversal_permutation(n).mapping):
        raise TopologyError("the tree's depth-r nodes do not split by bit r")
    levels = rdn.levels_flat()
    if not levels:
        return RegisterProgram.shuffle_based(n, [])
    a, b, ops = (
        np.concatenate([level.arrays[i] for level in levels]) for i in range(3)
    )
    # stage t holds the final levels of the height-(t+1) nodes, which
    # pair across bit d-1-t
    t = np.repeat(np.arange(d, dtype=np.int64), [len(level) for level in levels])
    off = np.flatnonzero(b != a | (1 << (d - 1 - t)))
    if off.size:
        gate = [g for level in levels for g in level][off[0]]
        raise TopologyError(
            f"final-level gate {gate} does not pair across bit {d - 1 - t[off[0]]}"
        )
    # after t+1 shuffles, register w sits at rot_left(w, t+1), so the
    # pair lands on the adjacent positions (q, q+1), q even
    s = (t + 1) % d
    q = ((a << s) | (a >> (d - s))) & (n - 1)
    codes = np.full((d, n // 2), OP_CODE[Op.NOP], dtype=np.int8)
    codes[t, q >> 1] = ops
    return RegisterProgram.shuffle_based(
        n, [tuple(OPS[c] for c in row) for row in codes.tolist()]
    )


def split_rdn_from_shuffle_stages(
    n: int, op_vectors: Sequence[Sequence[Op | str]]
) -> ReverseDeltaNetwork:
    """Convert ``d = lg n`` shuffle-based steps into a low-bit-split RDN.

    Inverse of :func:`shuffle_program_from_split_rdn`.  ``op_vectors``
    must have exactly ``lg n`` entries.
    """
    d = ilog2(require_power_of_two(n, "network size"))
    if len(op_vectors) != d:
        raise TopologyError(
            f"need exactly lg n = {d} op vectors for one block, got {len(op_vectors)}"
        )
    resolved = [
        [o if isinstance(o, Op) else Op.from_str(o) for o in row]
        for row in op_vectors
    ]
    for t, row in enumerate(resolved):
        if len(row) != n // 2:
            raise TopologyError(
                f"op vector {t} has length {len(row)}, expected {n // 2}"
            )

    def choose(height: int, bit: int, low_wire: int) -> Op | None:
        # A node of height h contributes executed level h, i.e. program
        # stage t = h - 1; the pair (low_wire, low_wire | 2^bit) then
        # sits at positions (q, q+1) with q = rot_left(low_wire, t+1).
        t = height - 1
        q = rotate_left(low_wire, d, t + 1)
        op = resolved[t][q // 2]
        return None if op is Op.NOP else op

    return rdn_from_bit_order(n, list(range(d)), choose)


def iterated_rdn_from_shuffle_program(
    program: RegisterProgram,
) -> IteratedReverseDeltaNetwork:
    """Convert a shuffle-based program into an iterated RDN.

    The program depth must be a multiple of ``lg n`` (pad with all-``0``
    op vectors beforehand if necessary -- note that padding *with the
    shuffle permutation* preserves the function because ``lg n`` extra
    shuffles with no gates restore the register order).  Each group of
    ``lg n`` consecutive steps becomes one reverse delta block; the
    inter-block permutations are all identity because ``lg n`` shuffles
    compose to the identity.
    """
    n = program.n
    d = ilog2(require_power_of_two(n, "network size"))
    if not program.is_shuffle_based():
        raise TopologyError("program is not shuffle-based")
    if program.depth % d != 0:
        raise TopologyError(
            f"program depth {program.depth} is not a multiple of lg n = {d}; "
            "pad with all-'0' steps first"
        )
    blocks = []
    for start in range(0, program.depth, d):
        op_vectors = [program.steps[start + t].ops for t in range(d)]
        blocks.append((None, split_rdn_from_shuffle_stages(n, op_vectors)))
    return IteratedReverseDeltaNetwork(n, blocks)


def shuffle_program_from_iterated_rdn(
    iterated: IteratedReverseDeltaNetwork,
) -> RegisterProgram:
    """Convert an iterated RDN with low-bit-split blocks back to a program.

    Every block must have the low-bit-split structure and every
    inter-block permutation must be identity; otherwise the iterated
    network is outside the (strict) shuffle-based class and a
    :class:`~repro.errors.TopologyError` is raised.
    """
    n = iterated.n
    steps: list[RegisterStep] = []
    for perm, rdn in iterated.blocks:
        if perm is not None and not perm.is_identity:
            raise TopologyError(
                "iterated RDN has a nontrivial inter-block permutation; "
                "not expressible as a strict shuffle-based program"
            )
        steps.extend(shuffle_program_from_split_rdn(rdn).steps)
    return RegisterProgram(n, steps)
