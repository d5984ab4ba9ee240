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
from .gates import OP_CODE, Op
from .level import Level
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

_PLUS, _MINUS, _SWAP = (OP_CODE[op] for op in (Op.PLUS, Op.MINUS, Op.SWAP))

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
        Gate chooser; see :data:`OpChooser`.  It is called once per
        pair, node by node in post-order (children first) and by
        ascending position within a node.
    wires:
        Optional explicit global wire labels (default ``range(n)``); the
        bit structure refers to positions within this sequence.

    The tree is never walked: position ``i`` has leaf rank
    ``sum(bit(i, bit_order[r]) << (d - 1 - r))``, and its height-``h``
    node is ``rank >> h``, so the pairs, their chooser calls and the
    levels all come from array sorts.
    """
    d = ilog2(require_power_of_two(n, "network size"))
    if sorted(bit_order) != list(range(d)):
        raise TopologyError(
            f"bit_order must be a permutation of range({d}), got {bit_order!r}"
        )
    labels = list(range(n)) if wires is None else list(wires)
    if len(labels) != n or len(set(labels)) != n:
        raise WireError("wires must be n distinct labels")
    wire_of = _wire_array(labels)
    index = np.arange(n, dtype=np.int64)
    bits = np.array(bit_order, dtype=np.int64)
    weights = 1 << np.arange(d - 1, -1, -1, dtype=np.int64)
    rank = ((index[:, None] >> bits) & 1) @ weights
    leaves = np.empty(n, dtype=np.int64)
    leaves[rank] = wire_of
    # every pair (height h, low position i), heights ascending, i per height
    heights = np.repeat(np.arange(1, d + 1, dtype=np.int64), n >> 1)
    pair_bits = bits[d - heights]
    clear = ((index >> bits[::-1, None]) & 1) == 0
    low = np.flatnonzero(clear.ravel()) % n
    node_end = ((rank[low] >> heights) + 1) << heights
    calls = np.lexsort((low, heights, node_end))  # post-order, then position
    chosen = [
        op_chooser(h, bit, labels[i])
        for h, bit, i in zip(
            heights[calls].tolist(), pair_bits[calls].tolist(), low[calls].tolist()
        )
    ]
    # regroup by height; within a height, call order is node order
    by_height = np.argsort(heights[calls], kind="stable")
    codes = np.fromiter(map(_op_code, chosen), dtype=np.int8, count=len(chosen))
    codes = codes[by_height]
    pairs = calls[by_height][codes >= 0]
    a = wire_of[low[pairs]]
    b = wire_of[low[pairs] | (1 << pair_bits[pairs])]
    return ReverseDeltaNetwork(
        leaves, _levels(heights[pairs] - 1, a, b, codes[codes >= 0], d)
    )


def _wire_array(labels: Sequence[int]) -> np.ndarray:
    """Wire labels as an int64 array (a :class:`~repro.errors.WireError`
    unless every label is an integer)."""
    wires = np.asarray(labels)
    if wires.dtype.kind not in "iu":
        raise WireError(f"wire labels must be integers, got {labels!r}")
    return wires.astype(np.int64)


def _op_code(op: Op | str | None) -> int:
    """The op code of one chooser result, -1 for ``None`` (no gate).  A
    label such as ``"+"`` is read with :meth:`Op.from_str`, which
    refuses anything else."""
    if op is None:
        return -1
    return OP_CODE[op if isinstance(op, Op) else Op.from_str(op)]


def _levels(
    level_of: np.ndarray, a: np.ndarray, b: np.ndarray, codes: np.ndarray, count: int
) -> list[Level]:
    """``count`` levels from gates sorted by their level index ``level_of``."""
    if not count:
        return []
    bounds = np.cumsum(np.bincount(level_of, minlength=count))[:-1]
    return [
        Level.from_arrays(*parts)
        for parts in zip(*(np.split(arr, bounds) for arr in (a, b, codes)))
    ]


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
    wires = np.arange(n, dtype=np.int64)
    if not d:
        return ReverseDeltaNetwork(wires)
    grown = _Growth(rng, shuffle_pairing, p_gate, p_exchange, d)
    grown.node(wires)
    return ReverseDeltaNetwork(
        np.concatenate(grown.leaves),
        [
            _drawn_level(nodes, draws, starts, p_gate, p_minus, p_exchange)
            for nodes, draws, starts in zip(grown.nodes, grown.draws, grown.starts)
        ],
    )


def _drawn_level(
    nodes: list[np.ndarray],
    draws: list[np.ndarray],
    starts: list[Sequence[int]],
    p_gate: float,
    p_minus: float,
    p_exchange: float,
) -> Level:
    """One height's level from its nodes' wires, draws and pair starts,
    in node order."""
    ends = np.concatenate(nodes).reshape(len(nodes), 2, -1)
    lows, highs = ends[:, 0].ravel(), ends[:, 1].ravel()
    sizes = np.fromiter(map(len, draws), dtype=np.int64, count=len(draws))
    offsets = np.repeat(np.cumsum(sizes) - sizes, ends.shape[2])
    keep, ops = _pair_gates(
        np.concatenate(draws), np.concatenate(starts) + offsets,
        p_gate, p_exchange, p_minus,
    )
    return Level.from_arrays(lows[keep], highs[keep], ops)


class _Growth:
    """The RNG walk of one :func:`random_reverse_delta` build.

    :meth:`node` makes, for one node and in the order of the
    node-by-node recursion, the split shuffle on the way down, the
    children, the two pairing shuffles and the node's draw for its
    gates; the draws are decoded per height afterwards
    (:func:`_pair_gates`).  A pair takes 1-3 doubles (gate? exchange?
    minus?), so a node draws 3 per pair at once.  While every pair
    takes 3, pair ``j`` starts at ``3 j``.  Fewer is possible only if
    ``may_waste`` (``p_gate < 1`` or ``p_exchange > 0``); then the node
    walks its pairs (:func:`_chain`) and, if they used fewer doubles
    than it drew, restores the pre-draw state and redraws exactly the
    number used.  Skipping ahead with ``bit_generator.advance`` instead
    would drop the buffered 32-bit half a shuffle may leave behind, and
    change every later shuffle.  The state snapshot and the walk cost
    ~7 us a node, which a default-parameter build (never a short pair)
    does not pay: at n = 2**12 it takes 41 ms, and 69 ms with them.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        shuffle_pairing: bool,
        p_gate: float,
        p_exchange: float,
        d: int,
    ):
        self.rng = rng
        self.shuffle_pairing = shuffle_pairing
        self.p_gate, self.p_exchange = p_gate, p_exchange
        self.may_waste = p_gate < 1 or p_exchange > 0
        self.leaves: list[np.ndarray] = []
        #: Per height: each node's wires (pair ``j`` is ``(w[j], w[k + j])``),
        #: its draws and where each pair's draws start, in node order.
        self.nodes: list[list[np.ndarray]] = [[] for _ in range(d)]
        self.draws: list[list[np.ndarray]] = [[] for _ in range(d)]
        self.starts: list[list[Sequence[int]]] = [[] for _ in range(d)]
        #: Per height: the starts when every pair takes three doubles.
        self.aligned = [np.arange(0, 3 << h, 3, dtype=np.int64) for h in range(d)]

    def node(self, wires: np.ndarray) -> None:
        """Grow the node on ``wires`` (sorted; reordered in place)."""
        rng, k = self.rng, wires.size >> 1
        if self.shuffle_pairing:
            rng.shuffle(wires)
        pairs = wires.reshape(2, k)
        if k == 1:  # two leaves; a one-element permutation draws nothing
            self.leaves.append(wires)
        else:
            halves = np.sort(pairs, axis=1)
            self.node(halves[0])
            self.node(halves[1])
            if self.shuffle_pairing:  # = shuffling row 0, then row 1
                rng.permuted(pairs, axis=1, out=pairs)
        height = k.bit_length() - 1
        starts: Sequence[int] = self.aligned[height]
        state = rng.bit_generator.state if self.may_waste else None
        drawn = rng.random(3 * k)
        if self.may_waste:
            *starts, used = _chain(drawn.tolist(), k, self.p_gate, self.p_exchange)
            if used < drawn.size:
                rng.bit_generator.state = state
                drawn = rng.random(used)
        self.nodes[height].append(wires)
        self.draws[height].append(drawn)
        self.starts[height].append(starts)


def _chain(u: list[float], k: int, p_gate: float, p_exchange: float) -> list[int]:
    """Where each of ``k`` pairs starts in the draws ``u``, then where
    the last one ends.

    A pair takes one double if it is ``>= p_gate`` (no gate), two if the
    next is ``< p_exchange`` (an exchange), and three otherwise.  Each
    start depends on the one before, so this walks the pairs: pointer
    doubling does it in O(log k) NumPy calls, but those cost ~20 us on
    the one- and two-pair nodes that make up most of a tree, against
    ~1 us for the walk.
    """
    chain = [0] * (k + 1)
    at = 0
    for pair in range(k):  # sanitize: ok[perf/scalar-loop-over-wires] - a chain; see above
        if u[at] < p_gate:
            at += 2 if u[at + 1] < p_exchange else 3
        else:
            at += 1
        chain[pair + 1] = at
    return chain


def _pair_gates(
    u: np.ndarray, starts: np.ndarray, p_gate: float, p_exchange: float,
    p_minus: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode the draws ``u`` of pairs starting at ``starts``: which get
    a gate, and its op code.

    A pair's first double says whether it gets a gate (``< p_gate``),
    its second whether that is an exchange (``< p_exchange``), its third
    whether a comparator is ``-`` (``< p_minus``) or ``+``.
    """
    # a short pair reads past its doubles (last pair: past the end); the
    # extra values are masked out below
    trio = np.append(u, (1.0, 1.0))[starts[:, None] + np.arange(3, dtype=np.int64)]
    gate = trio[:, 0] < p_gate
    swap = gate & (trio[:, 1] < p_exchange)
    ops = np.where(swap, _SWAP, np.where(trio[:, 2] < p_minus, _MINUS, _PLUS))
    return gate, ops[gate]


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
