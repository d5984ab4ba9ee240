"""Sorting-network verification: 0-1 principle, exhaustive and randomised.

The 0-1 principle (cited in Section 5) reduces sorting-network
verification to the :math:`2^n` binary inputs: a comparator network sorts
every input iff it sorts every 0-1 input.  The exhaustive check is
bit-sliced: each ``uint64`` word of wire ``j`` holds that wire's bit for
64 consecutive input codes, a comparator is an AND of two rows into its
min end and an OR into its max end, and a chunk of words is one pass.
It reads only the level arrays and stage permutations, not the
``Level`` kernels behind :meth:`ComparatorNetwork.evaluate`.  Beside it:
an exhaustive check over permutations for tiny ``n``, and random
sampling as a cheap refutation pass.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from ..errors import ReproError
from ..networks.gates import OP_CODE, Op
from ..networks.network import ComparatorNetwork, Stage

__all__ = [
    "MAX_ZERO_ONE_WIRES",
    "is_sorted_vector",
    "sorts_input",
    "find_unsorted_zero_one_input",
    "is_sorting_network",
    "random_sorting_fraction",
    "exhaustive_permutation_check",
]

#: Widest network an exhaustive 0-1 check admits by default (2^24 inputs).
MAX_ZERO_ONE_WIRES = 24

#: Words per bit-sliced pass: 2^12 words hold 2^18 inputs, so a pass
#: over 24 wires holds 768 KiB, and a failing network stops after the
#: first chunk that holds a witness.
_CHUNK_WORDS = 1 << 12

_WORD_BITS = 64
_ONE = np.uint64(1)
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_SIX = np.uint64(6)
#: ``_LOW_BITS[t]`` holds bit ``t < 6`` of the 64 codes of any word.
_LOW_BITS = np.array(
    [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ],
    dtype=np.uint64,
)

_PLUS = OP_CODE[Op.PLUS]
_MINUS = OP_CODE[Op.MINUS]
_SWAP = OP_CODE[Op.SWAP]


def is_sorted_vector(values: np.ndarray) -> bool:
    """True iff the vector is nondecreasing."""
    values = np.asarray(values)
    return bool((np.diff(values) >= 0).all())


def sorts_input(network: ComparatorNetwork, values) -> bool:
    """True iff the network's output on this input is nondecreasing."""
    return is_sorted_vector(network.evaluate(values))


def _zero_one_rows(codes: np.ndarray, n: int) -> np.ndarray:
    """The 0-1 inputs with the given ``uint64`` codes, as fresh int64 rows:
    wire ``j`` carries bit ``n - 1 - j`` of the code."""
    bit_cols = np.arange(n - 1, -1, -1, dtype=np.uint64)
    return ((codes[..., None] >> bit_cols) & _ONE).astype(np.int64)


def _stage_plan(stage: Stage) -> tuple:
    """A stage as row indices: its permutation's mapping (``None`` for
    the identity), the AND and OR rows of its comparators (``+`` puts
    the AND at ``a``, ``-`` at ``b``), and the two ends of its
    exchanges.  NOPs do nothing and are dropped."""
    a, b, ops = stage.level.arrays
    plus = ops == _PLUS
    compares = plus | (ops == _MINUS)
    swaps = ops == _SWAP
    return (
        None if stage.perm is None else stage.perm.mapping,
        np.where(plus, a, b)[compares],
        np.where(plus, b, a)[compares],
        a[swaps],
        b[swaps],
    )


def _bitsliced_stage(
    x: np.ndarray,
    mapping: np.ndarray | None,
    lo: np.ndarray,
    hi: np.ndarray,
    sa: np.ndarray,
    sb: np.ndarray,
) -> np.ndarray:
    """One stage on the wire-by-word rows ``x``: the permutation as one
    row scatter (``Permutation.apply``'s convention), then the
    comparators as AND/OR and the exchanges as row swaps."""
    if mapping is not None:
        moved = np.empty_like(x)
        moved[mapping] = x
        x = moved
    if lo.size:
        va = x[lo]
        vb = x[hi]
        x[lo] = va & vb
        x[hi] = va | vb
    if sa.size:
        x[sa], x[sb] = x[sb], x[sa]
    return x


def _packed_words(bit: np.ndarray, first: int, stop: int) -> np.ndarray:
    """The inputs of words ``first .. stop - 1``, one row per wire.

    Bit ``i`` of word ``w`` in the row of a wire that carries bit ``t``
    is bit ``t`` of code ``64 w + i``: a constant pattern for ``t < 6``,
    else all ones where bit ``t - 6`` of ``w`` is set.
    """
    words = np.arange(first, stop, dtype=np.uint64)
    high = ((words >> (np.maximum(bit, _SIX) - _SIX)) & _ONE) * _ONES
    return np.where(bit < _SIX, _LOW_BITS[np.minimum(bit, _SIX - _ONE)], high)


def _unsorted_words(network: ComparatorNetwork) -> Iterator[tuple[int, np.ndarray]]:
    """The bit-sliced exhaustive 0-1 pass, one chunk of words at a time.

    Yields each chunk's first input code and its ``uint64`` mask: bit
    ``i`` of word ``w`` is set iff the network leaves input code
    ``first + 64 w + i`` unsorted, i.e. some wire ``j`` ends 1 and wire
    ``j + 1`` ends 0.  Below 6 wires the one word's unused bits are
    masked off.
    """
    n = network.n
    plan = [_stage_plan(stage) for stage in network.stages]
    bit = np.arange(n - 1, -1, -1, dtype=np.uint64)[:, None]
    total = max(1, (1 << n) // _WORD_BITS)
    valid = _ONES >> np.uint64(_WORD_BITS - min(_WORD_BITS, 1 << n))
    # chunk stepping, not a per-wire loop: each pass evaluates every
    # wire over up to _CHUNK_WORDS words
    first = 0
    while first < total:
        stop = min(first + _CHUNK_WORDS, total)
        x = _packed_words(bit, first, stop)
        for step in plan:
            x = _bitsliced_stage(x, *step)
        unsorted = np.bitwise_or.reduce(x[:-1] & ~x[1:], axis=0)
        yield first * _WORD_BITS, unsorted & valid
        first = stop


def _mask_bits(mask: np.ndarray) -> np.ndarray:
    """A chunk mask as one 0/1 byte per input code, in code order."""
    return np.unpackbits(
        mask.astype("<u8", copy=False).view(np.uint8), bitorder="little"
    )


def _mask_codes(first: int, mask: np.ndarray) -> np.ndarray:
    """The input codes set in a chunk mask, ascending, as ``uint64``."""
    return np.flatnonzero(_mask_bits(mask)).astype(np.uint64) + np.uint64(first)


def find_unsorted_zero_one_input(
    network: ComparatorNetwork, max_wires: int = MAX_ZERO_ONE_WIRES
) -> np.ndarray | None:
    """The lowest-code 0-1 input the network fails to sort, or ``None``.

    Exhaustive over all :math:`2^n` binary vectors (bit-sliced); refuses
    ``n > max_wires`` to avoid accidental multi-hour runs.
    """
    n = network.n
    if n > max_wires:
        raise ReproError(
            f"exhaustive 0-1 check over 2^{n} inputs refused (max_wires={max_wires})"
        )
    for first, mask in _unsorted_words(network):
        if mask.any():
            return _zero_one_rows(_mask_codes(first, mask)[0], n)
    return None


def is_sorting_network(
    network: ComparatorNetwork, max_wires: int = MAX_ZERO_ONE_WIRES
) -> bool:
    """Exact check via the 0-1 principle."""
    return find_unsorted_zero_one_input(network, max_wires=max_wires) is None


def exhaustive_permutation_check(
    network: ComparatorNetwork, max_wires: int = 8
) -> np.ndarray | None:
    """A permutation input the network fails to sort, or ``None``.

    Exhaustive over all ``n!`` permutations; independent of the 0-1
    principle, so the two checkers cross-validate each other in tests.
    """
    n = network.n
    if n > max_wires:
        raise ReproError(
            f"exhaustive check over {n}! permutations refused (max_wires={max_wires})"
        )
    batch = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    out = network.evaluate_batch(batch)
    bad = np.nonzero((np.diff(out, axis=1) < 0).any(axis=1))[0]
    if bad.size:
        return batch[int(bad[0])].copy()
    return None


def random_sorting_fraction(
    network: ComparatorNetwork,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of random permutation inputs the network sorts.

    The measurement behind the Section 5 average-case discussion: shallow
    shuffle-based networks sort *most* inputs long before they sort all.
    """
    n = network.n
    batch = np.stack([rng.permutation(n) for _ in range(trials)])
    out = network.evaluate_batch(batch)
    ok = ~(np.diff(out, axis=1) < 0).any(axis=1)
    return float(ok.mean())
