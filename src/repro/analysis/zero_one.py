"""0-1 principle utilities and the representative-set experiment.

Section 5 of the paper discusses strengthening the 0-1 principle: could a
*small* "representative" subset of the binary inputs certify that a
network is nearly a sorting network?  The paper proves no polynomial-size
representative set exists for the shuffle-based class -- as a corollary
of the depth lower bound.  The utilities here make the ingredients of
that discussion executable: enumerating/counting binary witnesses,
checking a network against a chosen subset of 0-1 inputs, and measuring
how many binary inputs distinguish "sorts the subset" from "sorts
everything".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ReproError
from ..networks.network import ComparatorNetwork
from .verify import _mask_bits, _mask_codes, _unsorted_words, _zero_one_rows

__all__ = [
    "zero_one_inputs",
    "zero_one_witnesses",
    "sorts_zero_one_subset",
    "witness_count",
    "random_zero_one_subset",
]


def zero_one_inputs(n: int, max_wires: int = 24) -> np.ndarray:
    """All :math:`2^n` binary inputs as one ``(2^n, n)`` array, in code order."""
    if n > max_wires:
        raise ReproError(f"2^{n} binary inputs refused (max_wires={max_wires})")
    return _zero_one_rows(np.arange(1 << n, dtype=np.uint64), n)


def zero_one_witnesses(
    network: ComparatorNetwork, max_wires: int = 20
) -> np.ndarray:
    """All binary inputs the network fails to sort, in code order
    (possibly none: a ``(0, n)`` array)."""
    n = network.n
    if n > max_wires:
        raise ReproError(f"2^{n} binary inputs refused (max_wires={max_wires})")
    codes = np.concatenate(
        [_mask_codes(first, mask) for first, mask in _unsorted_words(network)]
    )
    return _zero_one_rows(codes, n)


def witness_count(network: ComparatorNetwork, max_wires: int = 20) -> int:
    """Number of binary inputs the network fails to sort."""
    n = network.n
    if n > max_wires:
        raise ReproError(f"2^{n} binary inputs refused (max_wires={max_wires})")
    return sum(
        int(np.count_nonzero(_mask_bits(mask))) for _, mask in _unsorted_words(network)
    )


def sorts_zero_one_subset(
    network: ComparatorNetwork, subset: Sequence[Sequence[int]] | np.ndarray
) -> bool:
    """Does the network sort every binary input of the given subset?"""
    batch = np.asarray(subset, dtype=np.int64)
    if batch.ndim != 2 or batch.shape[1] != network.n:
        raise ReproError(
            f"subset must have shape (count, {network.n}), got {batch.shape}"
        )
    out = network.evaluate_batch(batch)
    return not bool((np.diff(out, axis=1) < 0).any())


def random_zero_one_subset(
    n: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` random binary inputs (with replacement)."""
    return rng.integers(0, 2, size=(count, n), dtype=np.int64)
