"""Test-only oracle: the exhaustive 0-1 sweep as int64 batches.

This is the exhaustive 0-1 check as it was before the bit-sliced sweep:
the :math:`2^n` binary inputs built as ``(16384, n)`` int64 rows in code
order and run through :meth:`ComparatorNetwork.evaluate_batch`, i.e.
through ``Permutation.apply`` and ``Level.apply_inplace``.  The source
version packs 64 inputs per ``uint64`` word and evaluates with AND/OR
on the level arrays; ``test_zero_one_differential.py`` checks that both
return the same first witness, witness list and count.  Nothing in
``src/`` imports this module.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.networks.network import ComparatorNetwork

__all__ = [
    "reference_first_witness",
    "reference_witnesses",
    "reference_witness_count",
]

_BATCH = 1 << 14


def _batches(n: int) -> Iterator[np.ndarray]:
    """All 0-1 inputs of length ``n`` in code order, in int64 batches."""
    total = 1 << n
    bit_cols = np.arange(n - 1, -1, -1, dtype=np.uint64)
    for start in range(0, total, _BATCH):
        codes = np.arange(start, min(start + _BATCH, total), dtype=np.uint64)
        yield ((codes[:, None] >> bit_cols) & np.uint64(1)).astype(np.int64)


def _unsorted_rows(network: ComparatorNetwork, batch: np.ndarray) -> np.ndarray:
    out = network.evaluate_batch(batch)
    return (np.diff(out, axis=1) < 0).any(axis=1)


def reference_first_witness(network: ComparatorNetwork) -> np.ndarray | None:
    """The lowest-code 0-1 input the network leaves unsorted, or ``None``."""
    for batch in _batches(network.n):
        bad = np.nonzero(_unsorted_rows(network, batch))[0]
        if bad.size:
            return batch[int(bad[0])].copy()
    return None


def reference_witnesses(network: ComparatorNetwork) -> np.ndarray:
    """Every 0-1 input the network leaves unsorted, in code order."""
    found = [batch[_unsorted_rows(network, batch)] for batch in _batches(network.n)]
    return np.concatenate(found, axis=0)


def reference_witness_count(network: ComparatorNetwork) -> int:
    """Number of 0-1 inputs the network leaves unsorted."""
    return sum(
        int(_unsorted_rows(network, batch).sum()) for batch in _batches(network.n)
    )
