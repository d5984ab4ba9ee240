"""Workload and network-family generators for the experiment sweeps."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import RegistryError
from ..networks.builders import (
    bitonic_iterated_rdn,
    butterfly_rdn,
    random_iterated_rdn,
    random_reverse_delta,
    shuffle_split_rdn,
)
from ..networks.delta import IteratedReverseDeltaNetwork, ReverseDeltaNetwork
from ..networks.gates import Op
from ..networks.permutations import random_permutation

__all__ = [
    "random_permutation_batch",
    "almost_sorted_batch",
    "BLOCK_FAMILIES",
    "block_family",
    "iterated_family",
    "seeded_family",
    "truncated_bitonic",
]


def random_permutation_batch(
    n: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` uniform random permutations of ``range(n)``, stacked."""
    return np.stack([rng.permutation(n) for _ in range(count)])


def almost_sorted_batch(
    n: int, count: int, swaps: int, rng: np.random.Generator
) -> np.ndarray:
    """Sorted vectors perturbed by ``swaps`` random transpositions each."""
    batch = np.tile(np.arange(n, dtype=np.int64), (count, 1))
    for row in batch:
        for _ in range(swaps):
            i, j = rng.integers(0, n, size=2)
            row[i], row[j] = row[j], row[i]
    return batch


def _mixed_ops_butterfly(n: int, rng: np.random.Generator) -> ReverseDeltaNetwork:
    def chooser(height: int, bit: int, low_wire: int) -> Op:
        return Op.MINUS if rng.random() < 0.5 else Op.PLUS

    return butterfly_rdn(n, chooser)


#: Named single-block families for the E2 sweep.  Each builder takes
#: ``(n, rng)`` and returns one ``lg n``-level reverse delta network.
BLOCK_FAMILIES: dict[str, Callable[[int, np.random.Generator], ReverseDeltaNetwork]] = {
    "butterfly": lambda n, rng: butterfly_rdn(n),
    "shuffle_split": lambda n, rng: shuffle_split_rdn(n),
    "butterfly_mixed_ops": _mixed_ops_butterfly,
    "random": lambda n, rng: random_reverse_delta(n, rng),
    "random_sparse": lambda n, rng: random_reverse_delta(n, rng, p_gate=0.5),
}


def block_family(name: str) -> Callable[[int, np.random.Generator], ReverseDeltaNetwork]:
    """Look up a single-block family by name."""
    try:
        return BLOCK_FAMILIES[name]
    except KeyError:
        raise RegistryError(
            f"unknown block family {name!r}; available: {', '.join(BLOCK_FAMILIES)}"
        ) from None


def iterated_family(
    name: str, n: int, blocks: int, rng: np.random.Generator
) -> IteratedReverseDeltaNetwork:
    """Build a ``blocks``-block iterated RDN of the named family.

    ``"bitonic"`` gives the (possibly truncated) bitonic sorter;
    ``"random_iterated"`` uses fresh random blocks and random inter-block
    permutations; other names repeat the single-block family with random
    inter-block permutations.
    """
    if name == "bitonic":
        return bitonic_iterated_rdn(n, blocks)
    if name == "random_iterated":
        return random_iterated_rdn(n, blocks, rng)
    build = block_family(name)
    entries = []
    for b in range(blocks):
        perm = random_permutation(n, rng) if b else None
        entries.append((perm, build(n, rng)))
    return IteratedReverseDeltaNetwork(n, entries)


def seeded_family(
    name: str, n: int, blocks: int, seed: int
) -> IteratedReverseDeltaNetwork:
    """Build an iterated family from a bare integer seed, reproducibly.

    Unlike :func:`iterated_family` this owns its generator, so two calls
    with the same arguments return identical networks regardless of what
    else consumed randomness in between -- the property the farm's
    content-addressed store relies on to rebuild a network from its job
    parameters when re-verifying a cached certificate.
    """
    return iterated_family(name, n, blocks, np.random.default_rng(seed))


def truncated_bitonic(n: int, phases: int) -> IteratedReverseDeltaNetwork:
    """The first ``phases`` phases of the bitonic sorter."""
    return bitonic_iterated_rdn(n, phases)
