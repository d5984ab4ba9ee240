"""Published sorting-network bounds as checks on the 0-1 evaluator.

Bundala and Závodný settle the optimal depth of sorting networks for
n <= 16, and Harder proves that 11 and 12 inputs need at least 35 and 39
comparators (PAPERS.md).  A network that the exhaustive 0-1 sweep calls
sorting below those bounds would be an evaluator bug, so every registry
sorter at n <= 16 must meet them, and every prefix of it shallower than
the optimal depth must get a witness.
"""

from __future__ import annotations

import pytest

from repro.analysis.verify import find_unsorted_zero_one_input
from repro.sorters.registry import SORTER_REGISTRY

#: Optimal comparator depth for n = 1 .. 16 (Bundala–Závodný).
OPTIMAL_DEPTH = (0, 1, 3, 3, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 9, 9)

#: Lower bounds on comparator count (Harder).
MIN_SIZE = {11: 35, 12: 39}

PAIRS = [
    (name, n)
    for name, spec in SORTER_REGISTRY.items()
    for n in range(1, 17)
    if not spec.power_of_two_only or n & (n - 1) == 0
]


@pytest.mark.parametrize("name, n", PAIRS)
def test_registry_sorter_meets_the_published_bounds(name, n):
    net = SORTER_REGISTRY[name].build(n)
    assert find_unsorted_zero_one_input(net) is None
    optimal = OPTIMAL_DEPTH[n - 1]
    assert net.comparator_depth >= optimal
    assert net.size >= MIN_SIZE.get(n, 0)
    for depth in range(net.depth + 1):
        prefix = net.truncated(depth)
        if prefix.comparator_depth < optimal:
            assert find_unsorted_zero_one_input(prefix) is not None, depth
