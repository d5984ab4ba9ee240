"""The bit-sliced exhaustive 0-1 sweep against its int64-batch oracle.

:func:`repro.analysis.verify.find_unsorted_zero_one_input`,
:func:`repro.analysis.zero_one.zero_one_witnesses` and
:func:`repro.analysis.zero_one.witness_count` read one bit-sliced pass
over the level arrays; the oracle (``zero_one_reference.py``) runs int64
rows through ``evaluate_batch``.  On every network all three answers
must agree: the first witness (the lowest failing input code), the full
witness list in code order, and the count.  A second group patches the
``Level`` and ``Permutation`` kernels to raise and checks that no
exhaustive 0-1 answer changes, i.e. that the sweep shares no evaluation
code with the certificate judge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import find_unsorted_zero_one_input, is_sorting_network
from repro.analysis.zero_one import witness_count, zero_one_inputs, zero_one_witnesses
from repro.networks.gates import OPS
from repro.networks.level import Level
from repro.networks.network import ComparatorNetwork, Stage
from repro.networks.permutations import Permutation
from repro.sorters.registry import SORTER_REGISTRY

from .zero_one_reference import (
    reference_first_witness,
    reference_witness_count,
    reference_witnesses,
)

#: Registry sorters that build at every width.
GENERAL = [name for name, spec in SORTER_REGISTRY.items() if not spec.power_of_two_only]


def _random_network(n: int, depth: int, rng: np.random.Generator) -> ComparatorNetwork:
    """Random stages: a stage permutation half the time, then disjoint
    pairs with uniform ops (``+``, ``-``, NOP, exchange)."""
    stages = []
    for _ in range(depth):
        ends = rng.permutation(n)[: 2 * int(rng.integers(0, n // 2 + 1))]
        ends = ends.reshape(-1, 2)
        ops = rng.integers(0, len(OPS), size=len(ends))
        perm = Permutation(rng.permutation(n)) if rng.random() < 0.5 else None
        level = Level.from_arrays(ends[:, 0].copy(), ends[:, 1].copy(), ops)
        stages.append(Stage(level=level, perm=perm))
    return ComparatorNetwork(n, stages)


def _scrambled_sorter(name: str, n: int, rng: np.random.Generator) -> ComparatorNetwork:
    """A registry sorter, or a prefix of it, with random gates turned
    around (``+`` becomes ``-`` on swapped ends: same behaviour) and
    half the time a random permutation in front."""
    net = SORTER_REGISTRY[name].build(n)
    net = net.truncated(int(rng.integers(0, net.depth + 1)))
    stages = [
        Stage(level=s.level.reoriented(rng.random(len(s.level)) < 0.5), perm=s.perm)
        for s in net.stages
    ]
    net = ComparatorNetwork(n, stages)
    if rng.random() < 0.5:
        net = net.with_prefix_permutation(Permutation(rng.permutation(n)))
    return net


@st.composite
def networks(draw, max_n: int = 12) -> ComparatorNetwork:
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return _random_network(n, draw(st.integers(0, 8)), rng)
    return _scrambled_sorter(draw(st.sampled_from(GENERAL)), n, rng)


def _assert_agrees(net: ComparatorNetwork) -> None:
    first = find_unsorted_zero_one_input(net, max_wires=net.n)
    expected = reference_first_witness(net)
    if expected is None:
        assert first is None
        assert is_sorting_network(net, max_wires=net.n)
    else:
        assert first is not None
        assert first.dtype == np.int64 and first.base is None
        np.testing.assert_array_equal(first, expected)
    witnesses = zero_one_witnesses(net, max_wires=net.n)
    assert witnesses.dtype == np.int64
    assert witnesses.shape == (reference_witness_count(net), net.n)
    np.testing.assert_array_equal(witnesses, reference_witnesses(net))
    assert witness_count(net, max_wires=net.n) == witnesses.shape[0]


@settings(max_examples=150, deadline=None)
@given(networks())
def test_bitsliced_sweep_matches_the_oracle(net):
    _assert_agrees(net)


@pytest.mark.parametrize("n", range(1, 8))
def test_under_one_word_and_at_the_word_boundary(n):
    """n <= 5 fills part of one word; n = 6 fills it; n = 7 takes two."""
    rng = np.random.default_rng(1000 + n)
    for depth in range(6):
        _assert_agrees(_random_network(n, depth, rng))
    _assert_agrees(ComparatorNetwork(n, []))
    _assert_agrees(SORTER_REGISTRY["insertion"].build(n))


def test_first_witness_past_the_first_chunk():
    """Sort wires 1..18 of a 19-wire network and leave wire 0 alone: an
    input fails iff wire 0 carries a 1 above a 0, so the lowest failing
    code is 2^18, the first input of the second chunk."""
    n = 19
    inner = SORTER_REGISTRY["merge_exchange"].build(n - 1)
    stages = [
        Stage(level=Level.from_arrays(a + 1, b + 1, ops))
        for a, b, ops in (s.level.arrays for s in inner.stages)
    ]
    net = ComparatorNetwork(n, stages)
    expected = np.zeros(n, dtype=np.int64)
    expected[0] = 1
    np.testing.assert_array_equal(find_unsorted_zero_one_input(net), expected)
    np.testing.assert_array_equal(reference_first_witness(net), expected)
    count = (1 << (n - 1)) - 1  # wire 0 set, the rest not all ones
    assert witness_count(net, max_wires=n) == count
    assert reference_witness_count(net) == count
    witnesses = zero_one_witnesses(net, max_wires=n)
    np.testing.assert_array_equal(witnesses, reference_witnesses(net))


def test_zero_one_inputs_are_every_code_in_order():
    inputs = zero_one_inputs(10)
    assert inputs.dtype == np.int64 and inputs.shape == (1 << 10, 10)
    weights = 1 << np.arange(9, -1, -1)
    np.testing.assert_array_equal(inputs @ weights, np.arange(1 << 10))


def _raise(*args, **kwargs):
    raise AssertionError("the exhaustive 0-1 sweep called an evaluation kernel")


def test_sweep_shares_no_evaluation_code_with_the_judge(monkeypatch):
    rng = np.random.default_rng(7)
    nets = [_random_network(n, 5, rng) for n in (1, 3, 6, 9, 12)]
    nets += [SORTER_REGISTRY[name].build(8) for name in SORTER_REGISTRY]
    nets += [_scrambled_sorter("pratt", 10, rng) for _ in range(5)]
    expected = [
        (reference_first_witness(net), reference_witnesses(net))
        for net in nets
    ]
    monkeypatch.setattr(Level, "_kernel", property(_raise))
    monkeypatch.setattr(Level, "partners", property(_raise))
    monkeypatch.setattr(Level, "apply_inplace", _raise)
    monkeypatch.setattr(Permutation, "apply", _raise)
    monkeypatch.setattr(ComparatorNetwork, "evaluate", _raise)
    monkeypatch.setattr(ComparatorNetwork, "evaluate_batch", _raise)
    with pytest.raises(AssertionError, match="evaluation kernel"):
        reference_first_witness(nets[0])
    for net, (first, witnesses) in zip(nets, expected):
        got = find_unsorted_zero_one_input(net)
        assert (got is None) == (first is None)
        if first is not None:
            np.testing.assert_array_equal(got, first)
        assert is_sorting_network(net) == (first is None)
        np.testing.assert_array_equal(zero_one_witnesses(net), witnesses)
        assert witness_count(net) == witnesses.shape[0]
