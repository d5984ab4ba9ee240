"""Unit tests for the reverse delta network tree (Definition 3.4)."""

import numpy as np
import pytest

from repro.errors import TopologyError, WireError
from repro.networks.builders import butterfly_rdn, random_reverse_delta
from repro.networks.delta import IteratedReverseDeltaNetwork, ReverseDeltaNetwork
from repro.networks.gates import Gate, Op, comparator
from repro.networks.permutations import identity_permutation, random_permutation


def small_tree() -> ReverseDeltaNetwork:
    """A hand-built 2-level RDN on wires 0..3."""
    l00 = ReverseDeltaNetwork.leaf(0)
    l01 = ReverseDeltaNetwork.leaf(1)
    l10 = ReverseDeltaNetwork.leaf(2)
    l11 = ReverseDeltaNetwork.leaf(3)
    c0 = ReverseDeltaNetwork.node(l00, l01, [comparator(0, 1)])
    c1 = ReverseDeltaNetwork.node(l10, l11, [comparator(2, 3)])
    return ReverseDeltaNetwork.node(c0, c1, [comparator(0, 2), comparator(1, 3)])


class TestTreeValidation:
    def test_leaf(self):
        leaf = ReverseDeltaNetwork.leaf(5)
        assert leaf.is_leaf
        assert leaf.levels == 0
        assert leaf.wires == (5,)
        assert leaf.size == 0

    def test_leaf_children_raise(self):
        with pytest.raises(TopologyError):
            ReverseDeltaNetwork.leaf(0).child0

    def test_node_structure(self):
        t = small_tree()
        assert t.levels == 2
        assert t.n == 4
        assert t.size == 4
        assert len(list(t.nodes())) == 7

    def test_rejects_overlapping_children(self):
        a = ReverseDeltaNetwork.leaf(0)
        b = ReverseDeltaNetwork.leaf(0)
        with pytest.raises(TopologyError):
            ReverseDeltaNetwork.node(a, b)

    def test_rejects_unbalanced_children(self):
        a = ReverseDeltaNetwork.node(
            ReverseDeltaNetwork.leaf(0), ReverseDeltaNetwork.leaf(1)
        )
        b = ReverseDeltaNetwork.leaf(2)
        with pytest.raises(TopologyError):
            ReverseDeltaNetwork.node(a, b)

    def test_rejects_gate_not_crossing(self):
        a = ReverseDeltaNetwork.leaf(0)
        b = ReverseDeltaNetwork.leaf(1)
        with pytest.raises(TopologyError):
            ReverseDeltaNetwork.node(a, b, [comparator(1, 0)])  # b-side first

    def test_rejects_duplicate_wire_in_final(self):
        c0 = ReverseDeltaNetwork.node(
            ReverseDeltaNetwork.leaf(0), ReverseDeltaNetwork.leaf(1)
        )
        c1 = ReverseDeltaNetwork.node(
            ReverseDeltaNetwork.leaf(2), ReverseDeltaNetwork.leaf(3)
        )
        with pytest.raises(TopologyError):
            ReverseDeltaNetwork.node(
                c0, c1, [comparator(0, 2), comparator(0, 3)]
            )

    def test_empty_final_allowed(self):
        node = ReverseDeltaNetwork.node(
            ReverseDeltaNetwork.leaf(0), ReverseDeltaNetwork.leaf(1), []
        )
        assert node.size == 0
        assert node.levels == 1


class TestFlattening:
    def test_levels_flat_order(self):
        t = small_tree()
        levels = t.levels_flat()
        assert len(levels) == 2
        # height-1 nodes (stride 1) first, root (stride 2) last
        assert {g.wires for g in levels[0]} == {(0, 1), (2, 3)}
        assert {g.wires for g in levels[1]} == {(0, 2), (1, 3)}

    def test_to_network_evaluates(self):
        net = small_tree().to_network()
        # all-'+' 2-level butterfly on 4 wires sorts 0-1 inputs? No -- but
        # check a concrete routing instead.
        out = net.evaluate([3, 2, 1, 0])
        # level 1: (3,2)->(2,3); (1,0)->(0,1) => [2,3,0,1]
        # level 2: (2,0)->(0,2); (3,1)->(1,3) => [0,1,2,3]
        assert list(out) == [0, 1, 2, 3]

    def test_to_network_size_check(self):
        t = small_tree()
        with pytest.raises(WireError):
            t.to_network(3)

    def test_comparator_count_by_level(self):
        t = small_tree()
        assert t.comparator_count_by_level() == [2, 2]

    def test_map_wires(self, rng):
        t = small_tree()
        shifted = t.map_wires(lambda w: w + 4)
        assert shifted.wires == (4, 5, 6, 7)
        net = shifted.to_network(8)
        x = np.array([0, 0, 0, 0, 3, 2, 1, 0])
        assert list(net.evaluate(x)[4:]) == [0, 1, 2, 3]

    def test_with_final(self):
        t = small_tree()
        stripped = t.with_final([])
        assert stripped.size == 2
        # children are derived, not stored: compare their form
        for side in ("child0", "child1"):
            kept, orig = getattr(stripped, side), getattr(t, side)
            assert list(kept.leaf_order) == list(orig.leaf_order)
            assert kept.levels_flat() == orig.levels_flat()


class TestIterated:
    def test_basic_composition(self, rng):
        n = 8
        blocks = [(None, butterfly_rdn(n)), (None, butterfly_rdn(n))]
        it = IteratedReverseDeltaNetwork(n, blocks)
        assert it.k == 2
        assert it.block_levels == 3
        assert it.depth == 6
        net = it.to_network()
        assert net.depth == 6

    def test_inter_block_permutation_applied(self, rng):
        n = 8
        perm = random_permutation(n, rng)
        it = IteratedReverseDeltaNetwork(
            n, [(None, butterfly_rdn(n)), (perm, butterfly_rdn(n))]
        )
        net = it.to_network()
        b1 = butterfly_rdn(n).to_network()
        x = rng.permutation(n)
        expected = b1.evaluate(perm.apply(b1.evaluate(x)))
        assert (net.evaluate(x) == expected).all()

    def test_rejects_partial_cover(self):
        partial = butterfly_rdn(4).map_wires(lambda w: w + 4)
        with pytest.raises(TopologyError):
            IteratedReverseDeltaNetwork(8, [(None, partial)])

    def test_rejects_mixed_levels(self):
        with pytest.raises(TopologyError):
            IteratedReverseDeltaNetwork(
                8, [(None, butterfly_rdn(8)), (None, butterfly_rdn(8).child0)]
            )

    def test_truncated_and_then_block(self, rng):
        n = 8
        it = IteratedReverseDeltaNetwork(n, [(None, butterfly_rdn(n))])
        it2 = it.then_block(random_reverse_delta(n, rng))
        assert it2.k == 2
        assert it2.truncated(1).k == 1

    def test_size_totals(self):
        n = 8
        it = IteratedReverseDeltaNetwork(
            n, [(None, butterfly_rdn(n)), (None, butterfly_rdn(n))]
        )
        assert it.size == 2 * butterfly_rdn(n).size
