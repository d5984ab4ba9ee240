"""Tests for topology recognition (delta / reverse delta / butterfly)."""

import numpy as np
import pytest

from repro.analysis.properties import (
    is_butterfly_topology,
    is_delta_topology,
    is_reverse_delta_topology,
    reconstruct_reverse_delta,
    reversed_levels_network,
)
from repro.errors import TopologyError
from repro.networks.builders import (
    bitonic_phase_rdn,
    butterfly_rdn,
    random_reverse_delta,
    shuffle_split_rdn,
)
from repro.networks.gates import comparator
from repro.networks.level import Level
from repro.networks.network import ComparatorNetwork, Stage
from repro.networks.permutations import shuffle_permutation


class TestReverseDeltaRecognition:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_butterfly_recognised(self, n):
        assert is_reverse_delta_topology(butterfly_rdn(n).to_network())

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_shuffle_split_recognised(self, n):
        assert is_reverse_delta_topology(shuffle_split_rdn(n).to_network())

    def test_random_rdns_recognised(self, rng):
        for _ in range(8):
            rdn = random_reverse_delta(16, rng)
            assert is_reverse_delta_topology(rdn.to_network())

    def test_bitonic_phase_recognised(self):
        for p in (1, 2, 3):
            assert is_reverse_delta_topology(bitonic_phase_rdn(8, p).to_network(8))

    def test_wrong_depth_rejected(self):
        net = butterfly_rdn(8).to_network().truncated(2)
        assert not is_reverse_delta_topology(net)

    def test_nonstandard_split_still_recognised(self):
        """The split need not be contiguous halves: {0,2} | {1,3} works."""
        net = ComparatorNetwork(
            4, [[comparator(0, 2)], [comparator(0, 1), comparator(2, 3)]]
        )
        assert is_reverse_delta_topology(net)

    def test_final_gate_within_component_rejected(self):
        """A final gate joining wires already connected below is invalid."""
        net = ComparatorNetwork(
            4, [[comparator(0, 1)], [comparator(0, 1), comparator(2, 3)]]
        )
        assert not is_reverse_delta_topology(net)

    def test_non_power_of_two_rejected(self):
        net = ComparatorNetwork(3, [[comparator(0, 1)]])
        assert not is_reverse_delta_topology(net)

    def test_impure_circuit_rejected(self):
        net = ComparatorNetwork(
            4, [Stage(level=Level([comparator(0, 1)]), perm=shuffle_permutation(4))]
        )
        with pytest.raises(TopologyError):
            reconstruct_reverse_delta(net)

    def test_reconstruction_roundtrip(self, rng):
        for _ in range(5):
            rdn = random_reverse_delta(16, rng)
            net = rdn.to_network()
            rebuilt = reconstruct_reverse_delta(net)
            net2 = rebuilt.to_network(16)
            for _ in range(10):
                x = rng.permutation(16)
                assert (net.evaluate(x) == net2.evaluate(x)).all()

    @pytest.mark.parametrize("family", ["butterfly", "random"])
    def test_budget_counts_only_backtracking(self, family):
        """Each of the n - 1 nodes tries one split without spending
        ``max_attempts``, so 2^13 wires (13 levels) are recognised even
        with a budget of zero."""
        n = 1 << 13
        rdn = (
            butterfly_rdn(n)
            if family == "butterfly"
            else random_reverse_delta(n, np.random.default_rng(13))
        )
        net = rdn.to_network()
        for budget in (0, 4096):
            rebuilt = reconstruct_reverse_delta(net, max_attempts=budget)
            x = np.random.default_rng(budget).permutation(n)
            assert (rebuilt.to_network(n).evaluate(x) == net.evaluate(x)).all()

    def test_empty_network_is_rdn(self):
        net = ComparatorNetwork(8, [Level(), Level(), Level()])
        assert is_reverse_delta_topology(net)


class TestDeltaAndButterfly:
    def test_reversed_levels(self):
        net = ComparatorNetwork(4, [[comparator(0, 1)], [comparator(2, 3)]])
        rev = reversed_levels_network(net)
        assert rev.stages[0].level.gates[0].wires == (2, 3)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_butterfly_is_both(self, n):
        net = butterfly_rdn(n).to_network()
        assert is_delta_topology(net)
        assert is_reverse_delta_topology(net)
        assert is_butterfly_topology(net)

    def test_generic_rdn_not_delta(self, rng):
        """Kruskal-Snir uniqueness: a non-butterfly RDN fails the delta check."""
        found_non_delta = False
        for seed in range(10):
            rdn = random_reverse_delta(16, np.random.default_rng(seed))
            net = rdn.to_network()
            if not is_delta_topology(net):
                found_non_delta = True
                break
        assert found_non_delta

    def test_delta_network_example(self):
        """Reversing a reverse delta network gives a delta network."""
        net = butterfly_rdn(8).to_network()
        # butterfly reversed is still a butterfly (self-mirror up to relabel)
        rev = reversed_levels_network(net)
        assert is_delta_topology(rev)
