"""Unit tests for the RDN builders (butterfly, shuffle split, bitonic, random)."""

import numpy as np
import pytest

from repro.errors import TopologyError, WireError
from repro.networks.builders import (
    bitonic_iterated_rdn,
    bitonic_phase_rdn,
    butterfly_rdn,
    constant_op_chooser,
    empty_rdn,
    random_iterated_rdn,
    random_reverse_delta,
    rdn_from_bit_order,
    shuffle_split_rdn,
    truncated_rdn,
)
from repro.networks.gates import Op
from repro.networks.permutations import bit_reversal_permutation


class TestBitOrderBuilder:
    def test_rejects_bad_bit_order(self):
        with pytest.raises(TopologyError):
            rdn_from_bit_order(8, [0, 1, 1], constant_op_chooser("+"))

    def test_butterfly_strides(self):
        bf = butterfly_rdn(8)
        levels = bf.levels_flat()
        strides = [abs(g.a - g.b) for lvl in levels for g in lvl]
        # level m has stride 2^(m-1): 1,1,1,1, 2,2,2,2, 4,4,4,4
        assert strides == [1] * 4 + [2] * 4 + [4] * 4

    def test_shuffle_split_strides(self):
        sp = shuffle_split_rdn(8)
        strides = [abs(g.a - g.b) for lvl in sp.levels_flat() for g in lvl]
        # executed order: bit 2 (stride 4) first, bit 0 (stride 1) last
        assert strides == [4] * 4 + [2] * 4 + [1] * 4

    def test_butterfly_and_shuffle_split_bit_reversal_related(self, rng):
        """The two are the same network up to bit-reversal relabelling."""
        n = 16
        bf = butterfly_rdn(n).to_network()
        sp = shuffle_split_rdn(n).to_network()
        rev = bit_reversal_permutation(n)
        for _ in range(10):
            x = rng.permutation(n)
            lhs = rev.apply(sp.evaluate(x))
            rhs = bf.evaluate(rev.apply(x))
            assert (lhs == rhs).all()

    def test_op_chooser_receives_context(self):
        seen = []

        def chooser(height, bit, low_wire):
            seen.append((height, bit, low_wire))
            return Op.PLUS

        butterfly_rdn(4, chooser)
        heights = sorted(set(h for h, _, _ in seen))
        assert heights == [1, 2]
        bits = sorted(set(b for _, b, _ in seen))
        assert bits == [0, 1]

    def test_chooser_may_return_labels_but_not_junk(self):
        labelled = butterfly_rdn(4, lambda height, bit, low: "-")
        assert labelled.to_network() == butterfly_rdn(4, Op.MINUS).to_network()
        with pytest.raises(WireError, match="unknown gate op 'x'"):
            butterfly_rdn(4, lambda height, bit, low: Op.PLUS if bit else "x")

    def test_empty_rdn(self):
        e = empty_rdn(8)
        assert e.size == 0
        assert e.levels == 3


class TestTruncated:
    def test_truncation_strips_top_levels(self):
        bf = butterfly_rdn(8)
        t = truncated_rdn(bf, 2)
        counts = t.comparator_count_by_level()
        assert counts == [4, 4, 0]

    def test_truncation_keeps_structure(self):
        t = truncated_rdn(butterfly_rdn(8), 1)
        assert t.levels == 3
        assert t.size == 4


class TestRandom:
    def test_random_rdn_valid_and_varies(self, rng):
        a = random_reverse_delta(16, rng)
        b = random_reverse_delta(16, rng)
        assert a.levels == 4
        assert a.to_network().size != 0
        # extremely unlikely to coincide
        assert a.to_network() != b.to_network()

    def test_p_gate_zero_gives_empty(self, rng):
        r = random_reverse_delta(8, rng, p_gate=0.0)
        assert r.size == 0

    def test_exchange_probability(self, rng):
        r = random_reverse_delta(16, rng, p_exchange=1.0)
        assert r.size == 0  # all gates are '1' elements, not comparators
        net = r.to_network()
        assert net.element_count == 8 + 8 + 8 + 8  # full pairing each level

    def test_positional_pairing(self, rng):
        r = random_reverse_delta(8, rng, shuffle_pairing=False)
        strides = [abs(g.a - g.b) for lvl in r.levels_flat() for g in lvl]
        assert strides == [1] * 4 + [2] * 4 + [4] * 4

    def test_random_iterated(self, rng):
        it = random_iterated_rdn(8, 3, rng)
        assert it.k == 3
        assert it.blocks[0][0] is not None  # random inter perms present


class TestBitonic:
    def test_phase_bounds(self):
        with pytest.raises(TopologyError):
            bitonic_phase_rdn(8, 0)
        with pytest.raises(TopologyError):
            bitonic_phase_rdn(8, 4)

    def test_phase_level_population(self):
        # phase p populates only the top p executed... i.e. last p levels
        ph2 = bitonic_phase_rdn(16, 2)
        counts = ph2.comparator_count_by_level()
        assert counts == [0, 0, 8, 8]

    def test_full_bitonic_sorts_random(self, rng):
        net = bitonic_iterated_rdn(32).to_network()
        for _ in range(25):
            x = rng.permutation(32)
            assert (net.evaluate(x) == np.arange(32)).all()

    def test_bitonic_depth_and_size(self):
        n, d = 16, 4
        it = bitonic_iterated_rdn(n)
        assert it.k == d
        assert it.depth == d * d
        assert it.size == n * d * (d + 1) // 4

    @pytest.mark.parametrize("n", [2, 16, 256])
    @pytest.mark.parametrize("phases", [0, 1, 2, 3, 8, 9, -1])
    def test_phase_prefix_equals_truncated_full_build(self, n, phases):
        """Building only the first phases gives the truncated full sorter,
        block for block and byte for byte."""
        from repro.experiments.workloads import iterated_family, truncated_bitonic
        from repro.networks import serialize

        want = bitonic_iterated_rdn(n).truncated(phases)
        for got in (
            bitonic_iterated_rdn(n, phases),
            truncated_bitonic(n, phases),
            iterated_family("bitonic", n, phases, np.random.default_rng(0)),
        ):
            assert got.k == want.k
            for (perm, block), (want_perm, want_block) in zip(
                got.blocks, want.blocks
            ):
                assert perm is None and want_perm is None
                assert serialize.rdn_to_json(block) == serialize.rdn_to_json(
                    want_block
                )
            assert serialize.dumps(got) == serialize.dumps(want)
            assert serialize.dumps(got.to_network()) == serialize.dumps(
                want.to_network()
            )

    def test_single_phase_merges_bitonic_runs(self, rng):
        """After p phases the output is runs of 2^p, alternately asc/desc."""
        n = 16
        net = bitonic_iterated_rdn(n).truncated(3).to_network()
        x = rng.permutation(n)
        out = net.evaluate(x)
        first, second = out[:8], out[8:]
        assert (np.diff(first) >= 0).all(), (x, out)
        assert (np.diff(second) <= 0).all(), (x, out)
