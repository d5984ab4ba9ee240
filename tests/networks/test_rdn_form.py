"""The leaf-order-plus-levels form of a reverse delta network.

A :class:`ReverseDeltaNetwork` is its depth-first leaf order and one
level per height, validated once by array tests.  These tests pin the
cases the constructor refuses, compare the one-pass builders with the
node-composing recursions they replaced (``builders_reference.py``), and
check that no producer leaves a reference cycle behind that keeps a
dropped network's level arrays, or the gates read from them, alive until
the next full collection.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.properties import reconstruct_reverse_delta
from repro.core.attack import recognize_iterated_rdn
from repro.core.pattern import all_medium_pattern
from repro.errors import TopologyError
from repro.experiments.adaptive import build_adaptive_block
from repro.experiments.e8_average_case import faulty_bitonic, sorting_biased_block
from repro.networks import serialize
from repro.networks.builders import (
    butterfly_rdn,
    empty_rdn,
    random_reverse_delta,
    rdn_from_bit_order,
    truncated_rdn,
)
from repro.networks.delta import IteratedReverseDeltaNetwork, ReverseDeltaNetwork
from repro.networks.gates import Op, comparator
from repro.networks.level import Level

from .builders_reference import (
    reference_random_reverse_delta,
    reference_rdn_from_bit_order,
)


def _form(rdn: ReverseDeltaNetwork) -> tuple[list[int], list[tuple]]:
    return rdn.leaf_order.tolist(), [lvl.gates for lvl in rdn.levels_flat()]


class TestConstructor:
    def test_rank_is_the_leaf_position(self):
        rdn = ReverseDeltaNetwork(
            [6, 2, 0, 4], [[comparator(6, 2)], [comparator(2, 4)]]
        )
        assert rdn.rank.tolist() == [2, -1, 1, -1, 3, -1, 0]
        assert rdn.wires == (0, 2, 4, 6)
        assert rdn.levels == 2 and rdn.n == 4 and not rdn.covers(4)
        assert rdn.child0.wires == (2, 6) and rdn.child1.final == ()
        assert [g.wires for g in rdn.child0.final] == [(6, 2)]

    def test_levels_may_be_level_objects(self):
        level = Level([comparator(0, 1)])
        rdn = ReverseDeltaNetwork([0, 1], [level])
        assert rdn.levels_flat()[0] is level

    @pytest.mark.parametrize(
        "leaf_order, levels",
        [
            pytest.param([0, 1, 1, 2], [[], []], id="repeated-leaf"),
            pytest.param([0, 1, 2], [[], []], id="leaf-count"),
            pytest.param([0, 1, 2, 3], [[]], id="too-few-levels"),
            pytest.param(
                [0, 1, 2, 3], [[comparator(1, 2)], []], id="gate-joins-two-nodes"
            ),
            pytest.param(
                [0, 1, 2, 3], [[], [comparator(2, 0)]], id="child-1-end-first"
            ),
            pytest.param(
                [0, 2, 4, 6], [[comparator(0, 1)], []], id="unowned-wire-inside"
            ),
            pytest.param(
                [0, 1, 2, 3], [[], [comparator(1, 9)]], id="unowned-wire-beyond"
            ),
            pytest.param(
                [0, 1, 2, 3],
                [[], [comparator(0, 2), comparator(0, 3)]],
                id="two-gates-on-one-wire",
            ),
        ],
    )
    def test_rejects(self, leaf_order, levels):
        with pytest.raises(TopologyError):
            ReverseDeltaNetwork(leaf_order, levels)

    def test_with_final_checks_the_new_level(self):
        rdn = butterfly_rdn(4)
        with pytest.raises(TopologyError):
            rdn.with_final([comparator(0, 1)])
        with pytest.raises(TopologyError):
            ReverseDeltaNetwork.leaf(0).with_final([])

    def test_map_wires_must_stay_injective(self):
        with pytest.raises(TopologyError):
            empty_rdn(4).map_wires(lambda w: w // 2)

    def test_derived_tree_reads_back_the_form(self):
        rdn = random_reverse_delta(16, np.random.default_rng(7), p_gate=0.7)
        nodes = list(rdn.nodes())
        assert len(nodes) == 31 and nodes[-1] is rdn
        leaves = [node.leaf_order[0] for node in nodes if node.is_leaf]
        assert leaves == rdn.leaf_order.tolist()
        rebuilt = ReverseDeltaNetwork.node(rdn.child0, rdn.child1, rdn.final)
        assert _form(rebuilt) == _form(rdn)


@st.composite
def random_builds(draw):
    return dict(
        n=1 << draw(st.integers(0, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
        p_gate=draw(st.sampled_from([1.0, 0.8, 0.4])),
        p_minus=draw(st.sampled_from([0.0, 0.5, 1.0])),
        p_exchange=draw(st.sampled_from([0.0, 0.2, 0.6])),
        shuffle_pairing=draw(st.booleans()),
    )


class TestBuildersMatchTheRecursion:
    @settings(max_examples=80, deadline=None)
    @given(random_builds())
    def test_random_reverse_delta(self, case):
        seed, n = case.pop("seed"), case.pop("n")
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        built = random_reverse_delta(n, rng, **case)
        expected = reference_random_reverse_delta(n, oracle_rng, **case)
        assert _form(built) == _form(expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(
        log_n=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
        relabel=st.booleans(),
        data=st.data(),
    )
    def test_rdn_from_bit_order(self, log_n, seed, relabel, data):
        n = 1 << log_n
        bit_order = data.draw(st.permutations(range(log_n)))
        wires = None
        if relabel:
            wires = data.draw(
                st.lists(
                    st.integers(0, 4 * n), min_size=n, max_size=n, unique=True
                )
            )
        choices = (None, Op.PLUS, Op.MINUS, Op.NOP, Op.SWAP)

        def chooser_from(rng, calls):
            def choose(height, bit, low_wire):
                calls.append((height, bit, low_wire))
                return choices[int(rng.integers(len(choices)))]

            return choose

        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        calls, oracle_calls = [], []
        built = rdn_from_bit_order(n, bit_order, chooser_from(rng, calls), wires)
        expected = reference_rdn_from_bit_order(
            n, bit_order, chooser_from(oracle_rng, oracle_calls), wires
        )
        assert _form(built) == _form(expected)
        assert calls == oracle_calls
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _block(net):
    return net if isinstance(net, ReverseDeltaNetwork) else net.blocks[-1][1]


#: Every producer of a network, and a call that makes one.
PRODUCERS = {
    "random_reverse_delta": lambda: random_reverse_delta(
        64, np.random.default_rng(1), p_gate=0.8, p_exchange=0.1
    ),
    "rdn_from_bit_order": lambda: butterfly_rdn(64),
    "truncated_rdn": lambda: truncated_rdn(
        random_reverse_delta(64, np.random.default_rng(2)), 3
    ),
    "serialize.loads": lambda: serialize.loads(
        serialize.dumps(random_reverse_delta(64, np.random.default_rng(3)))
    ),
    "serialize.loads-iterated": lambda: serialize.loads(
        serialize.dumps(
            IteratedReverseDeltaNetwork(64, [(None, butterfly_rdn(64))])
        )
    ),
    "reconstruct_reverse_delta": lambda: reconstruct_reverse_delta(
        random_reverse_delta(64, np.random.default_rng(4)).to_network()
    ),
    "recognize_iterated_rdn": lambda: recognize_iterated_rdn(
        IteratedReverseDeltaNetwork(64, [(None, butterfly_rdn(64))]).to_network()
    ),
    "e8.sorting_biased_block": lambda: sorting_biased_block(
        64, np.random.default_rng(5)
    ),
    "e8.faulty_bitonic": lambda: faulty_bitonic(64, 6, 3),
    "adaptive.build_adaptive_block": lambda: build_adaptive_block(
        all_medium_pattern(64), 6, "spread", np.random.default_rng(6)
    ),
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_dropped_network_frees_its_gates_without_gc(name):
    """With the cycle collector off, reference counting alone must free
    a dropped network's storage (a level's endpoint array) and the gates
    read from it: no producer, and no read of the form or the derived
    tree, may leave a reference cycle that holds them."""
    gc.collect()
    gc.disable()
    try:
        net = PRODUCERS[name]()
        rdn = _block(net)
        rdn.to_network()
        serialize.dumps(rdn)
        sum(1 for _ in rdn.child0.nodes())
        level = next(level for level in rdn.levels_flat() if len(level))
        gate_ref = weakref.ref(next(iter(level)))
        ends_ref = weakref.ref(level.arrays[0])
        del level, rdn, net
        assert gate_ref() is None, f"{name}: a gate outlived its network"
        assert ends_ref() is None, f"{name}: a level array outlived its network"
    finally:
        gc.enable()
