"""Unit tests for collision classification (Definitions 3.6, 3.7)."""

import numpy as np
import pytest

from repro.core.alphabet import L, M, S
from repro.core.collision import (
    CollisionStatus,
    classify_collision,
    collide_under_input,
    is_noncolliding_set,
    is_noncolliding_under_input,
    noncolliding_certificate,
)
from repro.core.pattern import Pattern
from repro.errors import PatternError
from repro.networks.gates import comparator, exchange
from repro.networks.network import ComparatorNetwork


def example_33_network() -> ComparatorNetwork:
    """The network of the paper's Example 3.3.

    Comparators (w1,w2), then (w2,w3), then (w0,w3), all directed toward
    the larger index.
    """
    return ComparatorNetwork(
        4, [[comparator(1, 2)], [comparator(2, 3)], [comparator(0, 3)]]
    )


def example_33_pattern() -> Pattern:
    return Pattern([S(0), M(0), M(0), L(0)])


class TestExample33:
    """Verbatim checks of the paper's Example 3.3 (1)-(3)."""

    def test_w1_w2_collide(self):
        status = classify_collision(example_33_network(), example_33_pattern(), 1, 2)
        assert status is CollisionStatus.COLLIDES

    def test_w1_w3_can_collide(self):
        status = classify_collision(example_33_network(), example_33_pattern(), 1, 3)
        assert status is CollisionStatus.CAN_COLLIDE

    def test_w2_w3_can_collide(self):
        status = classify_collision(example_33_network(), example_33_pattern(), 2, 3)
        assert status is CollisionStatus.CAN_COLLIDE

    def test_w0_w3_collide(self):
        status = classify_collision(example_33_network(), example_33_pattern(), 0, 3)
        assert status is CollisionStatus.COLLIDES

    def test_w0_w1_cannot_collide(self):
        status = classify_collision(example_33_network(), example_33_pattern(), 0, 1)
        assert status is CollisionStatus.CANNOT_COLLIDE

    def test_w0_w2_cannot_collide(self):
        status = classify_collision(example_33_network(), example_33_pattern(), 0, 2)
        assert status is CollisionStatus.CANNOT_COLLIDE


class TestInputCollision:
    def test_collide_under_input(self):
        net = ComparatorNetwork(3, [[comparator(0, 1)], [comparator(1, 2)]])
        # input [2,1,0]: gate 1 compares 2,1 -> [1,2,0]; gate 2 compares 2,0
        assert collide_under_input(net, [2, 1, 0], 0, 1)
        assert collide_under_input(net, [2, 1, 0], 0, 2)
        assert not collide_under_input(net, [2, 1, 0], 1, 2)

    def test_exchange_is_not_collision(self):
        net = ComparatorNetwork(2, [[exchange(0, 1)]])
        assert not collide_under_input(net, [1, 0], 0, 1)

    def test_noncolliding_under_input(self):
        net = ComparatorNetwork(3, [[comparator(0, 1)], [comparator(1, 2)]])
        assert is_noncolliding_under_input(net, [2, 1, 0], [1, 2])
        assert not is_noncolliding_under_input(net, [2, 1, 0], [0, 1, 2])


class TestCertificate:
    def test_certificate_positive(self):
        """Disjoint comparator pairs: the two untouched wires never collide."""
        net = ComparatorNetwork(4, [[comparator(0, 1), comparator(2, 3)]])
        p = Pattern([M(0), L(0), L(0), M(0)])
        assert noncolliding_certificate(net, p, [0, 3])

    def test_certificate_negative_on_meeting(self):
        net = ComparatorNetwork(2, [[comparator(0, 1)]])
        p = Pattern([M(0), M(0)])
        assert not noncolliding_certificate(net, p, [0, 1])

    def test_requires_shared_symbol(self):
        net = ComparatorNetwork(2, [[comparator(0, 1)]])
        p = Pattern([M(0), L(0)])
        with pytest.raises(PatternError):
            noncolliding_certificate(net, p, [0, 1])

    def test_requires_full_symbol_class(self):
        net = ComparatorNetwork(3, [[comparator(0, 1)]])
        p = Pattern([M(0), L(0), M(0)])
        with pytest.raises(PatternError):
            noncolliding_certificate(net, p, [0])  # M(0) also on wire 2

    @pytest.mark.parametrize(
        "symbols, wires",
        [
            ([M(0)] + [L(0)] * 6 + [M(0)], [0, 7]),  # was "proved" noncolliding
            ([M(0), M(0)], [0, 1]),  # was reported colliding
        ],
    )
    def test_refuses_a_pattern_of_another_width(self, symbols, wires):
        net = ComparatorNetwork(4, [[comparator(0, 1), comparator(2, 3)]])
        with pytest.raises(PatternError, match="network has 4"):
            noncolliding_certificate(net, Pattern(symbols), wires)

    def test_empty_and_singleton_trivial(self):
        net = ComparatorNetwork(2, [[comparator(0, 1)]])
        p = Pattern([M(0), L(0)])
        assert is_noncolliding_set(net, p, [])
        assert is_noncolliding_set(net, p, [0])

    def test_certificate_agrees_with_enumeration(self, rng):
        """Certificate True must imply enumeration True (soundness)."""
        for _ in range(10):
            n = 4
            gates_pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
            levels = []
            for _ in range(3):
                a, b = gates_pool[rng.integers(len(gates_pool))]
                levels.append([comparator(a, b)])
            net = ComparatorNetwork(n, levels)
            syms = [S(0)] * n
            w0, w1 = rng.choice(n, size=2, replace=False)
            syms[w0] = syms[w1] = M(0)
            p = Pattern(syms)
            cert = noncolliding_certificate(net, p, [w0, w1])
            if cert:
                assert is_noncolliding_set(net, p, [w0, w1], method="enumerate")

    def test_sample_method_refutes(self, rng):
        net = ComparatorNetwork(2, [[comparator(0, 1)]])
        p = Pattern([M(0), M(0)])
        assert not is_noncolliding_set(net, p, [0, 1], method="sample", rng=rng)

    def test_unknown_method(self):
        net = ComparatorNetwork(2, [[comparator(0, 1)]])
        with pytest.raises(PatternError):
            is_noncolliding_set(net, Pattern([M(0), M(0)]), [0, 1], method="nope")

    def test_sample_method_is_deterministic_without_rng(self):
        """Regression: sampling must not draw from OS entropy.

        With no ``rng`` argument the sample method seeds its own
        generator from the ``seed`` parameter (default 0), so two
        identical calls agree -- the unseeded ``default_rng()`` this
        replaces could disagree between runs near the decision
        boundary.
        """
        net = ComparatorNetwork(
            4, [[comparator(1, 2)], [comparator(2, 3)], [comparator(0, 3)]]
        )
        p = Pattern([S(0), M(0), M(0), L(0)])
        first = is_noncolliding_set(net, p, [1, 2], method="sample")
        second = is_noncolliding_set(net, p, [1, 2], method="sample")
        assert first == second
        # an explicit seed reproduces the same draws as a hand-built rng
        assert is_noncolliding_set(
            net, p, [0, 3], method="sample", seed=7
        ) == is_noncolliding_set(
            net, p, [0, 3], method="sample",
            rng=np.random.default_rng(7),
        )


class TestEnumerationGuard:
    def test_cap_enforced(self):
        net = ComparatorNetwork(8, [[comparator(0, 1)]])
        p = Pattern([M(0)] * 8)
        with pytest.raises(PatternError):
            classify_collision(net, p, 0, 1, max_inputs=10)


class TestRefinementMonotonicity:
    def test_collides_preserved_under_refinement(self):
        """If wires collide under p, they collide under any refinement."""
        net = example_33_network()
        p = example_33_pattern()
        # refine: make w1's symbol smaller than w2's
        from repro.core.alphabet import X

        q = Pattern([S(0), X(0, 0), M(0), L(0)])
        assert p.refines_to(q)
        assert classify_collision(net, q, 1, 2) is CollisionStatus.COLLIDES

    def test_cannot_collide_preserved_under_refinement(self):
        net = example_33_network()
        from repro.core.alphabet import X

        q = Pattern([S(0), X(0, 0), M(0), L(0)])
        assert classify_collision(net, q, 0, 1) is CollisionStatus.CANNOT_COLLIDE
