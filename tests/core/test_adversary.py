"""Unit tests for the executable Lemma 4.1 (repro.core.adversary)."""

import numpy as np
import pytest

from repro.core.adversary import SHIFT_STRATEGIES, run_lemma41, t_sets
from repro.core.collision import (
    is_noncolliding_under_input,
    noncolliding_certificate,
)
from repro.core.pattern import Pattern, all_medium_pattern, sml_pattern
from repro.errors import PatternError
from repro.networks.builders import (
    butterfly_rdn,
    random_reverse_delta,
    shuffle_split_rdn,
    truncated_rdn,
)


class TestTSets:
    def test_formula(self):
        assert t_sets(0, 2) == 8
        assert t_sets(3, 2) == 8 + 12
        assert t_sets(5, 5) == 125 + 125


class TestLemma41Properties:
    """The four properties of Lemma 4.1, checked on concrete blocks."""

    @pytest.mark.parametrize("family", ["butterfly", "shuffle", "random"])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_all_properties(self, family, n, rng):
        if family == "butterfly":
            block = butterfly_rdn(n)
        elif family == "shuffle":
            block = shuffle_split_rdn(n)
        else:
            block = random_reverse_delta(n, rng)
        p = all_medium_pattern(n)
        k = max(2, (n.bit_length() - 1) // 2)
        res = run_lemma41(block, p, k)
        l = block.levels
        net = block.to_network()
        # Property 1: every M_i is the [M_i]-set of q
        for i, m_set in res.sets.items():
            assert res.pattern.m_set(i) == m_set
        # no stray medium symbols
        mediums = {s.i for s in res.pattern.symbol_set() if s.is_medium}
        assert mediums == set(res.sets)
        # Property 2: every set noncolliding (symbolic certificate)
        for i, m_set in res.sets.items():
            assert noncolliding_certificate(net, res.pattern, m_set), i
        # Property 3: B subset of A
        assert res.union() <= p.m_set(0)
        # Property 4: retention floor
        assert res.b_size >= res.a_size * (1 - l / k**2) - 1e-9
        # q is an A-refinement of p
        assert p.u_refines_to(res.pattern, p.m_set(0))

    def test_zero_level_block_identity(self):
        """l = 0: a single wire is returned unchanged (base case)."""
        from repro.networks.delta import ReverseDeltaNetwork

        leaf = ReverseDeltaNetwork.leaf(0)
        p = Pattern([__import__("repro.core.alphabet", fromlist=["M"]).M(0)])
        res = run_lemma41(leaf, p, k=3)
        assert res.sets == {0: frozenset({0})}
        assert res.pattern == p

    def test_partial_medium_set(self, rng):
        """Lemma applies to any S/M/L pattern, not only all-medium."""
        n = 16
        block = butterfly_rdn(n)
        p = sml_pattern(n, medium=[2, 3, 5, 7, 11, 13], large=[0, 1], small=[])
        res = run_lemma41(block, p, k=3)
        assert res.a_size == 6
        assert res.union() <= {2, 3, 5, 7, 11, 13}
        # untouched wires keep their symbols
        for w in range(n):
            if w not in p.m_set(0):
                assert res.pattern[w] is p[w]

    def test_empty_medium_set(self):
        n = 8
        block = butterfly_rdn(n)
        p = sml_pattern(n, medium=[], large=range(n))
        res = run_lemma41(block, p, k=2)
        assert res.sets == {}
        assert res.b_size == 0
        assert res.retained_fraction == 1.0

    def test_truncated_block_loses_nothing_extra(self, rng):
        """Fewer populated levels => at least as much retention."""
        n = 32
        full = random_reverse_delta(n, rng)
        res_full = run_lemma41(full, all_medium_pattern(n), k=3)
        trunc = truncated_rdn(full, 2)
        res_trunc = run_lemma41(trunc, all_medium_pattern(n), k=3)
        assert res_trunc.b_size >= res_full.b_size

    def test_set_indices_below_t(self, rng):
        n = 32
        res = run_lemma41(random_reverse_delta(n, rng), all_medium_pattern(n), k=2)
        assert all(0 <= i < res.t for i in res.sets)


class TestStateConsistency:
    def test_output_state_matches_token_propagation(self, rng):
        """Token positions in the result equal independent propagation."""
        from repro.core.propagate import propagate_with_tokens

        n = 16
        block = random_reverse_delta(n, rng)
        res = run_lemma41(block, all_medium_pattern(n), k=3)
        net = block.to_network()
        tracked = sorted(res.union())
        # independent propagation of the refined pattern
        state = propagate_with_tokens(net, res.pattern, tracked)
        assert state.origin == res.state.origin
        assert state.symbols == res.state.symbols

    def test_concrete_routing_matches_tokens(self, rng):
        """A concrete refinement routes special values to token positions."""
        n = 16
        block = butterfly_rdn(n)
        res = run_lemma41(block, all_medium_pattern(n), k=4)
        net = block.to_network()
        values = res.pattern.refine_to_input(rng=rng)
        out = net.evaluate(values)
        for pos, wire in res.state.origin.items():
            assert out[pos] == values[wire]


class TestStrategies:
    def test_argmin_never_worse_than_others(self, rng):
        n = 64
        block = random_reverse_delta(n, rng)
        p = all_medium_pattern(n)
        sizes = {}
        for name in SHIFT_STRATEGIES:
            res = run_lemma41(
                block, p, k=3, shift_strategy=name,
                rng=np.random.default_rng(7),
            )
            sizes[name] = res.b_size
        assert sizes["argmin"] >= sizes["random"]
        assert sizes["argmin"] >= sizes["worst"]

    def test_custom_strategy_callable(self, rng):
        n = 8
        block = butterfly_rdn(n)
        calls = []

        def strategy(losses, k, gen):
            calls.append(len(losses))
            return 0

        run_lemma41(block, all_medium_pattern(n), 2, shift_strategy=strategy)
        assert calls and all(c == 4 for c in calls)

    def test_bad_strategy_return_rejected(self):
        n = 4
        block = butterfly_rdn(n)
        with pytest.raises(PatternError):
            run_lemma41(
                block, all_medium_pattern(n), 2,
                shift_strategy=lambda losses, k, gen: 99,
            )


class TestValidation:
    def test_k_positive(self):
        with pytest.raises(PatternError):
            run_lemma41(butterfly_rdn(4), all_medium_pattern(4), 0)

    def test_pattern_must_be_sml(self):
        from repro.core.alphabet import M

        p = Pattern([M(1)] * 4)
        from repro.errors import RefinementError

        with pytest.raises(RefinementError):
            run_lemma41(butterfly_rdn(4), p, 2)

    def test_block_must_cover_wires(self):
        sub = butterfly_rdn(4)
        with pytest.raises(PatternError):
            run_lemma41(sub, all_medium_pattern(8), 2)


class TestTrace:
    def test_trace_shape(self, rng):
        n = 16
        res = run_lemma41(random_reverse_delta(n, rng), all_medium_pattern(n), k=2)
        assert len(res.trace.nodes) == n - 1  # internal tree nodes
        heights = sorted({rec.height for rec in res.trace.nodes})
        assert heights == [1, 2, 3, 4]
        assert res.trace.total_demoted == res.a_size - res.b_size

    def test_demoted_by_height_sums(self, rng):
        n = 16
        res = run_lemma41(
            random_reverse_delta(n, rng), all_medium_pattern(n), k=2,
            shift_strategy="worst",
        )
        by_height = res.trace.demoted_by_height()
        assert sum(by_height.values()) == res.trace.total_demoted
