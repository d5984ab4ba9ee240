"""Tests for the adaptive builder-vs-adversary duel (E9 machinery)."""

import numpy as np
import pytest

from repro.core.adversary import run_lemma41
from repro.core.iterate import run_adversary
from repro.core.pattern import all_medium_pattern
from repro.experiments.adaptive import (
    BUILDER_STRATEGIES,
    build_adaptive_block,
    run_duel,
)
from repro.networks.delta import IteratedReverseDeltaNetwork


class TestBuildAdaptiveBlock:
    @pytest.mark.parametrize("strategy", list(BUILDER_STRATEGIES))
    def test_produces_valid_rdn(self, strategy, rng):
        n = 16
        block = build_adaptive_block(all_medium_pattern(n), 4, strategy, rng)
        assert block.levels == 4
        assert set(block.wires) == set(range(n))

    @pytest.mark.parametrize("strategy", list(BUILDER_STRATEGIES))
    def test_built_block_meets_the_lemma_floor(self, strategy, rng):
        """The real run_lemma41 on a built block keeps Lemma 4.1's floor."""
        n = 16
        p = all_medium_pattern(n)
        block = build_adaptive_block(p, 4, strategy, np.random.default_rng(3))
        res = run_lemma41(block, p, 4)
        assert res.b_size >= res.guarantee - 1e-9

    @pytest.mark.parametrize("n", [16, 32, 64, 256])
    def test_aligned_builder_makes_the_adversary_demote_nothing(self, n):
        """Every collision the aligned builder places lands on shift 0."""
        p = all_medium_pattern(n)
        block = build_adaptive_block(p, 4, "aligned", np.random.default_rng(3))
        res = run_lemma41(block, p, 4)
        assert res.trace.total_collisions > 0
        assert res.trace.total_demoted == 0

    def test_spread_loads_diagonals(self, rng):
        """The spread builder forces strictly more loss than aligned."""
        n = 32
        p = all_medium_pattern(n)
        spread = build_adaptive_block(p, 2, "spread", np.random.default_rng(1))
        aligned = build_adaptive_block(p, 2, "aligned", np.random.default_rng(1))
        res_spread = run_lemma41(spread, p, 2)
        res_aligned = run_lemma41(aligned, p, 2)
        assert res_spread.b_size <= res_aligned.b_size


class TestDuel:
    def test_duel_runs_and_terminates(self):
        duel = run_duel(16, 10, "spread", seed=1)
        assert duel.survivor_sizes
        assert duel.survivor_sizes[-1] < 2 or duel.blocks_survived == 10
        assert duel.network is not None

    def test_duel_consistent_with_full_replay(self):
        duel = run_duel(32, 8, "random", seed=2)
        replay = run_adversary(
            duel.network, k=duel.k, rng=np.random.default_rng(2),
            stop_when_dead=True,
        )
        assert replay.sizes()[: len(duel.survivor_sizes)] == duel.survivor_sizes

    def test_duel_never_beats_theorem(self):
        """Even the strongest builder obeys the per-block floor."""
        from repro.core.iterate import theorem41_guarantee

        duel = run_duel(64, 6, "spread", seed=0)
        for d, size in enumerate(duel.survivor_sizes, start=1):
            assert size >= theorem41_guarantee(64, d) - 1e-9
