"""The explicit-rng contract: no hidden default streams anywhere.

Historically both :func:`run_adversary` and :func:`run_lemma41` fell
back to ``np.random.default_rng(0)`` when no generator was passed, so
every caller that forgot the argument silently shared one pinned
stream -- exactly the defect class ``flow/unseeded-rng-path`` exists to
catch.  The fallbacks are gone: deterministic strategies never draw, and
stochastic ones refuse to run unseeded.
"""

import numpy as np
import pytest

from repro.core.adversary import run_lemma41
from repro.core.iterate import run_adversary
from repro.core.pattern import all_medium_pattern
from repro.errors import GuaranteeError, PatternError, ReproError
from repro.networks.builders import bitonic_iterated_rdn, butterfly_rdn


class TestStochasticStrategiesRequireRng:
    def test_lemma41_random_shift_without_rng_raises(self):
        with pytest.raises(PatternError, match="seed-derived"):
            run_lemma41(
                butterfly_rdn(8),
                all_medium_pattern(8),
                2,
                shift_strategy="random",
            )

    def test_adversary_random_choice_without_rng_raises(self):
        network = bitonic_iterated_rdn(16).truncated(2)
        with pytest.raises(PatternError, match="seed-derived"):
            run_adversary(network, set_choice="random")

    def test_deterministic_paths_need_no_rng(self):
        # argmin/largest never draw, so omitting rng stays legal
        network = bitonic_iterated_rdn(16).truncated(2)
        run = run_adversary(network)
        assert run.blocks_processed >= 1

    def test_random_paths_with_rng_still_work(self):
        network = bitonic_iterated_rdn(16).truncated(2)
        run = run_adversary(
            network,
            set_choice="random",
            shift_strategy="random",
            rng=np.random.default_rng(11),
        )
        assert run.blocks_processed >= 1


class TestGuaranteeError:
    def test_dual_inheritance(self):
        # harnesses catching AssertionError and the CLI catching
        # ReproError must both see a guarantee violation
        assert issubclass(GuaranteeError, ReproError)
        assert issubclass(GuaranteeError, AssertionError)

    def test_violation_raises_guarantee_error(self, monkeypatch):
        # argmin meets the bound on every real block, so force a
        # violation by inflating the claimed guarantee: the raise must
        # carry the typed error, not a bare AssertionError
        from repro.core import adversary as adv

        monkeypatch.setattr(
            adv.Lemma41Result,
            "guarantee",
            property(lambda self: float(self.a_size) + 1.0),
        )
        with pytest.raises(GuaranteeError, match="guarantee violated"):
            run_lemma41(butterfly_rdn(8), all_medium_pattern(8), 2)

    def test_bound_holds_on_a_real_block(self):
        result = run_lemma41(butterfly_rdn(8), all_medium_pattern(8), 2)
        assert result.b_size >= result.guarantee - 1e-9
