"""A pattern as symbol codes against a pattern as a ``Pattern``.

``run_lemma41`` and ``extract_fooling_pair`` take either form; the
Theorem 4.1 loop hands them codes.  Both forms must give the same run,
be refused alike, and refine to the same input with the same draws as
the group-by-group loop ``Pattern.refine_to_input`` used to run, kept
here as the oracle ``_group_loop_refinement``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adversary import run_lemma41
from repro.core.alphabet import L, M, S, X
from repro.core.pattern import Pattern, _keys, _refine
from repro.errors import PatternError
from repro.networks.builders import random_reverse_delta

LARGE = 1 << 62
CODE = {S(0): 0, L(0): LARGE}


def _codes(pattern: Pattern) -> np.ndarray:
    n = pattern.n
    return np.array([CODE.get(s, n) for s in pattern], dtype=np.int64)


def _group_loop_refinement(pattern: Pattern, rng=None) -> np.ndarray:
    """The refinement as it was: one shuffled list per symbol group."""
    values = np.empty(pattern.n, dtype=np.int64)
    next_value = 0
    for _, wires in pattern.groups_in_order():
        wires = list(wires)
        if rng is not None:
            rng.shuffle(wires)
        for w in wires:
            values[w] = next_value
            next_value += 1
    return values


@settings(max_examples=120, deadline=None)
@given(
    log_n=st.integers(0, 6),
    seed=st.integers(0, 2**31),
    symbols=st.lists(st.sampled_from([S(0), M(0), L(0)]), min_size=64, max_size=64),
    k=st.integers(1, 4),
    strategy=st.sampled_from(["argmin", "random", "worst"]),
)
def test_run_lemma41_on_codes_matches_the_pattern_run(log_n, seed, symbols, k, strategy):
    n = 1 << log_n
    block = random_reverse_delta(n, np.random.default_rng(seed), p_exchange=0.2)
    pattern = Pattern(symbols[:n])
    runs = []
    for form in (pattern, _codes(pattern)):
        rng = np.random.default_rng(seed)
        try:
            result = run_lemma41(block, form, k, shift_strategy=strategy, rng=rng)
        except PatternError as exc:  # the guarantee or a demotion bug
            runs.append((type(exc), str(exc)))
            continue
        runs.append((result, rng.random()))
    if not isinstance(runs[0][0], type):
        (got, got_next), (want, want_next) = runs[1], runs[0]
        for name in ("refined_codes", "output_codes", "tokens"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.sets == want.sets and got.b_size == want.b_size
        assert got.trace.nodes == want.trace.nodes
        assert got_next == want_next
    else:
        assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "symbols, codes",
    [
        ([M(0), X(0, 1), L(0), S(0)], [4, 2, LARGE, 0]),  # a demoted symbol
        ([M(1), M(0), L(0), S(0)], [8, 4, LARGE, 0]),  # a higher band
        ([M(0), S(1), L(0), S(0)], [4, -1, LARGE, 0]),  # no symbol at all
        ([M(0), S(0)], [2, 0]),  # wrong width
        ([M(0)] * 8, [8] * 8),  # wrong width
    ],
)
def test_codes_are_refused_as_the_pattern_is(symbols, codes):
    block = random_reverse_delta(4, np.random.default_rng(0))
    with pytest.raises(PatternError) as want:
        run_lemma41(block, Pattern(symbols), 2)
    with pytest.raises(PatternError) as got:
        run_lemma41(block, np.array(codes, dtype=np.int64), 2)
    assert got.type is want.type


@pytest.mark.parametrize("codes", [np.zeros((2, 2), dtype=np.int64), np.zeros(4)])
def test_codes_must_be_one_dimensional_integers(codes):
    block = random_reverse_delta(4, np.random.default_rng(0)) if codes.size == 4 else None
    with pytest.raises(PatternError):
        _keys(codes)
    if block is not None:
        with pytest.raises(PatternError):
            run_lemma41(block, codes, 2)


@settings(max_examples=200, deadline=None)
@given(
    symbols=st.lists(
        st.sampled_from([S(0), S(1), X(0, 0), X(0, 3), M(0), M(1), L(2), L(0)]),
        min_size=1,
        max_size=300,
    ),
    seed=st.one_of(st.none(), st.integers(0, 2**31)),
)
def test_shared_refinement_matches_the_group_loop(symbols, seed):
    pattern = Pattern(symbols)
    rngs = [None if seed is None else np.random.default_rng(seed) for _ in range(3)]
    want = _group_loop_refinement(pattern, rngs[0])
    assert np.array_equal(pattern.refine_to_input(rngs[1]), want)
    # on order-preserving codes, as the Theorem 4.1 loop hands them over
    codes = _keys(pattern) * 7 + 3
    assert np.array_equal(_refine(codes, rngs[2]), want)
    if seed is not None:
        states = [rng.bit_generator.state for rng in rngs]
        assert states[0] == states[1] == states[2]
