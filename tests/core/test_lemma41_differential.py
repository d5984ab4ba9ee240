"""The Lemma 4.1 height sweep against the post-order recursion it replaced.

``run_lemma41`` runs the proof's induction one tree height at a time
over array symbol codes; ``lemma41_reference.reference_lemma41`` is the
literal node-by-node recursion over :class:`Symbol` objects.  On random
blocks (sparse final levels, exchanges and NOPs), random S/M/L input
patterns and every shift strategy, the two must agree on everything the
lemma returns -- or raise the same error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adversary import run_lemma41
from repro.core.alphabet import L, M, S
from repro.core.pattern import Pattern
from repro.errors import GuaranteeError, PatternError, PropagationError
from repro.networks.builders import random_reverse_delta, rdn_from_bit_order
from repro.networks.gates import Op

from .lemma41_reference import reference_lemma41

ERRORS = (PropagationError, PatternError, GuaranteeError)


def _spread(losses, k, rng):
    """Deterministic, uses the whole table."""
    return (sum((s + 1) * v for s, v in enumerate(losses)) + k) % len(losses)


def _overshoot(losses, k, rng):
    """Out of range whenever a node saw two or more matched collisions."""
    return len(losses) if sum(losses) >= 2 else 0


def _last_max(losses, k, rng):
    """Ties broken towards the largest shift."""
    return max(range(len(losses)), key=lambda s: (losses[s], s))


STRATEGIES = ["argmin", "worst", "random", _spread, _overshoot, _last_max]


@st.composite
def blocks(draw):
    """A random block on n <= 64 wires with comparators, exchanges and NOPs."""
    log_n = draw(st.integers(0, 6))
    n = 1 << log_n
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        return random_reverse_delta(
            n,
            rng,
            p_gate=draw(st.sampled_from([1.0, 0.8, 0.5, 0.2])),
            p_exchange=draw(st.sampled_from([0.0, 0.1, 0.4])),
        )
    # an arbitrary split order with every op kind, NOPs and gaps included
    bit_order = [int(b) for b in rng.permutation(log_n)]
    kinds = [Op.PLUS, Op.MINUS, Op.NOP, Op.SWAP, None]
    weights = np.array(draw(st.sampled_from(
        [(4, 4, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 0, 0, 0)]
    )), dtype=float)

    def choose(height, bit, low_wire):
        return kinds[int(rng.choice(5, p=weights / weights.sum()))]

    return rdn_from_bit_order(n, bit_order, choose)


def _outcome(fn, block, pattern, k, strategy, seed):
    rng = np.random.default_rng(seed)
    try:
        result = fn(block, pattern, k, shift_strategy=strategy, rng=rng)
    except ERRORS as exc:
        return type(exc), None, rng.random()
    return None, result, rng.random()


@settings(max_examples=250, deadline=None)
@given(
    block=blocks(),
    symbols=st.lists(st.sampled_from([S(0), M(0), L(0)]), min_size=64, max_size=64),
    k=st.integers(1, 4),
    strategy=st.sampled_from(STRATEGIES),
    seed=st.integers(0, 2**31),
)
def test_sweep_matches_recursion(block, symbols, k, strategy, seed):
    pattern = Pattern(symbols[: block.n])
    error, got, got_next = _outcome(run_lemma41, block, pattern, k, strategy, seed)
    want_error, want, want_next = _outcome(
        reference_lemma41, block, pattern, k, strategy, seed
    )
    assert error is want_error
    if error is not None:
        return
    assert got.pattern == want.pattern
    assert got.sets == want.sets
    assert got.state.symbols == want.state.symbols
    assert got.state.origin == want.state.origin
    assert got.trace.nodes == want.trace.nodes
    assert got.b_size == want.b_size
    assert (got.t, got.k, got.levels, got.a_size) == (
        want.t, want.k, want.levels, want.a_size,
    )
    # the "random" strategy consumed exactly the recursion's draws
    assert got_next == want_next


def test_out_of_range_shift_raises_pattern_error():
    block = random_reverse_delta(16, np.random.default_rng(3))
    pattern = Pattern([M(0)] * 16)
    with pytest.raises(PatternError, match="outside"):
        run_lemma41(block, pattern, 2, shift_strategy=lambda losses, k, rng: -1)
    with pytest.raises(PatternError, match="outside"):
        reference_lemma41(
            block, pattern, 2, shift_strategy=lambda losses, k, rng: -1
        )


@pytest.mark.parametrize("n", [2, 16, 64])
def test_custom_strategy_called_once_per_node_with_its_losses(n):
    """Same calls as the recursion, each with the node's k^2 loss list;
    only the order (height order, not post-order) differs."""
    block = random_reverse_delta(n, np.random.default_rng(n))
    pattern = Pattern([M(0)] * n)
    calls: dict[str, list] = {"sweep": [], "reference": []}

    def recorder(name):
        def strategy(losses, k, rng):
            calls[name].append(list(losses))
            return _spread(losses, k, rng)
        return strategy

    got = run_lemma41(block, pattern, 3, shift_strategy=recorder("sweep"))
    want = reference_lemma41(block, pattern, 3, shift_strategy=recorder("reference"))
    assert len(calls["sweep"]) == n - 1
    assert all(len(losses) == 9 for losses in calls["sweep"])
    assert sorted(calls["sweep"]) == sorted(calls["reference"])
    assert got.trace.nodes == want.trace.nodes


def test_run_lemma41_is_the_name_the_theorem_loop_calls():
    from repro.core import iterate

    assert iterate.run_lemma41 is run_lemma41


def test_k_too_large_for_the_symbol_codes_is_refused():
    block = random_reverse_delta(16, np.random.default_rng(0))
    with pytest.raises(PatternError, match="too large"):
        run_lemma41(block, Pattern([M(0)] * 16), 2**30, shift_strategy="random",
                    rng=np.random.default_rng(0))


@pytest.mark.parametrize("symbol", [M(0), S(0)])
def test_traced_run_emits_one_node_event_per_node_in_post_order(symbol):
    from repro.obs.events import EV_NODE, EV_SUMMARY
    from repro.obs.sinks import MemorySink
    from repro.obs.trace import tracing

    n = 32
    block = random_reverse_delta(n, np.random.default_rng(7), p_exchange=0.2)
    sink = MemorySink()
    with tracing(sink):
        result = run_lemma41(block, Pattern([symbol] * n), 3)
    events = [r for r in sink.records if r.get("type") == "event"]
    nodes = [r["attrs"] for r in events if r["name"] == EV_NODE]
    assert len(nodes) == n - 1
    for attrs, record in zip(nodes, result.trace.nodes):
        assert (attrs["height"], attrs["collisions"], attrs["shift"],
                attrs["demoted"], attrs["elements_after"]) == (
            record.height, record.collisions, record.chosen_shift,
            record.demoted, record.elements_after)
        histogram = attrs["histogram"]
        assert attrs["collision_sets"] == sum(histogram.values())
        assert sum(int(size) * count for size, count in histogram.items()) == (
            record.collisions)
    (summary,) = [r["attrs"] for r in events if r["name"] == EV_SUMMARY]
    assert summary["collisions"] == result.trace.total_collisions
    assert summary["b_size"] == result.b_size
    assert summary["sets"] == len(result.sets)
