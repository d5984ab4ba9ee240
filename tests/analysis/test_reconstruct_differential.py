"""Recognition against its per-node-rescan oracle.

:func:`repro.analysis.properties.reconstruct_reverse_delta` splits the
parent's gate lists and reads one union pass; the oracle
(``reconstruct_reference.py``) rescans every lower level at every node
with its own union-find.  On every circuit both must return the same
network (compared as serialised documents) or raise the same
:class:`~repro.errors.TopologyError`: message, ``level`` and ``gate``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.properties import reconstruct_reverse_delta
from repro.errors import TopologyError
from repro.networks import serialize
from repro.networks.builders import (
    bitonic_phase_rdn,
    butterfly_rdn,
    random_reverse_delta,
    shuffle_split_rdn,
    truncated_rdn,
)
from repro.networks.gates import OPS, comparator
from repro.networks.level import Level
from repro.networks.network import ComparatorNetwork
from repro.sorters.oddeven_merge import oddeven_merge_sorting_network

from .reconstruct_reference import reference_reconstruct_reverse_delta


def _outcome(recognise, network: ComparatorNetwork, max_attempts: int):
    try:
        rdn = recognise(network, max_attempts=max_attempts)
    except TopologyError as exc:
        return ("error", str(exc), exc.level, exc.gate)
    return ("rdn", serialize.dumps(rdn))


def _matching(n: int, rng: np.random.Generator, p_gate: float) -> Level:
    """A random level: disjoint random pairs, each kept with ``p_gate``."""
    ends = rng.permutation(n).reshape(-1, 2)
    ends = ends[rng.random(n // 2) < p_gate]
    ops = rng.integers(0, len(OPS), size=len(ends))
    return Level.from_arrays(ends[:, 0].copy(), ends[:, 1].copy(), ops)


@st.composite
def circuits(draw):
    """``(kind, network, max_attempts)``; the last four kinds are mostly
    out of class, or exhaust the attempt budget."""
    d = draw(st.integers(1, 6))
    n = 1 << d
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(
            [
                "random",
                "truncated",
                "relabelled",
                "bitonic-phase",
                "butterfly",
                "shuffle-split",
                "matchings",
                "perturbed",
                "oddeven-merge",
                "tiny-budget",
            ]
        )
    )
    p_gate = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9, 1.0]))
    p_exchange = draw(st.sampled_from([0.0, 0.2]))
    max_attempts = 4096
    if kind in ("random", "truncated", "relabelled", "tiny-budget"):
        rdn = random_reverse_delta(n, rng, p_gate=p_gate, p_exchange=p_exchange)
        if kind == "truncated":
            rdn = truncated_rdn(rdn, draw(st.integers(0, d)))
        if kind == "relabelled":
            perm = rng.permutation(n).tolist()
            rdn = rdn.map_wires(perm.__getitem__)
        if kind == "tiny-budget":
            max_attempts = draw(st.integers(0, 6))
        network = rdn.to_network(n)
    elif kind == "bitonic-phase":
        network = bitonic_phase_rdn(n, draw(st.integers(1, d))).to_network(n)
    elif kind == "butterfly":
        network = butterfly_rdn(n).to_network()
    elif kind == "shuffle-split":
        network = shuffle_split_rdn(n).to_network()
    elif kind == "matchings":
        p_gate = max(p_gate, 0.6)
        network = ComparatorNetwork(n, [_matching(n, rng, p_gate) for _ in range(d)])
    elif kind == "perturbed":  # a block with one level rewired
        rdn = random_reverse_delta(n, rng, p_gate=1.0 if p_gate > 0.5 else 0.9)
        levels = rdn.levels_flat()
        t = draw(st.integers(0, d - 1))
        a, b, ops = levels[t].arrays
        free = np.setdiff1d(np.arange(n), np.concatenate((a, b)))
        if free.size >= 2:  # one more gate, on two free wires
            x, y = rng.choice(free, 2, replace=False)
            a, b, ops = np.append(a, x), np.append(b, y), np.append(ops, 0)
        elif a.size >= 2:  # two gates trade their second ends
            b = b.copy()
            b[[0, -1]] = b[[-1, 0]]
        levels[t] = Level.from_arrays(a.copy(), b, ops.copy())
        network = ComparatorNetwork(n, levels)
    else:
        stages = oddeven_merge_sorting_network(n).stages
        start = draw(st.integers(0, max(0, len(stages) - d)))
        levels = [s.level for s in stages[start : start + d]]
        network = ComparatorNetwork(n, levels + [Level()] * (d - len(levels)))
    return kind, network, max_attempts


@settings(max_examples=300, deadline=None)
@given(circuits())
def test_recognition_matches_the_oracle(case):
    kind, network, max_attempts = case
    got = _outcome(reconstruct_reverse_delta, network, max_attempts)
    expected = _outcome(reference_reconstruct_reverse_delta, network, max_attempts)
    assert got == expected, kind


@pytest.mark.parametrize(
    "n, levels, message",
    [
        pytest.param(
            8,
            [[(0, 1), (2, 3), (4, 5)], [], [(0, 2), (3, 4), (5, 1)]],
            "odd cycle",
            id="odd-cycle",
        ),
        pytest.param(
            4, [[(0, 1)], [(2, 3)]], "no balanced bipartition", id="unbalanced"
        ),
        pytest.param(
            4, [[(0, 1)], [(0, 1)]], "already connected", id="joins-a-component"
        ),
    ],
)
def test_each_refusal_matches_the_oracle(n, levels, message):
    gates = [[comparator(a, b) for a, b in lvl] for lvl in levels]
    network = ComparatorNetwork(n, gates)
    got = _outcome(reconstruct_reverse_delta, network, 4096)
    assert got == _outcome(reference_reconstruct_reverse_delta, network, 4096)
    assert got[0] == "error" and message in got[1]


@pytest.mark.parametrize("max_attempts", [0, 1, 5, 30])
def test_budget_exhaustion_matches_the_oracle(max_attempts):
    rng = np.random.default_rng(11)
    network = random_reverse_delta(32, rng, p_gate=0.3).to_network()
    got = _outcome(reconstruct_reverse_delta, network, max_attempts)
    expected = _outcome(reference_reconstruct_reverse_delta, network, max_attempts)
    assert got == expected
    # this sparse block needs over 30 split trials beyond one per node
    assert got[0] == "error" and "backtracking budget" in got[1]
