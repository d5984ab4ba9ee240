"""The prove path runs on arrays and makes no per-element object.

Builders, flattening, loading, recognition, the adversary and the
certificate check read and write the ``(a, b, op codes)`` arrays of each
level; a ``Gate`` exists only when a caller iterates a level.  Lemma 4.1,
the Theorem 4.1 loop and the fooling-pair refinement run on symbol-code
arrays from the input pattern to the certificate; a ``NodeRecord``, a
``Symbol``, a ``Pattern`` or a ``SymbolicState`` exists only when a
caller reads one.  The counts below are taken by patching the
constructors, which every construction runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import iterate
from repro.core.adversary import NodeRecord, _decode
from repro.core.alphabet import Symbol
from repro.core.attack import attack_circuit
from repro.core.fooling import prove_not_sorting
from repro.core.iterate import AdversaryRun
from repro.core.pattern import Pattern
from repro.core.propagate import SymbolicState
from repro.experiments.workloads import iterated_family
from repro.networks import serialize
from repro.networks.gates import Gate

from .lemma41_reference import reference_lemma41


def _counted(monkeypatch, cls, method):
    """A list that grows by one for every call of ``cls.method``."""
    made: list = []
    original = getattr(cls, method)

    def counted(self, *args, **kwargs):
        made.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, counted)
    return made


def _prove_path(rng):
    """Build, flatten and prove two families; load one and attack it.

    Returns the loaded document's text.
    """
    families = [
        iterated_family("random_iterated", 256, 2, rng),
        iterated_family("bitonic", 256, 3, rng),
    ]
    for net in families:
        net.to_network()
        assert prove_not_sorting(net, rng=rng).certificate is not None
    text = serialize.dumps(families[0].to_network())
    outcome = attack_circuit(serialize.loads(text), rng=rng)
    assert outcome.certificate is not None
    return text


@pytest.fixture
def gates_made(monkeypatch):
    """A list that grows by one for every ``Gate`` constructed."""
    return _counted(monkeypatch, Gate, "__post_init__")


def test_build_flatten_prove_load_and_attack_make_no_gate(gates_made):
    text = _prove_path(np.random.default_rng(2024))
    assert gates_made == []
    # the count is live: iterating a level builds its gates
    first = next(g for stage in serialize.loads(text) for g in stage.level)
    assert gates_made and gates_made[0] == first


def test_prove_and_attack_decode_no_lemma41_run(monkeypatch):
    records = _counted(monkeypatch, NodeRecord, "__init__")
    states = _counted(monkeypatch, SymbolicState, "__init__")
    patterns = _counted(monkeypatch, Pattern, "__init__")
    symbols = _counted(monkeypatch, Symbol, "__new__")
    runs = _counted(monkeypatch, AdversaryRun, "__init__")
    calls = []

    def recorded(rdn, pattern, k, **kwargs):
        result = lemma41(rdn, pattern, k, **kwargs)
        calls.append((rdn, pattern, k, kwargs, result))
        return result

    lemma41 = iterate.run_lemma41
    monkeypatch.setattr(iterate, "run_lemma41", recorded)
    _prove_path(np.random.default_rng(2024))

    assert len(runs) == 3
    # one Lemma 4.1 run per processed block, each handed the cut's codes
    assert len(calls) == sum(run.blocks_processed for run in runs)
    assert all(isinstance(pattern, np.ndarray) for _, pattern, *_ in calls)
    assert records == states == patterns == symbols == []
    for *_, result in calls:
        # cached views land in the instance dict when first read
        assert not {"pattern", "state"} & set(vars(result))
        assert "nodes" not in vars(result.trace)
    for run in runs:
        assert not {"pattern", "final_cut"} & set(vars(run))

    # the counts are live: reading a view decodes it, as the oracle has it
    rdn, codes, k, kwargs, result = calls[-1]
    want = reference_lemma41(rdn, Pattern(_decode(codes)), k, **kwargs)
    for made in (records, states, patterns):
        made.clear()
    assert result.trace.nodes == want.trace.nodes
    assert len(records) == len(want.trace.nodes) == rdn.n - 1
    assert result.pattern == want.pattern
    assert result.state.symbols == want.state.symbols
    assert result.state.origin == want.state.origin
    run = runs[-1]
    assert run.pattern.m_set(0) == run.special_set
    assert set(run.final_cut.origin.values()) == run.special_set
    assert len(patterns) == len(states) == 2
    assert symbols
