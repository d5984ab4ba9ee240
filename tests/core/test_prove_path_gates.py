"""The prove path runs on level arrays and makes no :class:`Gate`.

Builders, flattening, loading, recognition, the adversary and the
certificate check read and write the ``(a, b, op codes)`` arrays of each
level; a ``Gate`` exists only when a caller iterates a level.  The
count below is taken by patching ``Gate.__post_init__``, which every
construction runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.attack import attack_circuit
from repro.core.fooling import prove_not_sorting
from repro.experiments.workloads import iterated_family
from repro.networks import serialize
from repro.networks.gates import Gate


@pytest.fixture
def gates_made(monkeypatch):
    """A list that grows by one for every ``Gate`` constructed."""
    made: list[Gate] = []
    check = Gate.__post_init__

    def counted(self):
        made.append(self)
        check(self)

    monkeypatch.setattr(Gate, "__post_init__", counted)
    return made


def test_build_flatten_prove_load_and_attack_make_no_gate(gates_made):
    rng = np.random.default_rng(2024)
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
    assert gates_made == []
    # the count is live: iterating a level builds its gates
    first = next(g for stage in serialize.loads(text) for g in stage.level)
    assert gates_made and gates_made[0] == first
