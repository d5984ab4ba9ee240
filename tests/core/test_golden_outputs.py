"""Golden digests of same-seed outputs, pinned across commits.

``test_dtype_contract`` and ``test_rng_contract`` check that two runs in
one process agree; these digests check that a run today agrees with a
run of an earlier commit.  Each case builds a network from a fixed seed,
attacks it, and hashes three things: the certificate JSON, the per-block
``run.records`` and the sorted special set.  The flattened network's
``serialize.dumps`` text is pinned as well, so construction changes show
up separately from adversary changes.

A refactor that keeps every output byte-identical leaves this file
untouched.  A deliberate change of output regenerates the digests with
``PYTHONPATH=src python tests/core/test_golden_outputs.py`` and says so
in the change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core.attack import attack_circuit
from repro.core.fooling import prove_not_sorting
from repro.experiments.workloads import iterated_family, truncated_bitonic
from repro.networks import serialize
from repro.networks.builders import random_iterated_rdn


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome_doc(outcome) -> dict:
    cert = outcome.certificate
    return {
        "certificate": None if cert is None else cert.to_json(),
        "records": [dataclasses.asdict(r) for r in outcome.run.records],
        "special_set": sorted(outcome.run.special_set),
    }


def _family(name, n, blocks, seed, **kwargs):
    net = iterated_family(name, n, blocks, np.random.default_rng(seed))
    return net, prove_not_sorting(net, rng=np.random.default_rng(seed + 1), **kwargs)


def _bitonic(n, phases, seed):
    net = truncated_bitonic(n, phases)
    return net, prove_not_sorting(net, rng=np.random.default_rng(seed))


def _sparse(n, blocks, seed):
    net = random_iterated_rdn(
        n, blocks, np.random.default_rng(seed), p_gate=0.7, p_exchange=0.2
    )
    return net, prove_not_sorting(net, rng=np.random.default_rng(seed + 1))


def _circuit(n, blocks, seed):
    net = iterated_family("random_iterated", n, blocks, np.random.default_rng(seed))
    loaded = serialize.loads(serialize.dumps(net.to_network()))
    return net, attack_circuit(loaded, rng=np.random.default_rng(seed + 1))


#: name -> builder returning ``(iterated network, FoolingOutcome)``.
CASES = {
    "random_iterated-256-2": lambda: _family("random_iterated", 256, 2, 11),
    "random_iterated-256-3": lambda: _family("random_iterated", 256, 3, 12),
    "random_iterated-1024-2": lambda: _family("random_iterated", 1024, 2, 13),
    "random_iterated-1024-3": lambda: _family("random_iterated", 1024, 3, 14),
    "bitonic-1024-3": lambda: _bitonic(1024, 3, 15),
    "bitonic-family-256-2": lambda: _family("bitonic", 256, 2, 16),
    "butterfly_mixed_ops-256-2": lambda: _family("butterfly_mixed_ops", 256, 2, 17),
    "sparse-exchanges-256-2": lambda: _sparse(256, 2, 18),
    "circuit-256-2": lambda: _circuit(256, 2, 19),
    "shift-random-256-2": lambda: _family(
        "random_iterated", 256, 2, 20, shift_strategy="random"
    ),
    "set-random-256-3": lambda: _family(
        "random_iterated", 256, 3, 21, set_choice="random"
    ),
    "shift-worst-256-1": lambda: _family(
        "random_iterated", 256, 1, 22, shift_strategy="worst"
    ),
}

#: name -> (network digest, outcome digest), computed before the array
#: kernels replaced the per-gate Lemma 4.1 recursion and verifier.
GOLDEN = {
    "bitonic-1024-3": (
        "ffd5469277fb193d3564d002d9ccb7450092dff76fdf53c297bed3011c1075c4",
        "711dbc31f283ed12301d6aab7e382d9c765b6b99efa50b2813ac33ae3bbb2ba4",
    ),
    "bitonic-family-256-2": (
        "c10e5f781bc8a6c4482b0fd0b2c9b9a69293bf57b408964ebb4ca88e6b32c658",
        "4474b662002cc372215757bb69c9223443e519658d78972e1b8fcb556697726c",
    ),
    "butterfly_mixed_ops-256-2": (
        "abde40f3a7c7702199ca9bf283a2a929a4d02b37e4b000b17013d6462c74cca6",
        "e3b88e77f9d0cb5563fbfd9e89ff648ea4d939af421dd2028c427dc179af9f07",
    ),
    "circuit-256-2": (
        "a366c3dd9342323c697a1ba7bbccb3ba7b1c7f9c981e9846bffd78fd4b39bd1b",
        "1f3f41956d55afc96e09389e022e5459857f7b9308efeea6cede923b9f60e4aa",
    ),
    "random_iterated-1024-2": (
        "0ad7901c306ef8c5b9887d4be41fdb86328070a808614ad502f249a358eba238",
        "928115a87dfe91230df8943425eeda4afbe0b38c83f9a60c5fcfdcc5c6972cc3",
    ),
    "random_iterated-1024-3": (
        "f9fda5eca5d2a1aeaa533cc3d1126661af7a66b905f0913461430b46068e9342",
        "48337dc120e59788472b7260f1f7055d6d491506ce548fd9477c1aeaca6d50ff",
    ),
    "random_iterated-256-2": (
        "0279017f25cbc15d6aace4c274de5b9c45e7475850eb412a952ecca629eda4d4",
        "e1ffd1d71b20417cd1c4de73b7fa39793c5d8832179679b7e3bfdbdcf024e7e5",
    ),
    "random_iterated-256-3": (
        "c6e7f6cddd6471fa6cbdc155eff0a6d6db83cc1d0729ce0030f44a94f99d7b3a",
        "e6ff85ca141f480750b1cc8450f789edb74c726d919e3f43a0472874a1134d43",
    ),
    "set-random-256-3": (
        "55dcc2a39beaf3a27569e5eee2d07d1a41317e262ec51757f6d43920deee7397",
        "b6b6c45284ccba3ba3e462e08165c5a77f0a8ed68f5196d3ffb1ab2ac39e7335",
    ),
    "shift-random-256-2": (
        "5026cb32c43f62caca249265165f83fb8dfeefeee1b529864e2e8375f89b5ff1",
        "1134b19c0e48d3e49d91037166443c3014523702cd9b698d6be33a73ac29da03",
    ),
    "shift-worst-256-1": (
        "605f49ee70c6ec2d2107e2e25a276817a5ca6a45e1527ad268ded78b5754ee1a",
        "c05e61d722ccd8f25538f5ce0eaa13bf5c96e23989575b015a06f377c1945c68",
    ),
    "sparse-exchanges-256-2": (
        "4396e31d13f6a3fddebce5edf385f5ffac480683b3607c07a3c843779be24fea",
        "b9531e27219ad0c89f70fb52ca5c71a4a8f81af5ea73a9fa907550dd5e9e877f",
    ),
}


def compute(name: str) -> tuple[str, str]:
    net, outcome = CASES[name]()
    return (
        hashlib.sha256(serialize.dumps(net.to_network()).encode()).hexdigest(),
        _digest(_outcome_doc(outcome)),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    network_digest, outcome_digest = compute(name)
    assert network_digest == GOLDEN[name][0], "flattened network changed"
    assert outcome_digest == GOLDEN[name][1], "adversary output changed"


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


if __name__ == "__main__":
    for case in sorted(CASES):
        network_digest, outcome_digest = compute(case)
        print(f'    "{case}": (\n        "{network_digest}",\n'
              f'        "{outcome_digest}",\n    ),')
