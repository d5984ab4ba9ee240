"""SHA-256 pins of the reverse delta tree documents of the golden cases.

``test_golden_outputs.py`` pins each golden case's flattened network and
adversary output; this module pins the two tree-shaped documents of the
same networks: ``serialize.dumps`` of the iterated reverse delta network
itself, and of the network :func:`~repro.core.attack.recognize_iterated_rdn`
reconstructs from its flattened circuit.  Both nest the Definition 3.4
tree, which the serialiser reads off a network's leaf order and levels,
so these pins catch any change of tree shape, leaf order or per-node
gate order.  The digests were computed before the node tree was replaced
by that form; a refactor that keeps every output byte-identical leaves
this file untouched.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.attack import recognize_iterated_rdn
from repro.networks import serialize

from .test_golden_outputs import CASES

#: name -> (digest of the network's document, digest of the recognised
#: network's document).
PINS = {
    "bitonic-1024-3": (
        "09161e87137949a54a1d1fa660be958e13efb239aa1b1d9dd96e32caeb8d1008",
        "2ff004e6d6f2ad3b53a0deb7838df8f62eca4336bdfd852edf36036ed4dedbfc",
    ),
    "bitonic-family-256-2": (
        "0d0a816bd15d9d9a2abfe7e72814c99f6aa7990e1888e1a50516a77b55fc9e0b",
        "7dc6d4114eb089167378fb28a8d38edf26543ffd3b288facdd197c6da7edd797",
    ),
    "butterfly_mixed_ops-256-2": (
        "127d6b0e3af63f058a392a3c25c72e04bdcccc768e75e0e187e9d147821737fa",
        "bf9dc21206da18dc08c22b5262836902d898fbeceee24bb1c762447ff282525b",
    ),
    "circuit-256-2": (
        "82a7880866ba2def0eda67a6dd019d27b2e5d04ff3a43781225a950957fa3b66",
        "eaae93670a06ab11b6998b87efb1a77a17faa74947276a47c4da1b038769f4f2",
    ),
    "random_iterated-1024-2": (
        "07a3192a65066b7111e9cd00c11d4801709636d16bb82253025ed26a77134d9a",
        "a9f906acd7f462b729ec25c8fa33e1002e2cb6d9abbd0130a6698692f05cd79a",
    ),
    "random_iterated-1024-3": (
        "78eb34a41f5640367dca25ad1739d00b81f90073a5d8d87e56450e3b6f3f722a",
        "78718a3faa83e60a44ea917765bf973f1f499f0e484ef1ffa528831f0ae6fdcd",
    ),
    "random_iterated-256-2": (
        "61d63371a32b7831c319b0d2b55acb13af107fe0b44ee1ab4cc776f14b19b91a",
        "7a21d401166d2ba07e3961c33da109a72730fbedc0f5666e8168ca8ddf4d7c6c",
    ),
    "random_iterated-256-3": (
        "89e920e0b34636e3aec989f5599039af8755299bad4af50ed5b378b782dc584c",
        "0946e36a974cc147408f640df4cfcbac9e2cb44aa6d116afd56217faf2171cfa",
    ),
    "set-random-256-3": (
        "268ae2debe724df8190ce6a5bc77c876dd4ea0c699793f3489f6df9f1da1977f",
        "576c15557d37f8adbc383d13b99269feac10a40c2a5c32207c9eee26152a9bac",
    ),
    "shift-random-256-2": (
        "f4c749618b03da2fae71bb26cd93a914000588d3181b725f02e0834ba4052baa",
        "f34f4afc81d20dc93206cc94d28fab8138a035efcbc4308b74495e60642a8a56",
    ),
    "shift-worst-256-1": (
        "22564f6bd094ecb5ae9b01e583d2f93d67d2b495405646d3cd5cadb727fb0185",
        "1e5314deadf1c970aa8936fb77986b5f73f49d36ef5fdcc2573f396557b7d038",
    ),
    "sparse-exchanges-256-2": (
        "588fd29b41f1d0066e69ae0257112c42224b92dd5a243f239cd1135528bf2472",
        "053ebdad5f30eb25f9e641cedefb7a25e4f38381fac7f5777bcc5c61de0f2b7f",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_tree_documents(name):
    net, _ = CASES[name]()
    text = serialize.dumps(net)
    recognized = serialize.dumps(recognize_iterated_rdn(net.to_network()))
    assert _sha(text) == PINS[name][0], "iterated rdn document changed"
    assert _sha(recognized) == PINS[name][1], "recognised rdn document changed"
    assert serialize.dumps(serialize.loads(text)) == text


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)
