"""SHA-256 pins of the adversary run's pattern views for the golden cases.

``test_golden_outputs.py`` pins each golden case's certificate, block
records and special set.  This module pins the two views of the run
that carry symbols: ``repro.core.serialize.dumps(run)``, which holds the
final input pattern, and the final cut -- its symbol strings plus its
sorted ``position -> input wire`` items.  Both are decoded from the
Theorem 4.1 loop's symbol codes when read, so these pins catch any
change of the codes or of their decoding.  The digests were computed
before the loop stopped building a pattern object per block; a refactor
that keeps every output byte-identical leaves this file untouched.

Regenerate (only for a deliberate change of output) with
``PYTHONPATH=src python -m tests.core.test_run_documents``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import serialize
from repro.core.serialize import symbol_to_string

from .test_golden_outputs import CASES

#: name -> (digest of ``serialize.dumps(run)``, digest of the final cut).
PINS = {
    "bitonic-1024-3": (
        "f6ae9da9751faf8116420d576e3b8fc79909b1fc8427bf0b215ec622f60828c5",
        "eb4057f700f839c3d70e9bf6aac83d7f624ec069942c8ead382af54e0c5865d4",
    ),
    "bitonic-family-256-2": (
        "711aa295c8332974c06c6aaaff3ed8455234f8717486ea49e9c614a4905ebf30",
        "478b173290435b6793551af6d0b18afa3754bb416094165e774ad2c881d385b0",
    ),
    "butterfly_mixed_ops-256-2": (
        "4d2c3d34f1466ddedafe9d16353208a6a4af292df2fe34f39f0b5c77f987c763",
        "a2095c1b141a593dcb28449d021f37a3dfaa6042b11c1ef510a9da4e45e2bf88",
    ),
    "circuit-256-2": (
        "b382ae1d5456217164f8d5960ac2f9055ea2103061d1a203885739902cd8ab2b",
        "627b2a4208c3c1662a64f47f8aaa172cffcae0ef0a32e7e16c7af2eeb82ebc3f",
    ),
    "random_iterated-1024-2": (
        "897eabe5253d0e247e3c3d3838ac61e57526719d4ca44aa573ce1d64a49a17fd",
        "472c8fa760984ec8d3f2e9ae61a357cda41aed6acb98379a095e646e0e0fdf44",
    ),
    "random_iterated-1024-3": (
        "80888e9c9043b8427dfe46ed82c892f7b5e60412d8cde5d992bfb1103b120964",
        "2b5e8319e7971a2f0b63bc97986414a52e3c4709f8ddbce73a9fb02867d9829c",
    ),
    "random_iterated-256-2": (
        "5d004034a0ca4d79f67036d8b14127fa957d486ed99bb26b9338ebc01f5ab460",
        "02ff12c40f8415f1e209d8db67a77e5b00b23ce71eda52549c4526cc3e80c4b2",
    ),
    "random_iterated-256-3": (
        "c022f8bc5fa90c5e2c8f96ddd212ed8baf67d6eb359bfc154ac60a3efa77023e",
        "e9beabbc44aa392dc78e5ff2ef3790bdc6ac81e6584450d64e364dfdf08dd8d6",
    ),
    "set-random-256-3": (
        "602c1a7c5ead9f3ef1871e3e80b0406f2dec0d370fbdbda690b99d33b06f4570",
        "a04c2ba43604de8c75dc54a312652f38a60c397b88b35675bb3a57bd449f233e",
    ),
    "shift-random-256-2": (
        "9f2fda43fc97d135b261f22cbfcafaccb2d93c9f19987bd6f0b374c85ef6a262",
        "4162c10547c0062654b3f1654a04823489ed23af20c8b78056df788bc17ff87d",
    ),
    "shift-worst-256-1": (
        "b9886cd8c5f1f7174e58ef4542b016cb561f57de058333f4d36c413f1a8c22c6",
        "8b0cc755ba3a758b495212933aa8292b6e9131a074ad04bec219eb5f315957b7",
    ),
    "sparse-exchanges-256-2": (
        "a9c08fd9add85efe57acbe9e86802a292b3e2d1e2fe0f9120ab55c5747ef5246",
        "a15536f435515c36fbd22d91a225f28f1e444d94947dc8da1eb9cf854da6e5c2",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compute(name: str) -> tuple[str, str]:
    _, outcome = CASES[name]()
    run = outcome.run
    cut = run.final_cut
    cut_doc = {
        "symbols": [symbol_to_string(s) for s in cut.symbols],
        "origin": sorted(cut.origin.items()),
    }
    return (
        _sha(serialize.dumps(run)),
        _sha(json.dumps(cut_doc, separators=(",", ":"))),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_views_are_pinned(name):
    run_digest, cut_digest = compute(name)
    assert run_digest == PINS[name][0], "run document changed"
    assert cut_digest == PINS[name][1], "final cut changed"


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)


if __name__ == "__main__":
    for case in sorted(CASES):
        run_digest, cut_digest = compute(case)
        print(f'    "{case}": (\n        "{run_digest}",\n'
              f'        "{cut_digest}",\n    ),')
