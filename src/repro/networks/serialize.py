"""JSON (de)serialisation of networks, programs and topologies.

The on-disk format is a plain JSON document so networks can be exchanged
with other tools, archived next to experiment results, or diffed.  All
``to_json`` functions return JSON-compatible dicts; ``dumps``/``loads``
wrap them with version tagging.
"""

from __future__ import annotations

import itertools
import json
from typing import Any

import numpy as np

from ..errors import ReproError, WireError
from .delta import IteratedReverseDeltaNetwork, ReverseDeltaNetwork, _form_conflicts
from .gates import OP_CODE, OPS, Op
from .level import Level
from .network import ComparatorNetwork, Stage
from .permutations import Permutation
from .registers import RegisterProgram, RegisterStep

__all__ = [
    "network_to_json",
    "network_from_json",
    "rdn_to_json",
    "rdn_from_json",
    "iterated_to_json",
    "iterated_from_json",
    "program_to_json",
    "program_from_json",
    "payload_of",
    "from_payload",
    "dumps",
    "loads",
]

FORMAT_VERSION = 1


#: ``[a, b, op]`` op labels by op code, and back.
_OP_LABELS = [op.value for op in OPS]
_OP_CODES = {op.value: code for op, code in OP_CODE.items()}


def _level_to_json(level: Level) -> list[list[Any]]:
    """A level's gates as ``[a, b, op]`` triples, in gate order."""
    a, b, ops = level.arrays
    labels = map(_OP_LABELS.__getitem__, ops.tolist())
    return [list(gate) for gate in zip(a.tolist(), b.tolist(), labels)]


def _level_from_json(items: Any) -> Level:
    """A level from its ``[a, b, op]`` triples, one column at a time.

    It refuses what reading it a gate at a time refuses, with the same
    exception types: a short or long triple (``ValueError``), an
    endpoint ``int()`` refuses, an unknown op (:meth:`Op.from_str`), a
    bad or repeated endpoint (:class:`Level`).
    """
    items = list(items)
    if not items:
        return Level()
    columns = list(zip(*items))
    if len(columns) != 3 or sum(map(len, items)) != 3 * len(items):
        a, b, op = next(item for item in items if len(item) != 3)  # ValueError
    ends = [list(map(int, column)) for column in columns[:2]]
    try:
        a, b = (np.array(column, dtype=np.int64) for column in ends)
    except OverflowError:
        raise WireError("wire index out of the int64 range") from None
    ops = np.fromiter(map(_op_code, columns[2]), dtype=np.int8, count=len(items))
    return Level.from_arrays(a, b, ops)


def _op_code(label: Any) -> int:
    """The op code of one ``[a, b, op]`` label (:meth:`Op.from_str`
    refuses anything that is not one)."""
    try:
        return _OP_CODES[label]
    except (KeyError, TypeError):
        return OP_CODE[Op.from_str(label)]


def network_to_json(net: ComparatorNetwork) -> dict[str, Any]:
    """Serialise a :class:`ComparatorNetwork`."""
    stages = []
    for s in net.stages:
        entry: dict[str, Any] = {"gates": _level_to_json(s.level)}
        if s.perm is not None:
            entry["perm"] = [int(x) for x in s.perm.mapping]
        stages.append(entry)
    return {"kind": "network", "n": net.n, "stages": stages}


def network_from_json(doc: dict[str, Any]) -> ComparatorNetwork:
    """Deserialise a :class:`ComparatorNetwork`."""
    if doc.get("kind") != "network":
        raise WireError(f"expected kind 'network', got {doc.get('kind')!r}")
    stages = []
    for entry in doc["stages"]:
        level = _level_from_json(entry["gates"])
        perm = Permutation(entry["perm"]) if "perm" in entry else None
        stages.append(Stage(level=level, perm=perm))
    return ComparatorNetwork(int(doc["n"]), stages)


def rdn_to_json(rdn: ReverseDeltaNetwork) -> dict[str, Any]:
    """Serialise a :class:`ReverseDeltaNetwork` tree.

    The nested documents are built bottom-up from the form: the final
    level of height-``h`` node ``q`` is the gates of level ``h`` whose
    child-0 end ``a`` has ``rank[a] >> h == q``, in level order.
    """
    docs: list[dict[str, Any]] = [
        {"kind": "rdn", "wire": w} for w in rdn.leaf_order.tolist()
    ]
    rank = rdn.rank
    for height, level in zip(itertools.count(1), rdn.levels_flat()):
        a, _, _ = level.arrays
        owner = rank[a] >> height
        order = np.argsort(owner, kind="stable")
        bounds = np.cumsum(np.bincount(owner, minlength=len(docs) // 2))[:-1]
        gates = _level_to_json(level)
        docs = [
            {
                "kind": "rdn",
                "child0": docs[2 * q],
                "child1": docs[2 * q + 1],
                "final": [gates[i] for i in node.tolist()],
            }
            for q, node in enumerate(np.split(order, bounds))
        ]
    return docs[0]


def rdn_from_json(doc: dict[str, Any]) -> ReverseDeltaNetwork:
    """Deserialise a :class:`ReverseDeltaNetwork` tree."""
    leaves, finals = _rdn_form(doc)
    with _form_conflicts():
        levels = [_level_from_json(items) for items in finals]
    return ReverseDeltaNetwork(leaves, levels)


def _rdn_form(doc: dict[str, Any]) -> tuple[list[int], list[list[Any]]]:
    """A tree document's leaf order and per-height ``[a, b, op]`` items."""
    if doc.get("kind") != "rdn":
        raise WireError(f"expected kind 'rdn', got {doc.get('kind')!r}")
    if "wire" in doc:
        return [int(doc["wire"])], []
    leaves0, items0 = _rdn_form(doc["child0"])
    leaves1, items1 = _rdn_form(doc["child1"])
    below = [x + y for x, y in zip(items0, items1)]
    return leaves0 + leaves1, below + [list(doc["final"])]


def iterated_to_json(it: IteratedReverseDeltaNetwork) -> dict[str, Any]:
    """Serialise an :class:`IteratedReverseDeltaNetwork`."""
    blocks = []
    for perm, rdn in it.blocks:
        entry: dict[str, Any] = {"rdn": rdn_to_json(rdn)}
        if perm is not None:
            entry["perm"] = [int(x) for x in perm.mapping]
        blocks.append(entry)
    return {"kind": "iterated-rdn", "n": it.n, "blocks": blocks}


def iterated_from_json(doc: dict[str, Any]) -> IteratedReverseDeltaNetwork:
    """Deserialise an :class:`IteratedReverseDeltaNetwork`."""
    if doc.get("kind") != "iterated-rdn":
        raise WireError(f"expected kind 'iterated-rdn', got {doc.get('kind')!r}")
    blocks = []
    for entry in doc["blocks"]:
        perm = Permutation(entry["perm"]) if "perm" in entry else None
        blocks.append((perm, rdn_from_json(entry["rdn"])))
    return IteratedReverseDeltaNetwork(int(doc["n"]), blocks)


def program_to_json(prog: RegisterProgram) -> dict[str, Any]:
    """Serialise a :class:`RegisterProgram`."""
    steps = [
        {"perm": [int(x) for x in s.perm.mapping], "ops": s.ops_string()}
        for s in prog.steps
    ]
    return {"kind": "register-program", "n": prog.n, "steps": steps}


def program_from_json(doc: dict[str, Any]) -> RegisterProgram:
    """Deserialise a :class:`RegisterProgram`."""
    if doc.get("kind") != "register-program":
        raise WireError(
            f"expected kind 'register-program', got {doc.get('kind')!r}"
        )
    steps = [
        RegisterStep(
            perm=Permutation(entry["perm"]),
            ops=tuple(Op.from_str(c) for c in entry["ops"]),
        )
        for entry in doc["steps"]
    ]
    return RegisterProgram(int(doc["n"]), steps)


_SERIALIZERS = {
    ComparatorNetwork: network_to_json,
    ReverseDeltaNetwork: rdn_to_json,
    IteratedReverseDeltaNetwork: iterated_to_json,
    RegisterProgram: program_to_json,
}

_DESERIALIZERS = {
    "network": network_from_json,
    "rdn": rdn_from_json,
    "iterated-rdn": iterated_from_json,
    "register-program": program_from_json,
}


def dumps(obj: Any, indent: int | None = None) -> str:
    """Serialise any supported object to a version-tagged JSON string."""
    for cls, fn in _SERIALIZERS.items():
        if isinstance(obj, cls):
            return json.dumps({"version": FORMAT_VERSION, "payload": fn(obj)},
                              indent=indent)
    raise ReproError(f"cannot serialise objects of type {type(obj).__name__}")


def payload_of(doc: dict[str, Any]) -> dict[str, Any]:
    """Unwrap the version envelope and return the payload dict.

    Raises :class:`~repro.errors.ReproError` on a missing or mismatched
    ``version`` tag or a non-object payload, without interpreting the
    payload itself -- callers that want lenient, located validation of
    the payload (``repro lint``) build on this.
    """
    if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION:
        raise ReproError(
            f"expected a document object with version = {FORMAT_VERSION}"
        )
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ReproError("document has no payload object")
    return payload


def from_payload(payload: dict[str, Any]) -> Any:
    """Deserialise a bare (already unwrapped) kind-tagged payload dict."""
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind not in _DESERIALIZERS:
        raise ReproError(f"unknown payload kind {kind!r}")
    return _DESERIALIZERS[kind](payload)


def loads(text: str) -> Any:
    """Inverse of :func:`dumps`."""
    return from_payload(payload_of(json.loads(text)))
