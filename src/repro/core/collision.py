"""Collision of wires under inputs and patterns (Definitions 3.6, 3.7).

Two input wires *collide* under an input if their values are compared
somewhere in the network.  Under a *pattern* the three-way classification
of Definition 3.7 applies: they **collide** (compared under every
refinement), **can collide** (under some refinement), or **cannot
collide** (under none).  This module provides:

* exact checks against a concrete input via traced evaluation;
* exhaustive classification over ``p[V]`` (small patterns only);
* a sound symbolic *cannot-collide* certificate via token propagation,
  which is the check the adversary's output is verified with.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Sequence

import numpy as np

from ..errors import PatternError, PropagationError
from ..networks.network import ComparatorNetwork
from .pattern import Pattern
from .propagate import propagate_with_tokens

__all__ = [
    "CollisionStatus",
    "collide_under_input",
    "classify_collision",
    "is_noncolliding_under_input",
    "noncolliding_certificate",
    "is_noncolliding_set",
]


class CollisionStatus(enum.Enum):
    """The three-way classification of Definition 3.7."""

    COLLIDES = "collides"
    CAN_COLLIDE = "can collide"
    CANNOT_COLLIDE = "cannot collide"


def collide_under_input(
    network: ComparatorNetwork,
    values: Sequence[int] | np.ndarray,
    w0: int,
    w1: int,
) -> bool:
    """Do wires ``w0`` and ``w1`` collide under this input permutation?"""
    values = np.asarray(values)
    trace = network.trace(values)
    return trace.were_compared(int(values[w0]), int(values[w1]))


def classify_collision(
    network: ComparatorNetwork,
    pattern: Pattern,
    w0: int,
    w1: int,
    max_inputs: int = 100_000,
) -> CollisionStatus:
    """Classify a wire pair by enumerating every input in ``p[V]``.

    Exact but exponential; guarded by ``max_inputs``.
    """
    if pattern.input_count() > max_inputs:
        raise PatternError(
            f"pattern admits {pattern.input_count()} inputs > cap {max_inputs}; "
            "use the symbolic certificate instead"
        )
    seen = {
        collide_under_input(network, values, w0, w1)
        for values in pattern.enumerate_inputs()
    }
    if seen == {True}:
        return CollisionStatus.COLLIDES
    if True in seen:
        return CollisionStatus.CAN_COLLIDE
    return CollisionStatus.CANNOT_COLLIDE


def is_noncolliding_under_input(
    network: ComparatorNetwork,
    values: Sequence[int] | np.ndarray,
    wires: Iterable[int],
) -> bool:
    """Are all pairs from ``wires`` un-compared under this concrete input?

    One traced evaluation, then a set lookup per pair.
    """
    values = np.asarray(values)
    trace = network.trace(values)
    wire_list = list(wires)
    for wa, wb in itertools.combinations(wire_list, 2):
        if trace.were_compared(int(values[wa]), int(values[wb])):
            return False
    return True


def noncolliding_certificate(
    network: ComparatorNetwork,
    pattern: Pattern,
    wires: Iterable[int],
) -> bool:
    """Sound symbolic proof that ``wires`` is noncolliding under ``pattern``.

    Requirements for applicability (checked): all given wires carry the
    same symbol, and that symbol occurs nowhere else in the pattern.  The
    wires' tokens are then propagated; their paths are deterministic
    unless two of them (or a tracked token and an equal outside symbol)
    meet at a comparator.  Returns True if propagation completes without
    any tracked pair meeting -- a *proof* of "cannot collide" for every
    pair in the set (Definition 3.7(d)) -- and False if two tracked
    tokens provably meet.

    Note the asymmetry: ``True`` certifies noncollision; ``False`` means a
    same-symbol meeting occurred, which for same-set tokens means the set
    collides.
    """
    if pattern.n != network.n:
        raise PatternError(
            f"pattern has {pattern.n} wires, network has {network.n}"
        )
    wire_list = sorted(set(int(w) for w in wires))
    if not wire_list:
        return True
    sym = pattern[wire_list[0]]
    for w in wire_list:
        if pattern[w] is not sym:
            raise PatternError(
                "noncolliding_certificate requires all wires to share one symbol"
            )
    if len(pattern.positions_of(sym)) != len(wire_list):
        raise PatternError(
            f"symbol {sym!r} occurs outside the candidate set; the certificate "
            "only applies to a full symbol class"
        )
    try:
        propagate_with_tokens(network, pattern, wire_list)
    except PropagationError:
        return False
    return True


def is_noncolliding_set(
    network: ComparatorNetwork,
    pattern: Pattern,
    wires: Iterable[int],
    method: str = "certificate",
    max_inputs: int = 100_000,
    samples: int = 64,
    rng: np.random.Generator | None = None,
    seed: int = 0,
) -> bool:
    """Check Definition 3.7(d) for a wire set, by the chosen method.

    ``method``:

    * ``"certificate"`` -- the sound symbolic token proof (default);
    * ``"enumerate"`` -- exhaustively check every input in ``p[V]``;
    * ``"sample"`` -- necessary-condition check on random refinements
      (can only *refute*; a True result is evidence, not proof).

    ``"sample"`` draws from ``rng`` when given, else from a generator
    seeded with ``seed`` -- never from OS entropy, so two runs with the
    same arguments sample the same refinements and agree.
    """
    wire_list = list(wires)
    if len(wire_list) < 2:
        return True
    if method == "certificate":
        return noncolliding_certificate(network, pattern, wire_list)
    if method == "enumerate":
        if pattern.input_count() > max_inputs:
            raise PatternError(
                f"pattern admits {pattern.input_count()} inputs > cap {max_inputs}"
            )
        return all(
            is_noncolliding_under_input(network, values, wire_list)
            for values in pattern.enumerate_inputs()
        )
    if method == "sample":
        rng = rng if rng is not None else np.random.default_rng(seed)
        for _ in range(samples):
            values = pattern.refine_to_input(rng=rng)
            if not is_noncolliding_under_input(network, values, wire_list):
                return False
        return True
    raise PatternError(f"unknown method {method!r}")
