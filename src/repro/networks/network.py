"""The comparator-network model: stages of (permutation, gate level).

The paper uses two equivalent models of a comparator network (Section 1):

* the *circuit model* -- an acyclic circuit of two-input comparator
  elements; and
* the *register model* -- ``n`` registers transformed in ``d`` steps, where
  step ``i`` first permutes the register contents by :math:`\\Pi_i` and
  then applies the per-pair operations :math:`\\vec{x}_i`.

:class:`ComparatorNetwork` realises both at once: it is a sequence of
:class:`Stage` objects, each an optional wire permutation followed by one
parallel :class:`~repro.networks.level.Level` of gates.  A pure circuit
network has identity (``None``) permutations everywhere; a *shuffle-based*
network has the shuffle permutation in front of every level.

Evaluation is in-place on wire *positions*: the output wire ``j`` of the
network is simply position ``j`` after the last stage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .._util import as_int_array
from ..errors import WireError
from .gates import Gate
from .level import Level
from .permutations import Permutation

__all__ = ["Stage", "ComparisonRecord", "EvaluationTrace", "ComparatorNetwork"]


@dataclass(frozen=True)
class Stage:
    """One step of the register model: permute, then apply a gate level.

    ``perm is None`` means the identity permutation (no data movement).
    """

    level: Level
    perm: Permutation | None = None

    def validate(self, n: int) -> None:
        """Check the stage fits an ``n``-wire network."""
        self.level.validate(n)
        if self.perm is not None and self.perm.n != n:
            raise WireError(
                f"stage permutation acts on {self.perm.n} wires, network has {n}"
            )

    @property
    def comparator_count(self) -> int:
        """Number of comparators in the stage's level."""
        return self.level.comparator_count


@dataclass(frozen=True)
class ComparisonRecord:
    """One comparison performed during a traced evaluation.

    Attributes
    ----------
    stage:
        Index of the stage in which the comparison happened.
    positions:
        The wire-position pair ``(a, b)`` of the gate.
    values:
        The pair of *values* that met at the gate, in ``(a, b)`` order
        (before the gate fires).
    """

    stage: int
    positions: tuple[int, int]
    values: tuple[int, int]

    @property
    def value_pair(self) -> frozenset[int]:
        """The unordered pair of compared values."""
        return frozenset(self.values)


@dataclass
class EvaluationTrace:
    """Result of a traced evaluation: output plus every comparison made."""

    input: np.ndarray
    output: np.ndarray
    comparisons: list[ComparisonRecord] = field(default_factory=list)

    @cached_property
    def compared_value_pairs(self) -> frozenset[frozenset[int]]:
        """The set of unordered value pairs that were compared."""
        return frozenset(rec.value_pair for rec in self.comparisons)

    def were_compared(self, u: int, v: int) -> bool:
        """True iff values ``u`` and ``v`` met at a comparator gate."""
        return frozenset((u, v)) in self.compared_value_pairs


class ComparatorNetwork:
    """An immutable comparator network on ``n`` wires.

    Parameters
    ----------
    n:
        Number of wires.
    stages:
        The stages, executed in order.  Each may be a :class:`Stage`, a
        :class:`Level` (identity permutation), or an iterable of
        :class:`Gate` (identity permutation).
    """

    __slots__ = ("_n", "_stages", "__dict__")

    def __init__(self, n: int, stages: Iterable[Stage | Level | Iterable[Gate]] = ()):
        if n < 1:
            raise WireError(f"network must have at least one wire, got n={n}")
        norm: list[Stage] = []
        for s in stages:
            if isinstance(s, Stage):
                stage = s
            elif isinstance(s, Level):
                stage = Stage(level=s)
            else:
                stage = Stage(level=Level(s))
            stage.validate(n)
            norm.append(stage)
        self._n = n
        self._stages = tuple(norm)

    # -- protocol ------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of wires."""
        return self._n

    @property
    def stages(self) -> tuple[Stage, ...]:
        """The stages in execution order."""
        return self._stages

    @property
    def depth(self) -> int:
        """Number of stages (the paper's ``d``)."""
        return len(self._stages)

    @cached_property
    def comparator_depth(self) -> int:
        """Number of stages containing at least one true comparator."""
        return sum(1 for s in self._stages if s.comparator_count > 0)

    @cached_property
    def size(self) -> int:
        """Total number of comparators (``+``/``-`` gates)."""
        return sum(s.comparator_count for s in self._stages)

    @cached_property
    def element_count(self) -> int:
        """Total number of circuit elements of any kind."""
        return sum(len(s.level) for s in self._stages)

    def __iter__(self) -> Iterator[Stage]:
        return iter(self._stages)

    def __len__(self) -> int:
        return len(self._stages)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComparatorNetwork):
            return NotImplemented
        return self._n == other._n and self._stages == other._stages

    def __hash__(self) -> int:
        return hash((self._n, self._stages))

    def __repr__(self) -> str:
        return (
            f"ComparatorNetwork(n={self._n}, depth={self.depth}, "
            f"size={self.size})"
        )

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, values: Sequence[int] | np.ndarray) -> np.ndarray:
        """Run a single input vector through the network.

        Returns a fresh array; the input is not modified.
        """
        x = as_int_array(values)
        if x.shape[0] != self._n:
            raise WireError(f"input has length {x.shape[0]}, expected {self._n}")
        for stage in self._stages:
            if stage.perm is not None:
                x = stage.perm.apply(x)
            stage.level.apply_inplace(x)
        return x

    def evaluate_batch(self, batch: np.ndarray) -> np.ndarray:
        """Run a ``(batch, n)`` array of inputs through the network.

        Rows are independent inputs; vectorised over the batch axis so the
        per-row cost is a handful of NumPy fancy-indexing operations per
        stage.  Returns a fresh array.
        """
        x = np.array(batch, dtype=np.int64, copy=True)
        if x.ndim != 2 or x.shape[1] != self._n:
            raise WireError(
                f"batch must have shape (batch, {self._n}), got {x.shape}"
            )
        for stage in self._stages:
            if stage.perm is not None:
                x = stage.perm.apply(x)
            stage.level.apply_inplace(x)
        return x

    def trace(self, values: Sequence[int] | np.ndarray) -> EvaluationTrace:
        """Evaluate one input, recording every comparison performed.

        Only true comparators (``+``/``-``) produce
        :class:`ComparisonRecord` entries; ``0``/``1`` elements do not
        compare (Definition 3.6).
        """
        x = as_int_array(values)
        if x.shape[0] != self._n:
            raise WireError(f"input has length {x.shape[0]}, expected {self._n}")
        trace = EvaluationTrace(input=x.copy(), output=x)
        for si, stage in enumerate(self._stages):
            if stage.perm is not None:
                x = stage.perm.apply(x)
            for g in stage.level:
                va, vb = int(x[g.a]), int(x[g.b])
                if g.is_comparator:
                    trace.comparisons.append(
                        ComparisonRecord(
                            stage=si, positions=(g.a, g.b), values=(va, vb)
                        )
                    )
                x[g.a], x[g.b] = g.apply_scalar(va, vb)
        trace.output = x
        return trace

    # -- composition -------------------------------------------------------
    def then(
        self, other: "ComparatorNetwork", inter: Permutation | None = None
    ) -> "ComparatorNetwork":
        """Serial composition ``self ⊗ other`` with an optional wire map.

        The paper's serial composition allows an arbitrary one-to-one map
        from the first network's outputs to the second's inputs; ``inter``
        is that map (output position ``j`` of ``self`` feeds input position
        ``inter(j)`` of ``other``).
        """
        if other.n != self._n:
            raise WireError(
                f"cannot compose networks on {self._n} and {other.n} wires"
            )
        if inter is not None and inter.n != self._n:
            raise WireError("inter-network permutation has wrong size")
        tail = list(other.stages)
        if inter is not None and not inter.is_identity:
            if tail:
                first = tail[0]
                combined = (
                    inter if first.perm is None else inter.then(first.perm)
                )
                tail[0] = Stage(level=first.level, perm=combined)
            else:
                tail = [Stage(level=Level(()), perm=inter)]
        return ComparatorNetwork(self._n, list(self._stages) + tail)

    def truncated(self, depth: int) -> "ComparatorNetwork":
        """The prefix consisting of the first ``depth`` stages."""
        if depth < 0:
            raise WireError(f"depth must be nonnegative, got {depth}")
        return ComparatorNetwork(self._n, self._stages[:depth])

    def with_prefix_permutation(self, perm: Permutation) -> "ComparatorNetwork":
        """Prepend a data-movement permutation before the first stage."""
        if perm.n != self._n:
            raise WireError("prefix permutation has wrong size")
        if perm.is_identity:
            return self
        if self._stages:
            first = self._stages[0]
            combined = perm if first.perm is None else perm.then(first.perm)
            rest = (Stage(level=first.level, perm=combined),) + self._stages[1:]
            return ComparatorNetwork(self._n, rest)
        return ComparatorNetwork(self._n, [Stage(level=Level(()), perm=perm)])

    # -- analysis helpers ----------------------------------------------------
    def gates_by_stage(self) -> list[tuple[Gate, ...]]:
        """Gate tuples per stage, in order."""
        return [s.level.gates for s in self._stages]

    def all_gates(self) -> list[tuple[int, Gate]]:
        """All gates as ``(stage_index, gate)`` pairs."""
        return [(i, g) for i, s in enumerate(self._stages) for g in s.level]

    def is_pure_circuit(self) -> bool:
        """True iff no stage carries a (non-identity) permutation."""
        return all(s.perm is None or s.perm.is_identity for s in self._stages)

    def flattened(self) -> "ComparatorNetwork":
        """Equivalent pure-circuit network (permutations folded into wires).

        Stage permutations are eliminated by relabelling gate endpoints:
        a gate at position ``p`` of stage ``i`` acts on the wire that is
        at position ``p`` after the composition of the first ``i`` stage
        permutations, so in the flattened network the gate endpoint is the
        preimage of ``p`` under that composition.  The flattened network
        computes the same *multiset* routing up to the final residual
        permutation, which is appended as an explicit last stage so the
        input/output function is preserved exactly.
        """
        # the composition of the stage permutations so far, per stage
        so_far = list(itertools.accumulate((s.perm for s in self._stages), _then))
        stages = [
            Stage(level=_relabelled(stage.level, cur))
            for stage, cur in zip(self._stages, so_far)
        ]
        cur = so_far[-1] if so_far else None
        if cur is not None and not cur.is_identity:
            stages.append(Stage(level=Level(()), perm=cur))
        return ComparatorNetwork(self._n, stages)


def _then(cur: Permutation | None, perm: Permutation | None) -> Permutation | None:
    """``cur`` followed by ``perm``; ``None`` is the identity."""
    if perm is None:
        return cur
    return perm if cur is None else cur.then(perm)


def _relabelled(level: Level, cur: Permutation | None) -> Level:
    """``level`` with each endpoint ``p`` replaced by its preimage under
    ``cur``: one gather through the inverse permutation."""
    if cur is None:
        return level
    preimage = cur.inverse().mapping
    a, b, ops = level.arrays
    return Level.from_arrays(preimage[a], preimage[b], ops)
