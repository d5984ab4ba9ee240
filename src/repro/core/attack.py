"""Attack arbitrary circuits: recognise the class, then run the adversary.

The lower bound speaks about *iterated reverse delta networks*, but a
user typically holds a plain :class:`~repro.networks.network.
ComparatorNetwork`.  This module closes the gap:

1. flatten away stage permutations (they fold into wire relabellings
   plus one trailing output permutation, which cannot affect whether two
   values are ever compared);
2. group the levels into consecutive ``lg n``-level blocks, padding the
   last block with empty levels (empty levels are valid in
   Definition 3.4);
3. reconstruct each block's reverse-delta tree with
   :func:`repro.analysis.properties.reconstruct_reverse_delta`;
4. run the Theorem 4.1 adversary on the assembled iterated network.

If some block is *not* a reverse delta network the circuit is outside
the class and :class:`~repro.errors.TopologyError` is raised -- the
lower bound simply does not apply to it (e.g. the odd-even merge
sorter), which is honest and exactly what the paper says.  Because
:class:`~repro.errors.TopologyError` subclasses
:class:`~repro.errors.LintError`, the raised error carries structured
:class:`~repro.lint.diagnostics.Diagnostic` records naming the exact
flattened level (and gate, when known) that broke recognition, so
``except TopologyError`` keeps working while new callers -- the CLI and
``repro lint`` -- render precise, uniform messages.
"""

from __future__ import annotations

import numpy as np

from .._util import ilog2, is_power_of_two
from ..errors import TopologyError
from ..networks.delta import IteratedReverseDeltaNetwork
from ..networks.level import Level
from ..networks.network import ComparatorNetwork
from ..analysis.properties import reconstruct_reverse_delta
from ..obs import events as obs_events
from ..obs.trace import get_tracer
from .fooling import FoolingOutcome, prove_not_sorting

__all__ = ["recognize_iterated_rdn", "attack_circuit"]


def _class_diagnostics(exc: TopologyError, level_offset: int = 0) -> list:
    """Build the structured diagnostics for a recognition failure.

    ``level_offset`` converts a block-local level index into a global
    flattened-level index.  Imported lazily to keep
    ``repro.core`` importable without ``repro.lint`` and vice versa.
    """
    from ..lint.diagnostics import Diagnostic, Location, Severity

    level = exc.level + level_offset if exc.level is not None else None
    gate = exc.gate
    wires = tuple(gate.wires) if gate is not None else ()
    return [
        Diagnostic(
            rule="class/out-of-class",
            severity=Severity.ERROR,
            message=str(exc),
            location=Location(stage=level, wires=wires),
        )
    ]


def recognize_iterated_rdn(
    network: ComparatorNetwork,
) -> IteratedReverseDeltaNetwork:
    """Reconstruct the iterated-reverse-delta structure of a circuit.

    The network's stage permutations are flattened first; the trailing
    residual output permutation (if any) is dropped, which is sound for
    collision analysis: it moves values after the last comparison.
    Levels are then grouped into ``lg n``-sized blocks (the last block is
    padded with empty levels) and each group is reconstructed as a
    reverse delta tree.

    Raises :class:`TopologyError` if any block falls outside
    Definition 3.4; the error doubles as a
    :class:`~repro.errors.LintError` whose ``diagnostics`` pinpoint the
    offending flattened level and gate.
    """
    n = network.n
    with get_tracer().span(obs_events.SPAN_RECOGNIZE, n=n) as span:
        if not is_power_of_two(n):
            exc = TopologyError(
                f"class requires a power-of-two wire count, got {n}"
            )
            exc.diagnostics = _class_diagnostics(exc)
            raise exc
        log_n = ilog2(n)
        flat = network.flattened()
        stages = list(flat.stages)
        # drop the trailing pure-permutation stage flattening may add
        if stages and stages[-1].perm is not None and not len(stages[-1].level):
            stages = stages[:-1]
        if any(s.perm is not None for s in stages):  # pragma: no cover - defensive
            raise TopologyError("flattening left an interior permutation")
        levels = [s.level for s in stages]
        if log_n == 0:
            return IteratedReverseDeltaNetwork(n, [])
        while len(levels) % log_n:
            levels.append(Level(()))
        blocks = []
        for start in range(0, len(levels), log_n):
            group = ComparatorNetwork(n, levels[start : start + log_n])
            try:
                rdn = reconstruct_reverse_delta(group)
            except TopologyError as exc:
                raise TopologyError(
                    f"levels {start}..{start + log_n - 1} do not form a reverse "
                    f"delta network: {exc}",
                    level=start + exc.level if exc.level is not None else None,
                    gate=exc.gate,
                    diagnostics=_class_diagnostics(exc, level_offset=start),
                ) from exc
            blocks.append((None, rdn))
        span.set(levels=len(levels), blocks=len(blocks))
        return IteratedReverseDeltaNetwork(n, blocks)


def attack_circuit(
    network: ComparatorNetwork,
    *,
    k: int | None = None,
    rng: np.random.Generator | None = None,
    **adversary_kwargs,
) -> FoolingOutcome:
    """Recognise a plain circuit's class structure and attack it.

    Combines :func:`recognize_iterated_rdn` with
    :func:`repro.core.fooling.prove_not_sorting`.  The returned
    certificate (if any) is verified against the *recognised* network,
    which computes the same comparisons as the original up to the
    dropped trailing output permutation.
    """
    with get_tracer().span(obs_events.SPAN_ATTACK, n=network.n) as span:
        iterated = recognize_iterated_rdn(network)
        outcome = prove_not_sorting(iterated, k=k, rng=rng, **adversary_kwargs)
        span.set(
            proved=outcome.proved_not_sorting,
            survivor=len(outcome.run.special_set),
            blocks_processed=outcome.run.blocks_processed,
        )
        return outcome
