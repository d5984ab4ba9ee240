"""Corollary 4.1.1: from a surviving special set to a fooling pair.

If the adversary finishes with a noncolliding :math:`[\\mathcal{M}_0]`-set
``D`` of size at least two, the pattern refines to an input :math:`\\pi`
assigning *adjacent* values ``m, m+1`` to two wires of ``D``.  Because
those values are never compared, the network routes :math:`\\pi` and the
swapped input :math:`\\pi'` identically -- so it cannot sort both, and is
not a sorting network.  :func:`extract_fooling_pair` performs the
refinement and packages the result as a verifiable
:class:`~repro.core.certificates.NonSortingCertificate`;
:func:`prove_not_sorting` is the end-to-end entry point (adversary run +
extraction + verification).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..errors import PatternError
from ..networks.delta import IteratedReverseDeltaNetwork
from ..networks.network import ComparatorNetwork
from ..obs import events as obs_events
from ..obs.trace import get_tracer
from .certificates import NonSortingCertificate
from .iterate import AdversaryRun, run_adversary
from .pattern import Pattern, _keys, _refine

__all__ = ["extract_fooling_pair", "prove_not_sorting", "FoolingOutcome"]


def extract_fooling_pair(
    network: ComparatorNetwork,
    pattern: Pattern | np.ndarray,
    special_set: Iterable[int],
    rng: np.random.Generator | None = None,
    verify: bool = True,
) -> NonSortingCertificate:
    """Refine a pattern with a noncolliding set into a verified fooling pair.

    Parameters
    ----------
    network:
        The flattened network the certificate is checked against.
    pattern:
        The final input pattern, as a :class:`Pattern` or as an integer
        code array ordered as its symbols (such as
        :attr:`AdversaryRun.input_codes`); every wire of ``special_set``
        must carry the same symbol (so the refinement gives them
        consecutive values).
    special_set:
        At least two wires claimed mutually noncolliding under the pattern.
    rng:
        Optional randomness for tie-breaking within symbol groups.
    verify:
        Re-check the certificate by direct evaluation before returning
        (default); a failure raises
        :class:`~repro.errors.CertificateError`.
    """
    wires = sorted(set(int(w) for w in special_set))
    if len(wires) < 2:
        raise PatternError(
            f"need at least two special wires to build a fooling pair, got {len(wires)}"
        )
    keys = _keys(pattern)
    if (keys[wires] != keys[wires[0]]).any():
        raise PatternError("special-set wires must share one symbol")

    values = _refine(keys, rng)
    # Equal-symbol wires receive consecutive values; take the two
    # special wires with the smallest values -- they are adjacent.
    by_value = sorted(wires, key=lambda w: int(values[w]))
    w0, w1 = by_value[0], by_value[1]
    m, m1 = int(values[w0]), int(values[w1])
    if m1 != m + 1:
        raise PatternError(
            "refinement did not give the special wires consecutive values; "
            "is the special set a full symbol class?"
        )
    swapped = values.copy()
    swapped[w0], swapped[w1] = swapped[w1], swapped[w0]
    cert = NonSortingCertificate(
        input_a=values, input_b=swapped, wires=(w0, w1), values=(m, m1)
    )
    if verify:
        cert.verify(network, strict=True)
    return cert


class FoolingOutcome:
    """Result of :func:`prove_not_sorting`.

    Attributes
    ----------
    run:
        The full adversary trace.
    certificate:
        A verified :class:`NonSortingCertificate`, or ``None`` when the
        adversary's special set collapsed below two wires (which happens
        exactly when the network may sort -- e.g. against the full
        bitonic sorter).
    """

    def __init__(self, run: AdversaryRun, certificate: NonSortingCertificate | None):
        self.run = run
        self.certificate = certificate

    @property
    def proved_not_sorting(self) -> bool:
        """True iff a verified fooling pair was produced."""
        return self.certificate is not None

    def __repr__(self) -> str:
        status = "NOT a sorting network" if self.proved_not_sorting else "inconclusive"
        return (
            f"FoolingOutcome({status}, |D|={len(self.run.special_set)}, "
            f"blocks={self.run.blocks_processed})"
        )


def prove_not_sorting(
    network: IteratedReverseDeltaNetwork,
    *,
    k: int | None = None,
    rng: np.random.Generator | None = None,
    **adversary_kwargs,
) -> FoolingOutcome:
    """End-to-end lower-bound pipeline for one concrete network.

    Runs the Theorem 4.1 adversary; if the special set survives with two
    or more wires, extracts and *verifies* a fooling pair against the
    flattened network.  An inconclusive outcome (``certificate is None``)
    means the adversary died -- guaranteed not to happen while
    ``d < lg n / (4 lg lg n)`` by Corollary 4.1.1, and in practice the
    measured adversary survives much deeper than the worst-case bound.
    """
    run = run_adversary(network, k=k, rng=rng, **adversary_kwargs)
    if not run.survived:
        return FoolingOutcome(run, None)
    with get_tracer().span(
        obs_events.SPAN_EXTRACT, n=network.n, survivors=len(run.special_set)
    ):
        flat = network.to_network()
        cert = extract_fooling_pair(
            flat, run.input_codes, run.special_set, rng=rng, verify=True
        )
    return FoolingOutcome(run, cert)
