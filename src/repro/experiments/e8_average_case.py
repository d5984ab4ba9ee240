"""E8 -- average case: networks that sort most inputs but not all.

Claim (Section 5, after Leighton-Plaxton [8]): there are shuffle-based
networks of depth :math:`O(\\lg n \\lg\\lg n)` that sort all but a tiny
fraction of inputs, so the :math:`\\Omega(\\lg^2 n/\\lg\\lg n)` bound of
this paper cannot extend to the average case -- it is a genuinely
worst-case phenomenon.

Two measured stand-ins (substitutions documented in DESIGN.md):

* **faulty bitonic** -- Batcher's sorter with exactly one comparator
  deleted from a chosen phase.  Still strictly in-class; sorts 50-90% of
  random inputs (more the earlier the deleted gate, because later phases
  usually repair the damage) while provably failing on some input.  The
  sweep also measures the adversary's *incompleteness*: it reliably
  catches a final-phase deletion (the surviving pair is exactly the
  deleted comparison) but misses earlier ones, underlining that it is a
  lower-bound tool, not a decision procedure.
* **sorting-biased random blocks** -- random reverse delta blocks whose
  comparators all point toward lower wire indices, composed with
  identity inter-block permutations.  Sorted fraction climbs with depth
  while the adversary still produces verified fooling pairs -- the
  separation in a single family.

Expected shape: ``sorted_fraction`` well above 0 with
``is_sorter = no`` everywhere; adversary certificates concentrated on
late-phase faults.
"""

from __future__ import annotations

import numpy as np

from ..analysis.verify import is_sorting_network, random_sorting_fraction
from ..core.fooling import prove_not_sorting
from ..networks.builders import bitonic_iterated_rdn, random_reverse_delta
from ..networks.delta import IteratedReverseDeltaNetwork, ReverseDeltaNetwork
from ..networks.gates import Gate, Op
from .harness import Table

__all__ = ["run", "sorting_biased_block", "sorting_biased_network", "faulty_bitonic"]


def sorting_biased_block(n: int, rng: np.random.Generator) -> ReverseDeltaNetwork:
    """A random reverse delta block whose comparators all point "down".

    Random pairings as in :func:`random_reverse_delta`, but each
    comparator routes its min to the lower-numbered wire, so composing
    blocks monotonically reduces the inversion count.
    """
    base = random_reverse_delta(n, rng, p_minus=0.0)
    return ReverseDeltaNetwork(
        base.leaf_order,
        [
            [Gate(g.a, g.b, Op.PLUS if g.a < g.b else Op.MINUS) for g in level]
            for level in base.levels_flat()
        ],
    )


def sorting_biased_network(
    n: int, blocks: int, rng: np.random.Generator
) -> IteratedReverseDeltaNetwork:
    """``blocks`` sorting-biased blocks, identity inter-block permutations.

    Identity inter-block permutations keep every comparator pointing the
    same global direction; a random permutation between blocks would
    scramble the orientation and destroy the usually-sorts behaviour.
    """
    entries = [(None, sorting_biased_block(n, rng)) for _ in range(blocks)]
    return IteratedReverseDeltaNetwork(n, entries)


def faulty_bitonic(
    n: int, phase: int, gate_index: int = 0
) -> IteratedReverseDeltaNetwork:
    """The bitonic sorter with one comparator removed from ``phase``.

    The gate is deleted from the phase's *root* level (the stride-1
    comparisons executed last within the phase).  ``phase`` is 1-based.
    """
    base = bitonic_iterated_rdn(n)
    blocks = list(base.blocks)
    perm, blk = blocks[phase - 1]
    final = [g for i, g in enumerate(blk.final) if i != gate_index]
    blocks[phase - 1] = (perm, blk.with_final(final))
    return IteratedReverseDeltaNetwork(n, blocks)


def _attack_cell(flat, net, trials: int, seed: int) -> dict:
    """The cacheable measurement of one sweep cell.

    The certificate (when the attack succeeds) rides along so a store
    hit can re-verify it against the freshly rebuilt network.
    """
    frac = random_sorting_fraction(flat, trials, np.random.default_rng(seed))
    outcome = prove_not_sorting(net, rng=np.random.default_rng(seed))
    cert = outcome.certificate
    return {
        "sorted_fraction": frac,
        "fooling_pair": outcome.proved_not_sorting,
        "survivor": len(outcome.run.special_set),
        "certificate": cert.to_json() if cert is not None else None,
    }


def _cell_revalidator(flat):
    """Cache hits are trusted only after the stored certificate verifies
    against the network rebuilt by *this* invocation."""

    def revalidate(result: dict) -> bool:
        cert_doc = result.get("certificate")
        if cert_doc is None:
            return True
        from ..core.certificates import NonSortingCertificate

        return NonSortingCertificate.from_json(cert_doc).verify(
            flat, strict=False
        )

    return revalidate


def run(
    exponents: tuple[int, ...] = (5, 6),
    trials: int = 2000,
    biased_exponent: int = 4,
    biased_max_blocks: int = 12,
    verify_zero_one_up_to: int = 1 << 4,
    seed: int = 0,
    store=None,
) -> Table:
    """Faulty-bitonic phase sweep plus biased-random depth curve.

    ``store`` (a :class:`repro.farm.ArtifactStore`) memoises the per-cell
    attack/sampling work; resumed sweeps skip finished cells after
    re-verifying their stored certificates.
    """
    from ..farm.store import cached

    table = Table(
        experiment="E8",
        title="Average case: sorted fraction vs worst-case verdict",
        claim=(
            "shallow / slightly-damaged shuffle-based networks sort most "
            "inputs while provably failing on some (Section 5)"
        ),
        columns=[
            "family",
            "n",
            "variant",
            "stages",
            "sorted_fraction",
            "is_sorter",
            "fooling_pair",
            "survivor",
        ],
    )
    hits = 0
    cells = 0

    for e in exponents:
        n = 1 << e
        for phase in range(1, e + 1):
            net = faulty_bitonic(n, phase)
            flat = net.to_network()
            params = {
                "experiment": "E8",
                "cell": "faulty_bitonic",
                "n": n,
                "phase": phase,
                "trials": trials,
                "seed": seed,
            }
            result, hit = cached(
                store,
                params,
                lambda: _attack_cell(flat, net, trials, seed),
                revalidate=_cell_revalidator(flat),
            )
            cells += 1
            hits += hit
            row = {
                "family": "faulty_bitonic",
                "n": n,
                "variant": f"drop@phase{phase}",
                "stages": flat.depth,
                "sorted_fraction": result["sorted_fraction"],
                "fooling_pair": result["fooling_pair"],
                "survivor": result["survivor"],
            }
            if n <= verify_zero_one_up_to:
                row["is_sorter"] = is_sorting_network(flat)
            table.add_row(**row)

    n = 1 << biased_exponent
    rng = np.random.default_rng(seed + 1)
    network = sorting_biased_network(n, biased_max_blocks, rng)
    for blocks in range(1, biased_max_blocks + 1):
        prefix = network.truncated(blocks)
        flat = prefix.to_network()
        params = {
            "experiment": "E8",
            "cell": "biased_random",
            "n": n,
            "blocks": blocks,
            "max_blocks": biased_max_blocks,
            "trials": trials,
            "seed": seed,
        }
        result, hit = cached(
            store,
            params,
            lambda: _attack_cell(flat, prefix, trials, seed),
            revalidate=_cell_revalidator(flat),
        )
        cells += 1
        hits += hit
        table.add_row(
            family="biased_random",
            n=n,
            variant=f"{blocks} blocks",
            stages=flat.depth,
            sorted_fraction=result["sorted_fraction"],
            is_sorter=is_sorting_network(flat)
            if n <= verify_zero_one_up_to
            else None,
            fooling_pair=result["fooling_pair"],
            survivor=result["survivor"],
        )
    if store is not None:
        table.notes.append(
            f"store: {hits}/{cells} cells served from cache "
            "(certificates re-verified against rebuilt networks)"
        )
    table.notes.append(
        "faulty bitonic: earlier faults are usually repaired by later "
        "phases (higher sorted_fraction) and escape the adversary -- "
        "soundness without completeness; a final-phase fault is caught "
        "with |D| = 2, exactly the deleted comparison."
    )
    return table
