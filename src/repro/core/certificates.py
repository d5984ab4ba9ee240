"""Machine-checkable certificates produced by the lower-bound machinery.

A :class:`NonSortingCertificate` packages the Corollary 4.1.1 witness --
two concrete inputs differing by a swap of the adjacent values ``m`` and
``m+1`` that the network never compares -- together with a
:meth:`~NonSortingCertificate.verify` method that re-checks everything by
direct circuit evaluation, independently of the pattern machinery that
produced it:

1. the wires are in range, and both inputs are permutations differing
   exactly by the ``m``/``m+1`` swap;
2. evaluating the first input never puts ``m`` and ``m+1`` on the two
   ends of one comparator;
3. the network routes both inputs identically (the outputs differ exactly
   by the positions of ``m`` and ``m+1``);
4. consequently at least one of the two outputs is unsorted.

The check is O(depth) array steps: both inputs run through the network
as one two-row batch, and per stage only the positions of ``m`` and
``m+1`` are followed and looked up in the level's partner array.  No
record of the other comparisons is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import CertificateError
from ..networks.network import ComparatorNetwork

__all__ = ["CERTIFICATE_FORMAT", "NonSortingCertificate"]

#: Version of the certificate JSON document; bump on field changes so
#: archived certificates (the farm store keeps them) stay identifiable.
CERTIFICATE_FORMAT = 1


@dataclass(frozen=True)
class NonSortingCertificate:
    """A verified witness that a network is not a sorting network."""

    input_a: np.ndarray
    input_b: np.ndarray
    wires: tuple[int, int]
    values: tuple[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_a", np.asarray(self.input_a, dtype=np.int64))
        object.__setattr__(self, "input_b", np.asarray(self.input_b, dtype=np.int64))

    @property
    def n(self) -> int:
        """Number of wires."""
        return int(self.input_a.shape[0])

    def verify(self, network: ComparatorNetwork, strict: bool = True) -> bool:
        """Re-check the certificate against the network by evaluation.

        Raises :class:`~repro.errors.CertificateError` on failure when
        ``strict``; otherwise returns False.
        """
        try:
            self._verify_or_raise(network)
        except CertificateError:
            if strict:
                raise
            return False
        return True

    def _verify_or_raise(self, network: ComparatorNetwork) -> None:
        n = self.n
        if network.n != n:
            raise CertificateError(
                f"certificate is for {n} wires, network has {network.n}"
            )
        a, b = self.input_a, self.input_b
        m, m1 = self.values
        w0, w1 = self.wires
        if not (0 <= w0 < n and 0 <= w1 < n):
            raise CertificateError(
                f"wires {self.wires} out of range [0, {n})"
            )
        if m1 != m + 1:
            raise CertificateError(f"values {self.values} are not adjacent")
        if sorted(a.tolist()) != list(range(n)) or sorted(b.tolist()) != list(
            range(n)
        ):
            raise CertificateError("inputs are not permutations of 0..n-1")
        if {int(a[w0]), int(a[w1])} != {m, m1}:
            raise CertificateError("wires do not carry the claimed values")
        diff = np.nonzero(a != b)[0]
        if set(diff.tolist()) != {w0, w1} or int(b[w0]) != int(a[w1]) or int(
            b[w1]
        ) != int(a[w0]):
            raise CertificateError("inputs do not differ by the claimed swap")

        start = (w0, w1) if int(a[w0]) == m else (w1, w0)
        out_a, out_b, pos_m, pos_m1 = self._run(network, *start)
        expected_b = out_a.copy()
        expected_b[pos_m], expected_b[pos_m1] = m1, m
        if not np.array_equal(out_b, expected_b):
            raise CertificateError(
                "network did not route both inputs identically; the "
                "uncompared-pair argument fails"
            )
        sorted_a = bool((np.diff(out_a) >= 0).all())
        sorted_b = bool((np.diff(out_b) >= 0).all())
        if sorted_a and sorted_b:
            raise CertificateError(
                "both outputs sorted -- impossible for a genuine certificate"
            )

    def _run(
        self, network: ComparatorNetwork, pos_m: int, pos_m1: int
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Both outputs, and where ``m`` and ``m+1`` (starting on wires
        ``pos_m``/``pos_m1`` of the first input) end up in the first.

        Raises :class:`CertificateError` as soon as ``m`` and ``m+1``
        sit on the two ends of one comparator.
        """
        m, m1 = self.values
        x = np.stack((self.input_a, self.input_b))
        for stage in network.stages:
            if stage.perm is not None:
                x = stage.perm.apply(x)
                pos_m = int(stage.perm.mapping[pos_m])
                pos_m1 = int(stage.perm.mapping[pos_m1])
            level = stage.level
            partner, compares = level.partners
            if pos_m < len(partner) and partner[pos_m] == pos_m1 and compares[pos_m]:
                raise CertificateError(
                    f"the values {m} and {m + 1} were compared; the special "
                    "set was not noncolliding"
                )
            level.apply_inplace(x)
            # a value leaves its position only across the gate touching it
            if x[0, pos_m] != m:
                pos_m = int(partner[pos_m])
            if x[0, pos_m1] != m1:
                pos_m1 = int(partner[pos_m1])
        return x[0], x[1], pos_m, pos_m1

    def to_json(self) -> dict[str, Any]:
        """Serialise as a JSON-compatible dict (kind-tagged).

        The inverse is :meth:`from_json`; a round-tripped certificate
        still :meth:`verify`-ies against the same network, which is what
        lets the farm's artifact store archive certificates and re-check
        them independently on every cache hit.
        """
        return {
            "kind": "certificate",
            "input_a": self.input_a.tolist(),
            "input_b": self.input_b.tolist(),
            "wires": [int(self.wires[0]), int(self.wires[1])],
            "values": [int(self.values[0]), int(self.values[1])],
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "NonSortingCertificate":
        """Deserialise a certificate dict (verify it separately!)."""
        if doc.get("kind") != "certificate":
            raise CertificateError(
                f"expected kind 'certificate', got {doc.get('kind')!r}"
            )
        return cls(
            input_a=np.asarray(doc["input_a"], dtype=np.int64),
            input_b=np.asarray(doc["input_b"], dtype=np.int64),
            wires=(int(doc["wires"][0]), int(doc["wires"][1])),
            values=(int(doc["values"][0]), int(doc["values"][1])),
        )

    def unsorted_input(self, network: ComparatorNetwork) -> np.ndarray:
        """Return one of the two inputs that the network fails to sort."""
        out_a = network.evaluate(self.input_a)
        if not bool((np.diff(out_a) >= 0).all()):
            return self.input_a.copy()
        return self.input_b.copy()
