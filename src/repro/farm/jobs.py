"""Typed job specifications for the campaign farm.

Every job is a frozen dataclass with a JSON round-trip
(:meth:`Job.to_json` / :func:`job_from_json`), a content hash
(:meth:`Job.key`) that doubles as the artifact-store address, and a
deterministic per-job seed derived from that hash, so a job computes the
same result no matter which worker, process, or machine runs it.

Kinds:

``attack``
    Build a network family (or deserialise an embedded circuit) and run
    the Theorem 4.1 adversary; the result carries the per-block trace
    and, when the attack succeeds, a verified fooling-pair certificate.
``verify``
    0-1-principle verification of a named sorter.
``lint``
    Static analysis of a named sorter (``repro.lint``).
``experiment``
    One cell of an E1-E13 sweep: run the driver with explicit kwargs and
    archive the resulting table payload.
``sleep``
    A diagnostic job that sleeps and optionally fails; used by the
    failure-path tests and worker-scaling benchmarks.

:meth:`Job.revalidate` is the trust boundary for cache hits: a stored
attack certificate is re-verified against the freshly rebuilt network,
and a stored 0-1 witness is re-evaluated, before either is believed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, fields
from typing import Any, ClassVar

import numpy as np

from .._util import json_native
from ..analysis.verify import MAX_ZERO_ONE_WIRES
from ..errors import FarmError
from .store import job_key

__all__ = [
    "JOB_FORMAT",
    "Job",
    "AttackJob",
    "VerifyJob",
    "LintJob",
    "ExperimentCellJob",
    "SleepJob",
    "JOB_TYPES",
    "job_for",
    "job_from_json",
]

#: Hashed into every job key; bump to invalidate previously stored work.
JOB_FORMAT = 1


@dataclass(frozen=True)
class Job:
    """Base class: serialisation, content addressing, derived seeding."""

    kind: ClassVar[str] = ""

    def params(self) -> dict[str, Any]:
        """JSON-compatible parameter dict (the hashed identity)."""
        return {
            f.name: json_native(getattr(self, f.name)) for f in fields(self)
        }

    def to_json(self) -> dict[str, Any]:
        """Kind-tagged document; inverse of :func:`job_from_json`."""
        return {"kind": self.kind, "params": self.params()}

    def key(self) -> str:
        """Content hash: the artifact-store address of this job's result."""
        return job_key({"format": JOB_FORMAT, "job": self.to_json()})

    def derived_seed(self, stream: int = 0) -> int:
        """Deterministic 64-bit seed derived from the job hash."""
        digest = hashlib.sha256(f"{self.key()}/{stream}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def rng(self, stream: int = 0) -> np.random.Generator:
        """Per-job generator; ``stream`` separates independent uses."""
        return np.random.default_rng(self.derived_seed(stream))

    def label(self) -> str:
        """Compact human-readable identity for tables and logs."""
        parts = ",".join(
            f"{k}={v}"
            for k, v in self.params().items()
            if v is not None and not isinstance(v, (dict, list))
        )
        return f"{self.kind}({parts})"

    def execute(self) -> dict[str, Any]:
        """Run the job and return its JSON-compatible result document."""
        raise NotImplementedError

    def revalidate(self, result: dict[str, Any]) -> bool:
        """Independently re-check a cached result before trusting it."""
        return True


@dataclass(frozen=True)
class AttackJob(Job):
    """Run the adversary against a family instance or embedded circuit."""

    kind: ClassVar[str] = "attack"

    family: str = "random_iterated"
    n: int = 64
    blocks: int = 3
    k: int | None = None
    seed: int = 0
    #: Optional serialised network payload (``repro.networks.serialize``);
    #: when set it replaces the family parameters and is hashed verbatim,
    #: so the key addresses the circuit *content*.
    network: dict[str, Any] | None = None

    def build_network(self):
        """(Re)build the attack target deterministically from the spec."""
        if self.network is not None:
            from ..networks import serialize as net_serialize

            obj = net_serialize.from_payload(self.network)
            return obj
        from ..experiments.workloads import seeded_family

        return seeded_family(
            self.family, self.n, self.blocks, self.derived_seed(stream=0)
        )

    def _outcome(self):
        from ..core.attack import attack_circuit
        from ..core.fooling import prove_not_sorting
        from ..networks.delta import IteratedReverseDeltaNetwork

        net = self.build_network()
        rng = self.rng(stream=1)
        if isinstance(net, IteratedReverseDeltaNetwork):
            return net, prove_not_sorting(net, k=self.k, rng=rng)
        return net, attack_circuit(net, k=self.k, rng=rng)

    def execute(self) -> dict[str, Any]:
        """Attack the network; result carries the trace and certificate."""
        _, outcome = self._outcome()
        run = outcome.run
        cert = outcome.certificate
        return {
            "n": run.n,
            "k": run.k,
            "proved_not_sorting": outcome.proved_not_sorting,
            "survivor": len(run.special_set),
            "blocks_processed": run.blocks_processed,
            "records": [
                {
                    "block": rec.block_index,
                    "entering": rec.entering_size,
                    "union": rec.union_size,
                    "survivor": rec.chosen_size,
                }
                for rec in run.records
            ],
            "certificate": cert.to_json() if cert is not None else None,
        }

    def revalidate(self, result: dict[str, Any]) -> bool:
        """Re-verify a stored certificate against the rebuilt network."""
        cert_doc = result.get("certificate")
        if cert_doc is None:
            return True
        from ..core.attack import recognize_iterated_rdn
        from ..core.certificates import NonSortingCertificate
        from ..networks.delta import IteratedReverseDeltaNetwork

        net = self.build_network()
        if not isinstance(net, IteratedReverseDeltaNetwork):
            net = recognize_iterated_rdn(net)
        cert = NonSortingCertificate.from_json(cert_doc)
        return cert.verify(net.to_network(), strict=False)


@dataclass(frozen=True)
class VerifyJob(Job):
    """Exhaustive 0-1-principle verification of a named sorter."""

    kind: ClassVar[str] = "verify"

    sorter: str = "bitonic"
    n: int = 16
    max_wires: int = MAX_ZERO_ONE_WIRES

    def __post_init__(self) -> None:
        # serve parses requests through here: refuse what no worker can
        # run (a foreign TypeError) or bound (a 2^n sweep past 2^24)
        for name in ("n", "max_wires"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise FarmError(
                    f"verify job {name} must be an integer, got {value!r}"
                )
        if not 1 <= self.n <= MAX_ZERO_ONE_WIRES:
            raise FarmError(
                f"verify job n must be in 1..{MAX_ZERO_ONE_WIRES}, got {self.n}"
            )

    def build_network(self):
        """Instantiate the named sorter at this job's width."""
        from ..sorters.registry import get_sorter

        return get_sorter(self.sorter).build(self.n)

    def execute(self) -> dict[str, Any]:
        """0-1 verify; result carries a counterexample witness if any.

        The result is the shared verdict document of
        :func:`repro.serve.protocol.verdict_document`, so a farm
        campaign row, a ``repro verify --json`` run, and a certificate
        service reply are the same shape (imported lazily to keep the
        farm layer importable without the service).
        """
        from ..analysis.verify import find_unsorted_zero_one_input
        from ..serve.protocol import verdict_document

        net = self.build_network()
        witness = find_unsorted_zero_one_input(net, max_wires=self.max_wires)
        return verdict_document(
            sorter=self.sorter,
            n=self.n,
            depth=net.depth,
            size=net.size,
            witness=None if witness is None else witness.tolist(),
        )

    def revalidate(self, result: dict[str, Any]) -> bool:
        """Re-evaluate a stored unsorted witness on the rebuilt network."""
        witness = result.get("witness")
        if witness is None:
            return True
        out = self.build_network().evaluate(np.asarray(witness, dtype=np.int64))
        return bool((np.diff(out) < 0).any())


@dataclass(frozen=True)
class LintJob(Job):
    """Static analysis of a named sorter via :mod:`repro.lint`."""

    kind: ClassVar[str] = "lint"

    sorter: str = "bitonic"
    n: int = 16
    select: tuple[str, ...] | None = None

    def execute(self) -> dict[str, Any]:
        """Lint the sorter; result carries the full report document."""
        from ..lint import LintConfig, lint_network
        from ..sorters.registry import get_sorter

        config = LintConfig(
            select=tuple(self.select) if self.select else None
        )
        report = lint_network(
            get_sorter(self.sorter).build(self.n),
            target=f"{self.sorter} (n={self.n})",
            config=config,
        )
        return {"report": report.to_json(), "exit_code": report.exit_code}


@dataclass(frozen=True)
class ExperimentCellJob(Job):
    """One cell of an experiment sweep: a driver call with explicit kwargs."""

    kind: ClassVar[str] = "experiment"

    experiment: str = "E7"
    #: Keyword arguments passed to the driver's ``run``; must be
    #: JSON-compatible (lists are accepted where drivers take tuples).
    kwargs: dict[str, Any] | None = None

    def execute(self) -> dict[str, Any]:
        """Run one experiment driver; result archives the table payload."""
        from ..experiments import ALL_EXPERIMENTS

        name = self.experiment.upper()
        if name not in ALL_EXPERIMENTS:
            raise FarmError(
                f"unknown experiment {self.experiment!r}; "
                f"available: {', '.join(ALL_EXPERIMENTS)}"
            )
        table = ALL_EXPERIMENTS[name](**(self.kwargs or {}))
        return {"experiment": name, "table": table.to_payload()}


@dataclass(frozen=True)
class SleepJob(Job):
    """Sleep then succeed or fail; exercises timeout/retry/SIGINT paths."""

    kind: ClassVar[str] = "sleep"

    duration: float = 0.0
    fail: bool = False
    tag: str = ""

    def execute(self) -> dict[str, Any]:
        """Sleep ``duration`` seconds, then succeed or raise on demand."""
        time.sleep(self.duration)
        if self.fail:
            raise FarmError(f"injected failure ({self.tag or 'sleep job'})")
        return {"slept": self.duration, "tag": self.tag}


JOB_TYPES: dict[str, type[Job]] = {
    cls.kind: cls
    for cls in (AttackJob, VerifyJob, LintJob, ExperimentCellJob, SleepJob)
}


def job_for(kind: str, params: dict[str, Any]) -> Job:
    """Instantiate a job from its kind name and parameter dict."""
    try:
        cls = JOB_TYPES[kind]
    except KeyError:
        raise FarmError(
            f"unknown job kind {kind!r}; available: {', '.join(JOB_TYPES)}"
        ) from None
    clean: dict[str, Any] = {}
    names = {f.name for f in fields(cls)}
    for name, value in params.items():
        if name not in names:
            raise FarmError(f"job kind {kind!r} has no parameter {name!r}")
        # JSON hands back lists where dataclasses expect tuples
        if isinstance(value, list) and name in ("select",):
            value = tuple(value)
        clean[name] = value
    try:
        return cls(**clean)
    except TypeError as exc:
        raise FarmError(f"invalid {kind!r} job parameters: {exc}") from exc


def job_from_json(doc: dict[str, Any]) -> Job:
    """Inverse of :meth:`Job.to_json`."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FarmError("job document must be an object with a 'kind'")
    return job_for(doc["kind"], doc.get("params") or {})
