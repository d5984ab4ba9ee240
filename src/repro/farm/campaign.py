"""Campaign specs: grid expansion, resume-from-store, orchestration.

A campaign is a JSON document describing a sweep of one job kind over a
parameter grid::

    {
      "name": "bitonic-vs-random",
      "kind": "attack",
      "grid": {"family": ["bitonic", "random_iterated"],
               "n": [16, 32], "blocks": [2, 3], "seed": [0, 1]},
      "fixed": {"k": null},
      "workers": 4, "timeout": 60.0, "retries": 1, "backoff": 0.5
    }

``grid`` values are lists swept in cartesian product; ``fixed`` values
are merged into every job.  :func:`run_campaign` expands the grid,
consults the artifact store for finished work when resuming (cache hits
are *revalidated* -- e.g. certificates re-verified against the freshly
rebuilt network -- before they are trusted, and counted separately),
executes the remainder on the worker pool, and streams completed results
into the store so an interrupt never loses finished work.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .._util import json_native
from ..errors import FarmError
from ..obs import events as obs_events
from ..obs.trace import get_tracer
from .heartbeat import HeartbeatWriter
from .jobs import JOB_TYPES, Job, job_for
from .runner import JobOutcome, RunReport, run_jobs
from .store import ArtifactStore, trusted_document

__all__ = [
    "CAMPAIGN_FORMAT",
    "CampaignSpec",
    "CampaignResult",
    "expand_grid",
    "run_campaign",
]

#: Version of the campaign spec document; bump on field changes so
#: checked-in campaign files stay identifiable across releases.
CAMPAIGN_FORMAT = 1


@dataclass
class CampaignSpec:
    """A declarative sweep of one job kind over a parameter grid."""

    name: str
    kind: str
    grid: dict[str, list[Any]] = field(default_factory=dict)
    fixed: dict[str, Any] = field(default_factory=dict)
    workers: int = 1
    timeout: float | None = None
    retries: int = 0
    backoff: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in JOB_TYPES:
            raise FarmError(
                f"unknown job kind {self.kind!r}; "
                f"available: {', '.join(JOB_TYPES)}"
            )
        for key, values in self.grid.items():
            if not isinstance(values, list) or not values:
                raise FarmError(
                    f"grid axis {key!r} must be a non-empty list, "
                    f"got {values!r}"
                )
        overlap = set(self.grid) & set(self.fixed)
        if overlap:
            raise FarmError(
                f"parameters appear in both grid and fixed: {sorted(overlap)}"
            )

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "CampaignSpec":
        if not isinstance(doc, dict):
            raise FarmError("campaign spec must be a JSON object")
        known = {
            "name", "kind", "grid", "fixed",
            "workers", "timeout", "retries", "backoff",
        }
        unknown = set(doc) - known
        if unknown:
            raise FarmError(f"unknown spec fields: {sorted(unknown)}")
        try:
            return cls(
                name=doc["name"],
                kind=doc["kind"],
                grid=dict(doc.get("grid", {})),
                fixed=dict(doc.get("fixed", {})),
                workers=int(doc.get("workers", 1)),
                timeout=(
                    None if doc.get("timeout") is None
                    else float(doc["timeout"])
                ),
                retries=int(doc.get("retries", 0)),
                backoff=float(doc.get("backoff", 0.5)),
            )
        except KeyError as exc:
            raise FarmError(f"campaign spec is missing {exc.args[0]!r}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise FarmError(f"cannot read campaign spec: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FarmError(f"campaign spec is not valid JSON: {exc}") from exc
        return cls.from_json(doc)

    def to_json(self) -> dict[str, Any]:
        """Inverse of :meth:`from_json`."""
        return {
            "name": self.name,
            "kind": self.kind,
            "grid": json_native(self.grid),
            "fixed": json_native(self.fixed),
            "workers": self.workers,
            "timeout": self.timeout,
            "retries": self.retries,
            "backoff": self.backoff,
        }

    def expand(self) -> list[Job]:
        """All jobs of the sweep, in deterministic grid order."""
        return expand_grid(self.kind, self.grid, self.fixed)


def expand_grid(
    kind: str,
    grid: dict[str, list[Any]],
    fixed: dict[str, Any] | None = None,
) -> list[Job]:
    """Cartesian-product a grid into concrete jobs (axes sorted by name)."""
    axes = sorted(grid)
    jobs: list[Job] = []
    for combo in itertools.product(*(grid[a] for a in axes)):
        params = dict(fixed or {})
        params.update(zip(axes, combo))
        jobs.append(job_for(kind, params))
    return jobs


@dataclass
class CampaignResult:
    """Aggregated fate of one campaign run."""

    spec: CampaignSpec
    outcomes: list[JobOutcome] = field(default_factory=list)
    interrupted: bool = False
    wall_time: float = 0.0
    #: Cache hits whose revalidation failed and were recomputed.
    invalidated: int = 0

    @property
    def total(self) -> int:
        """Number of jobs in the expanded grid."""
        return len(self.outcomes)

    def count(self, status: str) -> int:
        """Number of outcomes with the given status string."""
        return sum(1 for out in self.outcomes if out.status == status)

    @property
    def hits(self) -> int:
        """Jobs served from the store (revalidated cache hits)."""
        return self.count("cached")

    @property
    def executed(self) -> int:
        """Jobs that actually ran on the pool (everything not cached)."""
        return sum(1 for out in self.outcomes if not out.cached)

    @property
    def failures(self) -> int:
        """Jobs that ended in error or timeout after all retries."""
        return self.count("error") + self.count("timeout")

    @property
    def hit_rate(self) -> float:
        """Fraction of jobs served from the store."""
        return self.hits / self.total if self.total else 0.0

    def summary(self) -> dict[str, Any]:
        """Machine-readable roll-up (what ``farm run --json`` prints)."""
        return {
            "campaign": self.spec.name,
            "kind": self.spec.kind,
            "total": self.total,
            "ok": self.count("ok"),
            "cached": self.hits,
            "invalidated": self.invalidated,
            "errors": self.count("error"),
            "timeouts": self.count("timeout"),
            "interrupted_jobs": self.count("interrupted"),
            "interrupted": self.interrupted,
            "hit_rate": round(self.hit_rate, 4),
            "wall_time": round(self.wall_time, 4),
        }


def run_campaign(
    spec: CampaignSpec,
    store: ArtifactStore | None = None,
    *,
    workers: int | None = None,
    resume: bool = False,
    timeout: float | None = None,
    retries: int | None = None,
) -> CampaignResult:
    """Expand, (optionally) resume from the store, execute, persist.

    With ``resume=True`` and a store, jobs whose artifacts already exist
    are skipped after :meth:`Job.revalidate` independently re-checks the
    stored result (a certificate is re-verified against the freshly
    rebuilt network; a failed check recomputes the job and overwrites
    the artifact).  Without ``resume`` every job executes and its result
    overwrites any previous artifact.
    """
    start = time.perf_counter()
    jobs = spec.expand()
    result = CampaignResult(spec=spec)
    tracer = get_tracer()

    with tracer.span(
        obs_events.SPAN_FARM_CAMPAIGN,
        campaign=spec.name,
        kind=spec.kind,
        jobs=len(jobs),
        resume=resume,
    ) as span:
        to_run: list[Job] = []
        for job in jobs:
            key = job.key()
            doc, refused = (
                trusted_document(store, key, job.revalidate)
                if resume and store is not None
                else (None, False)
            )
            if doc is not None:
                result.outcomes.append(
                    JobOutcome(
                        job=job,
                        key=key,
                        status="cached",
                        result=doc["result"],
                        elapsed=float(doc.get("elapsed") or 0.0),
                        attempts=0,
                        cached=True,
                    )
                )
                continue
            result.invalidated += refused
            to_run.append(job)

        if resume and tracer.enabled:
            tracer.event(
                obs_events.EV_RESUME,
                campaign=spec.name,
                jobs=len(jobs),
                cached=result.hits,
                invalidated=result.invalidated,
                to_run=len(to_run),
            )

        def persist(outcome: JobOutcome) -> None:
            result.outcomes.append(outcome)
            if store is not None and outcome.status == "ok":
                store.put(
                    outcome.key,
                    {
                        "job": outcome.job.to_json(),
                        "campaign": spec.name,
                        "status": "ok",
                        "result": outcome.result,
                        "elapsed": outcome.elapsed,
                        "queue_wait": outcome.queue_wait,
                        "cpu": outcome.cpu,
                        "attempts": outcome.attempts,
                    },
                )

        report: RunReport | None = None
        if to_run:
            report = run_jobs(
                to_run,
                workers=workers if workers is not None else spec.workers,
                timeout=timeout if timeout is not None else spec.timeout,
                retries=retries if retries is not None else spec.retries,
                backoff=spec.backoff,
                on_result=persist,
                # live liveness files under <store>/heartbeats/ for
                # `farm status --live` and `repro top --store`
                heartbeat=(
                    HeartbeatWriter(store.root) if store is not None else None
                ),
            )
            result.interrupted = report.interrupted
        span.set(
            cached=result.hits,
            executed=result.executed,
            failures=result.failures,
            interrupted=result.interrupted,
        )
    result.wall_time = time.perf_counter() - start
    return result
