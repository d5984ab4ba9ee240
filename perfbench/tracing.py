"""Spans for the traced run: a recorder, the layer hooks, the layer table.

The benchmark times each layer from the outside.  :func:`install`
replaces a public function at the attribute its caller looks up (for
example ``repro.core.iterate.run_lemma41``, which is what the Theorem
4.1 loop calls) with a wrapper that records one span per call.  Spans
live in memory and are written at the end as ``repro.obs`` JSONL
records, so ``repro stats FILE`` renders them.  A hook whose target is
gone is reported as missing and the run goes on; every metric that
depends on it is then reported as unmeasured.

:func:`layer_metrics` turns the spans of the traced rounds into the
per-layer metrics of ``BENCHMARK.json``.  "Self" time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from repro.obs.events import SCHEMA_VERSION

#: (span id, op id) of the innermost open span in this context.
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """Collects finished spans in memory."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.records: list[dict[str, Any]] = []
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()

    def _new_id(self) -> str:
        with self._lock:
            return f"{self.prefix}{next(self._ids)}"

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             extra: "Callable | None" = None, op: "str | None" = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside one span named ``name``."""
        token, record, t0 = self._open(name, op)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(token, record, t0, "error")
            raise
        self._close(token, record, t0, "ok")
        self._annotate(record, extra, result, args, kwargs)
        return result

    async def acall(self, name: str, fn: Callable, args: tuple, kwargs: dict,
                    extra: "Callable | None" = None) -> Any:
        """The coroutine form of :meth:`call`."""
        token, record, t0 = self._open(name, None)
        try:
            result = await fn(*args, **kwargs)
        except BaseException:
            self._close(token, record, t0, "error")
            raise
        self._close(token, record, t0, "ok")
        self._annotate(record, extra, result, args, kwargs)
        return result

    def _open(self, name: str, op: "str | None"):
        parent = _current.get()
        span_id = self._new_id()
        if op is None:
            op = parent[1] if parent is not None else span_id
        record = {
            "v": SCHEMA_VERSION,
            "type": "span",
            "name": name,
            "trace": op,
            "parent": parent[0] if parent is not None else None,
            "id": span_id,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "ts": time.time(),
        }
        token = _current.set((span_id, op))
        return token, record, time.perf_counter()

    def _close(self, token, record: dict, t0: float, status: str) -> None:
        record["dur"] = time.perf_counter() - t0
        record["status"] = status
        _current.reset(token)
        self.records.append(record)

    @staticmethod
    def _annotate(record: dict, extra, result, args, kwargs) -> None:
        # after the span closed, so reading the result is not timed
        if extra is not None:
            record["attrs"] = extra(result, args, kwargs)

    def write(self, path: Path) -> None:
        """Write every span as one JSONL record per line."""
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")


# -- what a hook records from its call, besides the time -----------------


def _size(result, args, kwargs) -> dict:
    return {"gates": int(result.size)}


def _lemma41(result, args, kwargs) -> dict:
    return {"nodes": len(result.trace.nodes),
            "collisions": int(result.trace.total_collisions)}


def _run_report(result, args, kwargs) -> dict:
    by_kind: dict[str, float] = defaultdict(float)
    for out in result.outcomes:
        by_kind[out.job.kind] += out.elapsed
    return {
        "workers": int(kwargs.get("workers", 1)),
        "jobs": len(args[0]) if args else 0,
        "attack_elapsed": by_kind["attack"],
        "verify_elapsed": by_kind["verify"],
        "queue_wait": sum(out.queue_wait for out in result.outcomes),
        "max_elapsed": max((out.elapsed for out in result.outcomes),
                           default=0.0),
    }


def _written_bytes(result, args, kwargs) -> dict:
    return {"bytes": Path(result).stat().st_size}


#: (span name, module, attribute its caller looks up, extra recorder).
HOOKS: tuple = (
    ("networks.build", "repro.experiments.workloads", "iterated_family", _size),
    ("networks.build", "repro.farm.jobs", "AttackJob.build_network", _size),
    ("networks.serialize", "repro.networks.serialize", "loads", None),
    ("networks.to_network", "repro.networks.delta",
     "IteratedReverseDeltaNetwork.to_network", None),
    ("networks.trace", "repro.networks.network", "ComparatorNetwork.trace", None),
    ("networks.evaluate", "repro.networks.network",
     "ComparatorNetwork.evaluate", None),
    ("core.adversary", "repro.core.fooling", "run_adversary", None),
    ("core.lemma41", "repro.core.iterate", "run_lemma41", _lemma41),
    ("core.recognize", "repro.core.attack", "recognize_iterated_rdn", None),
    ("analysis.reconstruct", "repro.core.attack", "reconstruct_reverse_delta",
     None),
    ("core.extract", "repro.core.fooling", "extract_fooling_pair", None),
    ("core.verify", "repro.core.certificates", "NonSortingCertificate.verify",
     None),
    ("farm.run_jobs", "repro.farm.campaign", "run_jobs", _run_report),
    ("farm.store_put", "repro.farm.store", "ArtifactStore.put", _written_bytes),
    ("farm.store_get", "repro.farm.store", "ArtifactStore.get", None),
    ("farm.revalidate", "repro.farm.jobs", "AttackJob.revalidate", None),
    ("farm.revalidate", "repro.farm.jobs", "VerifyJob.revalidate", None),
    ("farm.key", "repro.farm.jobs", "Job.key", None),
    ("serve.handle", "repro.serve.server", "CertificateServer.handle_query",
     None),
    ("serve.parse", "repro.serve.protocol", "request_from_json", None),
    ("serve.parse", "repro.serve.protocol", "ServeRequest.job", None),
    ("serve.lookup", "repro.serve.cache", "ServeCache.lookup", None),
    ("serve.submit", "repro.serve.batcher", "Batcher.submit", None),
    ("serve.batch", "repro.serve.batcher", "run_jobs", _run_report),
    ("sanitize.pass", "repro.sanitize", "sanitize_paths", None),
    ("flow.pass", "repro.flow", "analyze_paths", None),
    ("perf.pass", "repro.perf", "analyze_paths", None),
    ("race.pass", "repro.race", "analyze_paths", None),
    ("shape.pass", "repro.shape", "analyze_paths", None),
    ("analyzers.parse", "ast", "parse", None),
)


def _wrap(recorder: Recorder, name: str, fn: Callable, extra) -> Callable:
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            return await recorder.acall(name, fn, args, kwargs, extra)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, extra)
    return wrapper


def install(recorder: Recorder) -> "tuple[Callable[[], None], list[str]]":
    """Install every hook; returns ``(uninstall, missing hook targets)``."""
    saved: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    for name, module, attr, extra in HOOKS:
        *path, last = attr.split(".")
        try:
            owner: Any = importlib.import_module(module)
            for part in path:
                owner = getattr(owner, part)
            # a class's own dict holds the plain function, not a bound one
            original = (vars(owner)[last] if isinstance(owner, type)
                        else getattr(owner, last))
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module}.{attr}")
            continue
        saved.append((owner, last, original))
        setattr(owner, last, _wrap(recorder, name, original, extra))

    def uninstall() -> None:
        for owner, last, original in reversed(saved):
            setattr(owner, last, original)

    return uninstall, missing


# -- from spans to the per-layer metrics -----------------------------------


def _merge(intervals) -> "list[tuple[float, float]]":
    """The union of ``intervals`` as sorted, disjoint intervals."""
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _overlap(xs, ys) -> float:
    """Length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(xs) and j < len(ys):
        lo, hi = max(xs[i][0], ys[j][0]), min(xs[i][1], ys[j][1])
        total += max(0.0, hi - lo)
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return total


def _interval(record: dict) -> tuple[float, float]:
    return record["ts"], record["ts"] + record["dur"]


class SpanSet:
    """Indexes a list of span records by name and parent."""

    def __init__(self, records: "list[dict[str, Any]]"):
        self.records = records
        self.by_id = {r["id"]: r for r in records}
        self.children: dict[str, list[dict]] = defaultdict(list)
        for r in records:
            if r["parent"] is not None:
                self.children[r["parent"]].append(r)

    def named(self, name: str) -> "list[dict[str, Any]]":
        return [r for r in self.records if r["name"] == name]

    def outermost(self, name: str) -> "list[dict[str, Any]]":
        """Spans named ``name`` with no ancestor of the same name."""
        out = []
        for r in self.named(name):
            parent = self.by_id.get(r["parent"])
            while parent is not None and parent["name"] != name:
                parent = self.by_id.get(parent["parent"])
            if parent is None:
                out.append(r)
        return out

    def total(self, name: str) -> float:
        return sum(r["dur"] for r in self.outermost(name))

    def self_time(self, name: str) -> float:
        total = 0.0
        for r in self.named(name):
            kids = _merge(_interval(c) for c in self.children.get(r["id"], ()))
            total += r["dur"] - _overlap([_interval(r)], kids)
        return total

    def attr_sum(self, name: str, key: str, outermost: bool = False) -> float:
        spans = self.outermost(name) if outermost else self.named(name)
        return sum((r.get("attrs") or {}).get(key, 0) for r in spans)


#: Hook span names each per-layer metric is computed from; a metric is
#: unmeasured when one of them could not be installed.
METRIC_SOURCES: dict[str, tuple[str, ...]] = {
    "networks.build_s": ("networks.build",),
    "networks.gates_built": ("networks.build",),
    "networks.serialize_s": ("networks.serialize",),
    "networks.to_network_s": ("networks.to_network",),
    "networks.trace_s": ("networks.trace",),
    "networks.evaluate_s": ("networks.evaluate",),
    "core.adversary_s": ("core.adversary", "core.lemma41"),
    "core.lemma41_s": ("core.lemma41",),
    "core.lemma41_nodes": ("core.lemma41",),
    "core.collisions": ("core.lemma41",),
    "core.recognize_s": ("core.recognize", "analysis.reconstruct"),
    "core.extract_s": ("core.extract", "core.verify"),
    "core.verify_s": ("core.verify", "networks.trace", "networks.evaluate"),
    "analysis.reconstruct_s": ("analysis.reconstruct",),
    "farm.attack_exec_s": ("farm.run_jobs", "serve.batch"),
    "farm.verify_exec_s": ("farm.run_jobs", "serve.batch"),
    "farm.queue_wait_s": ("farm.run_jobs", "serve.batch"),
    "farm.pool_idle_s": ("farm.run_jobs", "serve.batch"),
    "farm.store_put_s": ("farm.store_put",),
    "farm.store_puts": ("farm.store_put",),
    "farm.store_bytes": ("farm.store_put",),
    "farm.store_get_s": ("farm.store_get",),
    "farm.store_gets": ("farm.store_get",),
    "farm.revalidate_s": ("farm.revalidate",),
    "serve.handle_s": ("serve.handle",),
    "serve.parse_s": ("serve.parse", "farm.key"),
    "serve.lookup_s": ("serve.lookup",),
    "serve.http_s": ("serve.handle",),
    "serve.batch_s": ("serve.batch",),
    "serve.batch_wait_s": ("serve.submit", "serve.batch"),
    "serve.spinup_s": ("serve.batch",),
    "sanitize.pass_s": ("sanitize.pass",),
    "flow.pass_s": ("flow.pass",),
    "perf.pass_s": ("perf.pass",),
    "race.pass_s": ("race.pass",),
    "shape.pass_s": ("shape.pass",),
    "analyzers.parse_calls": ("analyzers.parse",),
    "analyzers.parse_s": ("analyzers.parse",),
}


def layer_metrics(records: "list[dict[str, Any]]", rounds: int,
                  warm_windows=(), warm_client_p50: float = 0.0
                  ) -> dict[str, float]:
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    Times and counts are per round.  Spans named ``bench.*`` are the
    benchmark's own op spans; the residual is the share of their wall
    time that no layer span covers.  ``warm_windows`` are the
    wall-clock intervals of the serve warm phases, whose
    ``serve.handle`` spans the client's warm median ``warm_client_p50``
    is compared against.
    """
    s = SpanSet(records)
    per = 1.0 / max(1, rounds)
    pools = s.named("farm.run_jobs") + s.named("serve.batch")

    def pool_sum(key: str) -> float:
        return sum((r.get("attrs") or {}).get(key, 0.0) for r in pools)

    handle = s.named("serve.handle")
    batches = s.named("serve.batch")
    key_in_handle = [
        r for r in s.named("farm.key")
        if s.by_id.get(r["parent"], {}).get("name") == "serve.handle"
    ]
    ops = _merge(_interval(r) for r in s.records
                 if r["name"].startswith("bench."))
    layers = _merge(_interval(r) for r in s.records
                    if not r["name"].startswith("bench."))
    op_wall = sum(b - a for a, b in ops)
    covered = _overlap(ops, layers)
    warm_handle = [r["dur"] for r in handle
                   if any(a <= r["ts"] <= b for a, b in warm_windows)]
    return {
        "networks.build_s": s.total("networks.build") * per,
        "networks.gates_built": s.attr_sum("networks.build", "gates",
                                           outermost=True) * per,
        "networks.serialize_s": s.total("networks.serialize") * per,
        "networks.to_network_s": s.total("networks.to_network") * per,
        "networks.trace_s": s.total("networks.trace") * per,
        "networks.evaluate_s": s.total("networks.evaluate") * per,
        "core.adversary_s": s.self_time("core.adversary") * per,
        "core.lemma41_s": s.total("core.lemma41") * per,
        "core.lemma41_nodes": s.attr_sum("core.lemma41", "nodes") * per,
        "core.collisions": s.attr_sum("core.lemma41", "collisions") * per,
        "core.recognize_s": s.self_time("core.recognize") * per,
        "core.extract_s": s.self_time("core.extract") * per,
        "core.verify_s": s.self_time("core.verify") * per,
        "analysis.reconstruct_s": s.total("analysis.reconstruct") * per,
        "farm.attack_exec_s": pool_sum("attack_elapsed") * per,
        "farm.verify_exec_s": pool_sum("verify_elapsed") * per,
        "farm.queue_wait_s": pool_sum("queue_wait") * per,
        "farm.pool_idle_s": sum(
            (r.get("attrs") or {}).get("workers", 1) * r["dur"]
            - (r.get("attrs") or {}).get("attack_elapsed", 0.0)
            - (r.get("attrs") or {}).get("verify_elapsed", 0.0)
            for r in pools
        ) * per,
        "farm.store_put_s": s.total("farm.store_put") * per,
        "farm.store_puts": len(s.named("farm.store_put")) * per,
        "farm.store_bytes": s.attr_sum("farm.store_put", "bytes") * per,
        "farm.store_get_s": s.total("farm.store_get") * per,
        "farm.store_gets": len(s.named("farm.store_get")) * per,
        "farm.revalidate_s": s.self_time("farm.revalidate") * per,
        "serve.handle_s": s.total("serve.handle") * per,
        "serve.parse_s": (s.total("serve.parse")
                          + sum(r["dur"] for r in key_in_handle)) * per,
        "serve.lookup_s": s.self_time("serve.lookup") * per,
        "serve.http_s": (warm_client_p50 - statistics.median(warm_handle)
                         if warm_handle else 0.0),
        "serve.batch_s": s.total("serve.batch") * per,
        "serve.batch_wait_s": (
            s.total("serve.submit")
            - sum(r["dur"] * (r.get("attrs") or {}).get("jobs", 0)
                  for r in batches)
        ) * per,
        "serve.spinup_s": sum(
            r["dur"] - (r.get("attrs") or {}).get("max_elapsed", 0.0)
            for r in batches
        ) * per,
        "sanitize.pass_s": s.total("sanitize.pass") * per,
        "flow.pass_s": s.total("flow.pass") * per,
        "perf.pass_s": s.total("perf.pass") * per,
        "race.pass_s": s.total("race.pass") * per,
        "shape.pass_s": s.total("shape.pass") * per,
        "analyzers.parse_calls": len(s.named("analyzers.parse")) * per,
        "analyzers.parse_s": s.total("analyzers.parse") * per,
        "trace.residual_ratio": ((op_wall - covered) / op_wall
                                 if op_wall else 0.0),
    }
