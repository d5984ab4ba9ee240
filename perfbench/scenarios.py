"""The four workloads: inputs from the seed, timed rounds, output checks.

Each workload runs in *rounds*.  A round is a fixed amount of work whose
inputs come from ``(seed, round index)`` only, so the same seed gives
the same inputs on every commit and run length does not depend on the
seed.  ``run_round(r, traced)`` returns the wall time of the round's
timed region; everything else (making inputs, checking outputs) happens
outside it.  In the traced run each round runs twice on the same inputs,
first untraced and then with the layer hooks installed, so the tracing
overhead is measured on identical work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import queue
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
FROZEN_ARCHIVE = BENCH / "frozen-src.tar.gz"
NO_BASELINE = BENCH / "no-baseline.json"

#: Registry sorters that build at every width; the power-of-two-only
#: ones (bitonic, oddeven_merge, balanced) join the serve verify keys.
GENERAL_SORTERS = ("merge_exchange", "pratt", "shellsort",
                   "oddeven_transposition", "insertion")
POW2_SORTERS = ("bitonic", "oddeven_merge", "balanced")

#: Fresh-process start probes run per measurement of ``setup_s``.
SETUP_STARTS = 5

#: Round index of the warm-up round; its inputs never repeat a timed one.
WARM_UP_ROUND = 1 << 20


def digest(docs: list) -> str:
    """sha256 over the canonical JSON of a list of result documents."""
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def child_env() -> dict[str, str]:
    """Environment for program processes: this tree's ``src``, tracer off.

    ``REPRO_FLIGHT=0`` turns off the CLI's flight recorder, which would
    otherwise install a real tracer writing into a ring buffer.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_FLIGHT"] = "0"
    return env


def _rss_mb_of(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def import_probe(modules: "tuple[str, ...]") -> list[float]:
    """Seconds from process spawn until ``modules`` are imported."""
    code = f"import {', '.join(modules)}; print('ready', flush=True)"
    samples = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdout=subprocess.PIPE, env=child_env(),
                                cwd=ROOT, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"import probe failed: {code}")
    return samples


class Tally:
    """What one benchmark run observed, across its rounds."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.docs: list[Any] = []
        self.timed = 0.0          # untraced timed wall, all rounds
        self.traced = 0.0         # traced timed wall, all rounds
        self.ok_ops = 0           # checked ops in untraced rounds
        self.rates: list[float] = []  # ok ops / wall, per untraced round
        self.rounds = 0
        self.traced_rounds = 0
        self.report: dict[str, tuple[float, str]] = {}
        self.layer: dict[str, float] = {}

    def check(self, ok: bool, why: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(why)
        return ok

    def add_layer(self, name: str, value: float) -> None:
        self.layer[name] = self.layer.get(name, 0.0) + value


def check_certificate(network, cert) -> "str | None":
    """Re-check a fooling pair by batch evaluation; ``None`` when sound."""
    a, b = cert.input_a, cert.input_b
    m, m1 = cert.values
    n = network.n
    if sorted(a.tolist()) != list(range(n)) or sorted(b.tolist()) != list(range(n)):
        return "inputs are not permutations"
    swapped = a.copy()
    swapped[list(cert.wires)] = a[list(cert.wires[::-1])]
    if m1 != m + 1 or not np.array_equal(swapped, b):
        return "inputs do not differ by the m/m+1 swap"
    out_a, out_b = network.evaluate_batch(np.stack([a, b]))
    diff = np.nonzero(out_a != out_b)[0]
    if len(diff) != 2:
        return f"outputs differ in {len(diff)} positions, not 2"
    p, q = (int(x) for x in diff)
    if {int(out_a[p]), int(out_a[q])} != {m, m1} or out_a[p] != out_b[q]:
        return "outputs do not differ by exactly the m/m+1 swap"
    if (np.diff(out_a) >= 0).all() and (np.diff(out_b) >= 0).all():
        return "both outputs sorted"
    return None


class Workload:
    """Base: the recorder, the hooks and the round bookkeeping."""

    name = ""
    #: Modules a fresh process imports before it can start this work.
    probe_modules: "tuple[str, ...]" = ()

    def __init__(self, seed: int, tiny: bool, tally: Tally, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.tally = tally
        self.workdir = workdir
        self.recorder = tracing.Recorder("b")
        self.measured_from = 0.0
        self.reset()

    def reset(self) -> None:
        """Clear what the rounds accumulate besides the tally."""

    def warm_up(self, traced: bool) -> None:
        """One tiny round, untimed and discarded, before any timing.

        It ends lazy set-up (imports, first calls, a fresh daemon's
        first batches) so that every timed round does the same work, and
        so that the traced half of a round pair is not the first to run.
        """
        tally, tiny = self.tally, self.tiny
        self.tally, self.tiny = Tally(), True
        try:
            for half in (False, True) if traced else (False,):
                self.run_round(WARM_UP_ROUND, traced=half)
        finally:
            self.tally, self.tiny = tally, tiny
        self.reset()
        self.recorder.records.clear()
        self.measured_from = time.time()

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    @contextlib.contextmanager
    def hooks(self, traced: bool):
        """Layer hooks installed for the block when ``traced``."""
        if not traced:
            yield
            return
        uninstall, _ = tracing.install(self.recorder)
        try:
            yield
        finally:
            uninstall()

    def op(self, traced: bool, name: str, op_id: str, fn):
        """Run one op, inside a ``bench.*`` span when traced."""
        if traced:
            return self.recorder.call(name, fn, (), {}, op=op_id)
        return fn()

    def start(self, traced: bool) -> None:
        """Set-up before the first round (not timed)."""

    def setup_samples(self) -> list[float]:
        return import_probe(self.probe_modules)

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stop(self) -> None:
        """Release processes and files the workload holds."""

    def layer_records(self) -> list[dict]:
        return self.recorder.records

    def layer_metrics(self) -> dict[str, float]:
        return tracing.layer_metrics(self.layer_records(),
                                     self.tally.traced_rounds)


# -- prove ------------------------------------------------------------------

#: (kind, family, n, blocks, ops per round).  A round takes 20-25 s on
#: a 2-vCPU Xeon, so a 25 s run is exactly one round.
PROVE_MIX = (
    ("family", "random_iterated", 4096, 2, 8),
    ("family", "bitonic", 4096, 3, 1),
    ("circuit", "random_iterated", 1024, 3, 2),
    ("family", "random_iterated", 16384, 2, 1),
)
PROVE_MIX_TINY = (
    ("family", "random_iterated", 128, 2, 2),
    ("family", "bitonic", 64, 3, 1),
    ("circuit", "random_iterated", 128, 2, 1),
    ("family", "random_iterated", 256, 2, 1),
)


class Prove(Workload):
    """Offline batch of attack ops: build or load a network, prove it."""

    name = "prove"
    probe_modules = ("repro.experiments.workloads", "repro.core.fooling",
                     "repro.core.attack", "repro.networks.serialize")

    def reset(self) -> None:
        self._inputs: dict[int, list] = {}

    def inputs(self, r: int) -> list:
        """The round's ops; circuit JSON is generated here, untimed."""
        if r in self._inputs:
            return self._inputs[r]
        from repro.experiments import workloads
        from repro.networks import serialize

        ops = []
        for kind, family, n, blocks, count in (
            PROVE_MIX_TINY if self.tiny else PROVE_MIX
        ):
            for _ in range(count):
                i = len(ops)
                text = None
                if kind == "circuit":
                    net = workloads.iterated_family(
                        family, n, blocks, self.rng(r, i, 0))
                    text = serialize.dumps(net.to_network())
                ops.append((i, kind, family, n, blocks, text))
        self._inputs = {r: ops}
        return ops

    def run_round(self, r: int, traced: bool) -> float:
        from repro.core import attack, fooling
        from repro.experiments import workloads
        from repro.networks import serialize

        results = []
        wall = 0.0
        with self.hooks(traced):
            for i, kind, family, n, blocks, text in self.inputs(r):
                net_rng, prove_rng = self.rng(r, i, 0), self.rng(r, i, 1)

                def attack_op():
                    if kind == "circuit":
                        net = serialize.loads(text)
                        return net, attack.attack_circuit(net, rng=prove_rng)
                    net = workloads.iterated_family(family, n, blocks, net_rng)
                    return net, fooling.prove_not_sorting(net, rng=prove_rng)

                t0 = time.perf_counter()
                net, outcome = self.op(traced, "bench.prove.op",
                                       f"prove-{self.seed}-{r}-{i}", attack_op)
                wall += time.perf_counter() - t0
                results.append((i, kind, family, n, blocks, net, outcome))

        for i, kind, family, n, blocks, net, outcome in results:
            cert = outcome.certificate
            why = "inconclusive proof"
            if cert is not None:
                flat = net if kind == "circuit" else net.to_network()
                why = check_certificate(flat, cert)
            ok = self.tally.check(why is None, f"prove op {i} ({family} n={n}): {why}")
            if traced:
                self.tally.add_layer("core.survivors",
                                     len(outcome.run.special_set))
                continue
            self.tally.ok_ops += ok
            if r == 0:
                self.tally.docs.append({
                    "op": i, "kind": kind, "family": family, "n": n,
                    "blocks": blocks,
                    "survivors": len(outcome.run.special_set),
                    "blocks_processed": outcome.run.blocks_processed,
                    "certificate": None if cert is None else cert.to_json(),
                })
        return wall

    def report(self) -> None:
        t = self.tally
        t.report["proofs_per_s"] = (t.ok_ops / t.timed, "1/s")


# -- campaign ----------------------------------------------------------------


class Campaign(Workload):
    """Two cold farm campaigns on a fresh store, then both resumed."""

    name = "campaign"
    probe_modules = ("repro.farm.campaign", "repro.farm.store")
    workers = 2

    def reset(self) -> None:
        self.cold_wall = self.resume_wall = 0.0
        self.cold_jobs = self.resume_jobs = 0

    def specs(self, r: int) -> list:
        from repro.farm.campaign import CampaignSpec

        seeds = [int(s) for s in self.rng(r).integers(0, 2**31, 2 if self.tiny else 3)]
        attack = CampaignSpec(
            name="attack", kind="attack", workers=self.workers,
            grid={"family": ["random_iterated"],
                  "n": [128, 256] if self.tiny else [512, 1024],
                  "blocks": [2] if self.tiny else [2, 3], "seed": seeds})
        verify = CampaignSpec(
            name="verify", kind="verify", workers=self.workers,
            grid={"sorter": list(GENERAL_SORTERS[:2] if self.tiny
                                 else GENERAL_SORTERS),
                  "n": [6, 7] if self.tiny else [16, 17, 18]})
        return [attack, verify]

    def run_round(self, r: int, traced: bool) -> float:
        from repro.farm import campaign
        from repro.farm.store import ArtifactStore

        root = self.workdir / f"campaign-{r}-{int(traced)}"
        store = ArtifactStore(root)
        specs = self.specs(r)
        wall = {False: 0.0, True: 0.0}
        results = []
        with self.hooks(traced):
            for resume in (False, True):
                for spec in specs:
                    def call():
                        return campaign.run_campaign(
                            spec, store, workers=self.workers, resume=resume)

                    phase = "resume" if resume else "cold"
                    t0 = time.perf_counter()
                    result = self.op(
                        traced, f"bench.campaign.{phase}",
                        f"campaign-{self.seed}-{r}-{spec.name}-{phase}", call)
                    wall[resume] += time.perf_counter() - t0
                    results.append((resume, spec, result))
        shutil.rmtree(root, ignore_errors=True)

        t = self.tally
        for resume, spec, result in results:
            jobs = len(spec.expand())
            ok_jobs = 0
            for out in result.outcomes:
                good = out.status == ("cached" if resume else "ok")
                doc = out.result or {}
                if spec.kind == "attack":
                    good = good and bool(doc.get("proved_not_sorting")) \
                        and doc.get("certificate") is not None
                else:
                    good = good and doc.get("is_sorter") is True
                ok_jobs += t.check(good, f"{spec.name} job {out.job.label()} "
                                         f"({'resume' if resume else 'cold'}): "
                                         f"status {out.status}")
            for _ in range(jobs - len(result.outcomes)):
                t.check(False, f"{spec.name}: a job has no outcome")
            if traced:
                if resume:
                    t.add_layer("farm.resume_hits", result.hits)
                    t.add_layer("farm.resume_jobs", jobs)
                elif spec.kind == "verify":
                    t.add_layer("analysis.zero_one_inputs",
                                sum(2 ** out.job.n for out in result.outcomes))
                else:
                    t.add_layer("core.survivors", sum(
                        (out.result or {}).get("survivor", 0)
                        for out in result.outcomes))
                continue
            t.ok_ops += ok_jobs
            if resume:
                self.resume_jobs += ok_jobs
            else:
                self.cold_jobs += ok_jobs
                if r == 0:
                    t.docs.extend(sorted(
                        ([out.key, out.result] for out in result.outcomes),
                        key=lambda kv: kv[0]))
        if not traced:
            self.cold_wall += wall[False]
            self.resume_wall += wall[True]
        return wall[False] + wall[True]

    def peak_rss_mb(self) -> float:
        import resource
        # workers have exited and were waited for; the set-up probes,
        # also children, run only after this is read
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return super().peak_rss_mb() + children / 1024.0

    def report(self) -> None:
        t = self.tally
        t.report["campaign_jobs_per_s"] = (self.cold_jobs / self.cold_wall, "1/s")
        t.report["resume_jobs_per_s"] = (self.resume_jobs / self.resume_wall, "1/s")

    def layer_metrics(self) -> dict[str, float]:
        out = super().layer_metrics()
        hits = self.tally.layer.pop("farm.resume_hits", 0.0)
        jobs = self.tally.layer.pop("farm.resume_jobs", 0.0)
        out["farm.resume_hit_ratio"] = hits / jobs if jobs else 0.0
        return out


# -- serve -------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process on a fresh store, port picked by the OS."""

    def __init__(self, workdir: Path, tag: str, spans: "Path | None" = None):
        self.store = workdir / f"store-{tag}"
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(BENCH / "daemon.py"), str(spans)]
        cmd += ["--port", "0", "--store", str(self.store)]
        self.log = open(workdir / f"daemon-{tag}.log", "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, env=child_env(),
                                     cwd=ROOT, text=True)
        try:
            self.port = self._await_port(time.monotonic() + 60)
            from repro.serve import ServeClient
            ServeClient("127.0.0.1", self.port, timeout=120).health()
        except BaseException:
            self.stop()
            raise
        self.startup = time.perf_counter() - t0

    def _await_port(self, deadline: float) -> int:
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving on "):
                    return int(line.split()[2].rsplit(":", 1)[1])
        raise RuntimeError(f"daemon did not start (see {self.log.name})")

    def peak_rss_mb(self) -> float:
        return _rss_mb_of(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM, which drains the daemon, then wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


class Serve(Workload):
    """Cold then warm closed-loop requests from 2 client threads."""

    name = "serve"
    clients = 2

    def __init__(self, *args):
        self.daemons: dict[bool, Daemon] = {}
        self.setup: list[float] = []
        super().__init__(*args)

    def reset(self) -> None:
        self.cold_lat: list[float] = []
        self.warm_lat: list[float] = []
        self.warm_wall = 0.0
        self.warm_windows: list[tuple[float, float]] = []
        self.traced_warm_lat: list[float] = []

    def start(self, traced: bool) -> None:
        if traced:
            self.daemons[False] = Daemon(self.workdir, "plain")
            self.daemons[True] = Daemon(self.workdir, "traced",
                                        spans=self.workdir / "daemon-spans.jsonl")
            return
        for k in range(SETUP_STARTS):
            daemon = Daemon(self.workdir, f"setup-{k}")
            self.setup.append(daemon.startup)
            if k < SETUP_STARTS - 1:
                daemon.stop()
        self.daemons[False] = daemon

    def setup_samples(self) -> list[float]:
        return self.setup

    def keys(self, r: int) -> "tuple[list, list]":
        """The round's distinct cold requests and its warm repeats.

        Rounds are short, so the run's median round rate shrugs off a
        slow spell of the host.  Verify requests walk a window over every
        registry sorter at widths 4..16 (powers of two only, for the
        sorters that need them); ``max_wires`` (a refusal threshold, far
        above every width here) makes their keys differ by seed and
        round without changing the work.
        """
        rng = self.rng(r)
        attacks, verifies, warm = (2, 2, 20) if self.tiny else (6, 7, 300)
        combos = [(s, n) for s in GENERAL_SORTERS for n in range(4, 17)]
        combos += [(s, n) for s in POW2_SORTERS for n in (4, 8, 16)]
        cap = 24 + 100 * r + self.seed % 100
        cold = [("attack", {"family": "random_iterated",
                            "n": 128 if self.tiny else 256, "blocks": 2,
                            "seed": int(s)})
                for s in rng.integers(0, 2**31, attacks)]
        cold += [("verify", {"sorter": sorter, "n": n, "max_wires": cap})
                 for sorter, n in (combos[(verifies * r + j) % len(combos)]
                                   for j in range(verifies))]
        cold = [cold[i] for i in rng.permutation(len(cold))]
        return cold, [cold[i] for i in rng.integers(0, len(cold), warm)]

    def _phase(self, client, requests: list, traced: bool, op: str):
        """Send ``requests`` from the client threads; returns
        ``(wall, [(latency, request, response or error)])``."""
        results: "queue.Queue" = queue.Queue()

        def worker(c: int) -> None:
            for k in range(c, len(requests), self.clients):
                req = requests[k]

                def send():
                    return client.query(*req)

                t0 = time.perf_counter()
                try:
                    reply = self.op(traced, f"bench.serve.{op}",
                                    f"serve-{self.seed}-{op}-{k}", send)
                except Exception as exc:  # reported as a failed request
                    reply = exc
                results.put((time.perf_counter() - t0, req, reply))

        threads = [threading.Thread(target=worker, args=(c,))
                   for c in range(self.clients)]
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = time.perf_counter() - t0
        return wall, [results.get() for _ in range(results.qsize())]

    def run_round(self, r: int, traced: bool) -> float:
        from repro.serve import ServeClient

        daemon = self.daemons[traced]
        client = ServeClient("127.0.0.1", daemon.port, timeout=120)
        cold, warm = self.keys(r)
        t = self.tally
        stats0 = client.stats()
        cold_wall, cold_res = self._phase(client, cold, traced, "cold")
        stats1 = client.stats()
        w0 = time.time()
        warm_wall, warm_res = self._phase(client, warm, traced, "warm")
        stats2 = client.stats()

        first: dict[str, str] = {}
        for lat, (op, params), reply in cold_res:
            why = self._bad_reply(op, reply, "computed")
            if t.check(why is None, f"cold {op} {params}: {why}"):
                first[json.dumps([op, params], sort_keys=True)] = json.dumps(
                    reply.result, sort_keys=True)
                if not traced:
                    self.cold_lat.append(lat)
                    t.ok_ops += 1
        for lat, (op, params), reply in warm_res:
            why = self._bad_reply(op, reply, "memory")
            if why is None:
                key = json.dumps([op, params], sort_keys=True)
                if first.get(key) != json.dumps(reply.result, sort_keys=True):
                    why = "warm result differs from the cold one"
            if t.check(why is None, f"warm {op} {params}: {why}"):
                if traced:
                    self.traced_warm_lat.append(lat)
                else:
                    self.warm_lat.append(lat)
        if traced:
            self.warm_windows.append((w0, w0 + warm_wall))
            batches = stats1["batches"] - stats0["batches"]
            t.add_layer("serve.batches", batches)
            t.add_layer("serve.dispatched",
                        stats1["dispatched"] - stats0["dispatched"])
            t.add_layer("serve.warm_memory",
                        stats2["cache"].get("memory", 0)
                        - stats1["cache"].get("memory", 0))
            t.add_layer("serve.warm_requests", len(warm))
            t.add_layer("serve.rejected", stats2["rejected"] - stats0["rejected"])
            t.add_layer("analysis.zero_one_inputs", sum(
                2 ** params["n"] for op, params in cold if op == "verify"))
            t.add_layer("core.survivors", sum(
                (reply.result or {}).get("survivor", 0)
                for _, (op, _p), reply in cold_res
                if op == "attack" and not isinstance(reply, Exception)))
        else:
            self.warm_wall += warm_wall
            if r == 0:
                t.docs.extend(sorted([k, json.loads(v)] for k, v in first.items()))
        # the gated rate counts cold requests only: warm latency is mostly
        # wake-ups and context switches, which a busy host stretches twice
        # as much as the CPU-bound cold path; warm figures are reported
        return cold_wall

    @staticmethod
    def _bad_reply(op: str, reply, source: str) -> "str | None":
        if isinstance(reply, Exception):
            return f"{type(reply).__name__}: {reply}"
        if not reply.ok or reply.result is None:
            return f"status {reply.status}"
        if reply.source != source:
            return f"served from {reply.source}, expected {source}"
        if op == "attack" and not (reply.result.get("proved_not_sorting")
                                   and reply.result.get("certificate")):
            return "no certificate"
        if op == "verify" and reply.result.get("is_sorter") is not True:
            return "registry sorter not verified as a sorter"
        return None

    def peak_rss_mb(self) -> float:
        return self.daemons[False].peak_rss_mb()

    def stop(self) -> None:
        for daemon in self.daemons.values():
            daemon.stop()

    def report(self) -> None:
        t = self.tally
        t.report.update({
            "cold_p50_ms": (_percentile(self.cold_lat, 50) * 1e3, "ms"),
            "cold_p90_ms": (_percentile(self.cold_lat, 90) * 1e3, "ms"),
            "warm_p50_ms": (_percentile(self.warm_lat, 50) * 1e3, "ms"),
            "warm_p99_ms": (_percentile(self.warm_lat, 99) * 1e3, "ms"),
            "requests_per_s": (len(self.warm_lat) / self.warm_wall, "1/s"),
            "cold_requests": (len(self.cold_lat), "count"),
            "warm_requests": (len(self.warm_lat), "count"),
        })

    def layer_records(self) -> list[dict]:
        spans = self.workdir / "daemon-spans.jsonl"
        records = list(self.recorder.records)
        if spans.exists():
            records += [rec for rec in map(json.loads, spans.read_text().splitlines())
                        if rec["ts"] >= self.measured_from]
        return records

    def layer_metrics(self) -> dict[str, float]:
        warm_p50 = (statistics.median(self.traced_warm_lat)
                    if self.traced_warm_lat else 0.0)
        out = tracing.layer_metrics(self.layer_records(), self.tally.traced_rounds,
                                    self.warm_windows, warm_p50)
        layer = self.tally.layer
        batches = layer.get("serve.batches", 0.0)
        out["serve.jobs_per_batch"] = (layer.pop("serve.dispatched", 0.0) / batches
                                       if batches else 0.0)
        memory = layer.pop("serve.warm_memory", 0.0)
        warm = layer.pop("serve.warm_requests", 0.0)
        out["serve.memory_hit_ratio"] = memory / warm if warm else 0.0
        return out


# -- selfcheck ---------------------------------------------------------------


def frozen_tree() -> Path:
    """The frozen analyzer input, unpacked once into the work directory."""
    tag = hashlib.sha256(FROZEN_ARCHIVE.read_bytes()).hexdigest()[:12]
    dest = WORK / f"frozen-{tag}"
    if not (dest / ".complete").exists():
        shutil.rmtree(dest, ignore_errors=True)
        with tarfile.open(FROZEN_ARCHIVE) as tar:
            tar.extractall(dest, filter="data")
        (dest / ".complete").write_text(tag + "\n")
    return dest / "src"


class Selfcheck(Workload):
    """The CI analyzer gate, in-process, over a frozen source tree."""

    name = "selfcheck"
    probe_modules = ("repro.cli", "repro.sanitize", "repro.flow",
                     "repro.perf", "repro.race", "repro.shape")

    def reset(self) -> None:
        self.passes: list[float] = []

    def start(self, traced: bool) -> None:
        self.frozen = frozen_tree()

    def run_round(self, r: int, traced: bool) -> float:
        from repro import cli

        target = self.frozen / "repro" / "networks" if self.tiny else self.frozen
        # a relative path keeps the report, and so the digest, the same
        # in every checkout
        argv = ["-q", "sanitize", "--flow", "--perf", "--race", "--shape",
                "--json", "--baseline", os.path.relpath(NO_BASELINE, ROOT),
                os.path.relpath(target, ROOT)]
        out = io.StringIO()

        def gate():
            with contextlib.redirect_stdout(out):
                return cli.main(argv)

        t0 = time.perf_counter()
        try:
            with self.hooks(traced):
                code = self.op(traced, "bench.selfcheck.pass",
                               f"selfcheck-{self.seed}-{r}", gate)
        except Exception as exc:  # an exception fails the gate pass
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        t = self.tally
        report = json.loads(out.getvalue()) if code in (0, 1) else None
        if not t.check(report is not None, f"gate pass {r}: exit {code}"):
            return wall
        findings = report["diagnostics"]
        if traced:
            t.add_layer("analyzers.files", report["files"])
            t.add_layer("analyzers.findings", len(findings))
            return wall
        t.ok_ops += report["files"]
        self.passes.append(wall)
        if r == 0:
            t.docs.extend([d["rule"], d["severity"], d["location"], d["message"]]
                          for d in findings)
        return wall

    def report(self) -> None:
        self.tally.report["selfcheck_s"] = (statistics.median(self.passes), "s")


WORKLOADS = {w.name: w for w in (Prove, Campaign, Serve, Selfcheck)}
