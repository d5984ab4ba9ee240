"""The repo benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 25 --trace 0

runs the named workload against ``repro``'s public API for about
``--seconds`` seconds, checks every output, and prints a report
followed, on the last line of stdout, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured with every tracer off; with ``--trace 1``
they are its per-layer metrics, from spans recorded around calls into
each layer.  ``--selftest`` runs every workload at tiny sizes and checks
the output; ``--summary`` prints medians and quartiles of the runs
logged so far.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / ".work" / "results.jsonl"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_record() -> dict:
    """Where a result was measured; ``host_id`` decides comparability."""
    import numpy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode())
        sources.update(path.read_bytes())
    host = {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}
    host_id = hashlib.sha256(json.dumps(host, sort_keys=True).encode())
    return {**host, "host_id": host_id.hexdigest()[:12], "commit": commit,
            "source": "sha256:" + sources.hexdigest()[:16]}


def measure(workload, seconds: float, trace: bool) -> None:
    """Run the number of whole rounds whose end falls nearest to
    ``seconds`` (at least one).

    In the traced run each round is a pair: untraced, then traced, on
    the same inputs.
    """
    tally = workload.tally
    start = time.perf_counter()
    r = 0
    while True:
        ok_before = tally.ok_ops
        wall = workload.run_round(r, traced=False)
        tally.timed += wall
        tally.rates.append((tally.ok_ops - ok_before) / wall)
        tally.rounds += 1
        if trace:
            tally.traced += workload.run_round(r, traced=True)
            tally.traced_rounds += 1
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / r / 2 > seconds:
            return


def end_to_end(workload, setup: list[float], rss: float) -> dict[str, float]:
    tally = workload.tally
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "ok_ratio": 1.0 - len(tally.failures) / tally.attempted,
        "ops_per_s": statistics.median(tally.rates),
    }


def per_layer(workload, missing: list[str]) -> "tuple[dict, list[str]]":
    """Every per-layer metric, and the names that could not be measured."""
    import tracing

    tally = workload.tally
    values = workload.layer_metrics()
    for name, total in tally.layer.items():
        values[name] = total / tally.traced_rounds
    values["trace.overhead_ratio"] = tally.traced / tally.timed - 1.0
    missing_spans = {name for name, module, attr, _ in tracing.HOOKS
                     if f"{module}.{attr}" in missing}
    unmeasured = sorted(
        metric for metric, sources in tracing.METRIC_SOURCES.items()
        if missing_spans & set(sources)
    )
    values.update(dict.fromkeys(unmeasured, 0.0))
    return values, unmeasured


def run(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_FLIGHT"] = "0"  # the CLI's flight recorder is a tracer
    import scenarios
    import tracing

    if args.workload not in scenarios.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    doc = spec()
    scenarios.WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scenarios.WORK))
    tally = scenarios.Tally()
    workload = scenarios.WORKLOADS[args.workload](args.seed, args.tiny, tally,
                                                  workdir)
    missing: list[str] = []
    trace_file = None
    try:
        if args.trace:
            # imports every hooked module before anything is timed
            uninstall, missing = tracing.install(tracing.Recorder("x"))
            uninstall()
        workload.start(bool(args.trace))
        workload.warm_up(bool(args.trace))
        measure(workload, args.seconds, bool(args.trace))
        if not args.trace:
            workload.report()
            rss = workload.peak_rss_mb()
    finally:
        workload.stop()
    try:
        if args.trace:
            values, unmeasured = per_layer(workload, missing)
            names = doc["per_layer"]
            trace_file = scenarios.WORK / f"trace-{args.workload}-{args.seed}.jsonl"
            with open(trace_file, "w") as fh:
                for record in sorted(workload.layer_records(),
                                     key=lambda rec: rec["ts"]):
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            values = end_to_end(workload, workload.setup_samples(), rss)
            unmeasured, names = [], doc["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in names}
    host = host_record()
    result_digest = scenarios.digest(tally.docs)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rounds={tally.rounds}"
          + (" tiny" if args.tiny else ""))
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    for name, entry in metrics.items():
        mark = "  (unmeasured)" if name in unmeasured else ""
        print(f"  {name:<24} {entry['value']:>14.6g} {entry['unit']}{mark}")
    if not args.trace:
        print(f"  {'failed_ratio':<24} {len(tally.failures) / tally.attempted:>14.6g}"
              f" ratio  ({len(tally.failures)} of {tally.attempted} ops)")
        for name, (value, unit) in tally.report.items():
            print(f"  {name:<24} {value:>14.6g} {unit}")
    if unmeasured:
        print("unmeasured (hook target missing): " + ", ".join(missing))
    if trace_file is not None:
        print(f"trace: {os.path.relpath(trace_file, ROOT)}  "
              "(render with: PYTHONPATH=src python -m repro stats FILE)")
    print(f"digest: {result_digest}")
    for why in tally.failures[:20]:
        print(f"FAILED: {why}")

    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": metrics}
    with open(RESULTS, "a") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "host": host, "digest": result_digest, "unmeasured": unmeasured,
            "report": {k: v for k, (v, _) in tally.report.items()},
            "round_rates": tally.rates,
            "time": time.time(), **result,
        }) + "\n")
    print(json.dumps(result))
    return 0


def summary(args) -> int:
    """Median and quartile spread of the logged runs, per group."""
    if not RESULTS.exists():
        print("no results logged yet", file=sys.stderr)
        return 1
    here = host_record()["host_id"]
    groups: dict[tuple, list[dict]] = {}
    for line in RESULTS.read_text().splitlines():
        row = json.loads(line)
        if args.workload and row["workload"] != args.workload:
            continue
        key = (row["workload"], row["trace"], row["tiny"],
               row["host"]["host_id"], row["host"]["source"])
        groups.setdefault(key, []).append(row)
    for (workload, trace, tiny, host_id, source), rows in groups.items():
        note = "" if host_id == here else "  NOT COMPARABLE: other host"
        print(f"{workload} trace={trace}{' tiny' if tiny else ''} "
              f"source={source} host={host_id} runs={len(rows)} "
              f"seeds={sorted({r['seed'] for r in rows})}{note}")
        names = list(rows[-1]["metrics"]) + list(rows[-1]["report"])
        for name in names:
            values = [r["metrics"][name]["value"] if name in r["metrics"]
                      else r["report"].get(name) for r in rows]
            values = [v for v in values if v is not None]
            med = statistics.median(values)
            line = f"  {name:<24} median {med:>12.6g}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                line += f"  q1 {q1:>12.6g}  q3 {q3:>12.6g}  spread {spread:7.4f}"
            print(line)
        failed = sum(r["failed"] for r in rows)
        print(f"  failed ops {failed}; digests "
              f"{len({r['digest'] for r in rows})} distinct over "
              f"{len({r['seed'] for r in rows})} seeds")
    return 0


def selftest() -> int:
    """Every workload at tiny sizes, both runs; checks the printed result."""
    doc = spec()
    problems = []
    for workload in (w["name"] for w in doc["workloads"]):
        for trace in (0, 1):
            names = doc["per_layer" if trace else "end_to_end"]
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--tiny"]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=600)
            wall = time.perf_counter() - t0
            where = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: outputs failed their checks\n"
                                + done.stdout)
            want = {m["name"]: m["unit"] for m in names}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != {want}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{where}: non-numeric values for {bad}")
            print(f"{where}: {len(got)} metrics, exit 0, {wall:.1f} s")
    for problem in problems:
        print("SELFTEST PROBLEM: " + problem)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at tiny sizes and check "
                             "every metric is printed with its unit")
    parser.add_argument("--summary", action="store_true",
                        help="median and quartiles of the logged runs")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.summary:
        return summary(args)
    if args.workload is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    # SIGTERM unwinds like an exception, so the daemons get stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
