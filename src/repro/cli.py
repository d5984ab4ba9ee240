"""Command-line interface: attack, verify, route, render, experiment.

Installed as ``python -m repro`` (see ``__main__.py``).  Subcommands:

``attack``
    Run the Plaxton-Suel adversary against a network family and print
    the per-block trace; with ``--certificate`` also extract, verify and
    (optionally) save the fooling pair.
``verify``
    0-1-principle verification of a named sorter or a serialised network
    file.
``route``
    Compute Beneš / in-class shuffle routing for a permutation.
``render``
    Print the ASCII diagram of a named sorter or serialised network.
``experiment``
    Run one of the E1-E13 drivers and print its table.
``bounds``
    Print the paper's bound landscape for a given n.
``lint``
    Statically analyse a named sorter or serialised network file:
    structural rules, 0-1 abstract interpretation, budget checks and
    never-compared-pair witnesses, with text or JSON diagnostics and
    ``--fix`` to write a repaired network.
``sanitize``
    Statically analyse the repro source tree itself: determinism,
    fork-safety, observability and schema-stability rules over the
    Python AST, with ``--select``, an optional baseline of
    grandfathered findings, and ``--fix`` to re-pin the schema
    fingerprint registry (see docs/SANITIZE.md).
``farm``
    Parallel campaign runner: ``farm run spec.json --workers N
    [--resume]`` sweeps a job grid on a worker pool, caching every
    result in a content-addressed artifact store; ``farm status``
    inventories a store.
``serve``
    Run the certificate daemon: an async HTTP service answering
    attack/verify queries from the artifact store (cache-fronted,
    batch-computed on the farm pool; see docs/SERVE.md).
``query``
    Send one request to a running daemon and print the response.
``loadgen``
    Drive a running daemon with closed-loop concurrent load and report
    p50/p99 latency and certificates/sec (``--json [PATH]`` for the
    machine-readable report).
``top``
    Live dashboard: poll a running daemon's ``/statsz`` + ``/metricsz``
    (req/s, cache tier hit ratios, p50/p99 from histogram buckets) or a
    farm store's heartbeats (``--store``), refreshing every
    ``--interval`` seconds.
``stats``
    Analyse a trace JSONL file written by ``--trace``: span tree,
    slowest spans, timer percentiles, the adversary's per-block
    special-set tables, and the certificate service's cache summary.

Global flags: ``-v``/``-q`` adjust log verbosity (also via the
``REPRO_LOG`` environment variable); ``attack``/``experiment`` take
``--trace PATH`` to record a structured trace, ``farm run`` takes
``--trace [PATH]``, and ``attack --profile`` prints CPU/memory hotspots
(also via ``REPRO_PROFILE=1``).  Every subcommand additionally runs
under a crash flight recorder (``SIGUSR2`` dumps the recent-record
ring, as does the unhandled-error backstop; opt out with
``REPRO_FLIGHT=0``, point dumps somewhere with ``REPRO_FLIGHT_DIR``).

The CLI is deliberately thin: every command is one or two calls into the
library, so it doubles as living documentation of the public API.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import bounds as bounds_mod
from .errors import FarmError, LintError, ObsError, ReproError, SanitizeError
from .core.fooling import prove_not_sorting
from .core.iterate import theorem41_guarantee
from .experiments import ALL_EXPERIMENTS
from .experiments.workloads import iterated_family
from .machines.routing import benes_routing_network, sort_route_program
from .networks import serialize
from .networks.draw import render_network, render_stage_summary, to_dot
from .networks.permutations import Permutation
from .obs import (
    configure_logging,
    flight_enabled,
    flight_recording,
    get_flight,
    profile_section,
    profiling_enabled,
    read_trace,
    tracing,
)
from .obs.report import render_stats, stats_json, well_formedness_problems
from .sorters.registry import get_sorter, sorter_names

__all__ = ["main", "build_parser"]

logger = logging.getLogger("repro.cli")


def _load_network(path: str):
    obj = serialize.loads(Path(path).read_text())
    if hasattr(obj, "to_network"):
        return obj.to_network()
    return obj


def _resolve_network(args) -> "object":
    """Resolve --sorter NAME or --file PATH to an evaluable network."""
    if getattr(args, "file", None):
        return _load_network(args.file)
    spec = get_sorter(args.sorter)
    return spec.build(args.n)


def _print_lint_failure(context: str, exc: LintError) -> None:
    """Render a precondition failure as located lint diagnostics."""
    logger.error("%s: %s", context, exc)
    for diag in getattr(exc, "diagnostics", []):
        logger.error("  %s", diag.format())


def _attack_target(args) -> str:
    if getattr(args, "file", None):
        return args.file
    return f"{args.family} (n={args.n}, blocks={args.blocks})"


def _print_attack_result(args, result: dict, cached: bool) -> int:
    """Render one attack result dict (live or from the store)."""
    suffix = "  [store hit, certificate re-verified]" if cached else ""
    print(f"adversary vs {_attack_target(args)} (k={result['k']}){suffix}")
    print(f"{'block':>5} {'entering':>9} {'union':>7} {'survivor':>9} "
          f"{'guarantee':>12}")
    for rec in result["records"]:
        print(f"{rec['block'] + 1:>5} {rec['entering']:>9} "
              f"{rec['union']:>7} {rec['survivor']:>9} "
              f"{theorem41_guarantee(result['n'], rec['block'] + 1):>12.3e}")
    cert_doc = result.get("certificate")
    if result["proved_not_sorting"] and cert_doc is not None:
        wires = tuple(cert_doc["wires"])
        values = tuple(cert_doc["values"])
        print(f"\nNOT a sorting network; verified fooling pair on wires "
              f"{wires}, values {values}")
        if args.certificate:
            Path(args.certificate).write_text(json.dumps(cert_doc, indent=2))
            print(f"certificate written to {args.certificate}")
    else:
        print("\ninconclusive: the special set collapsed "
              f"(|D| = {result['survivor']})")
    return 0


def _attack_via_store(args) -> int:
    """Attack through the content-addressed store: hit, revalidate or run."""
    from .farm import ArtifactStore, AttackJob
    from .farm.store import trusted_document

    if getattr(args, "file", None):
        payload = serialize.payload_of(json.loads(Path(args.file).read_text()))
        job = AttackJob(network=payload, k=args.k, seed=args.seed)
    else:
        job = AttackJob(family=args.family, n=args.n, blocks=args.blocks,
                        k=args.k, seed=args.seed)
    store = ArtifactStore(args.store)
    key = job.key()
    doc, refused = trusted_document(store, key, job.revalidate)
    if doc is not None:
        return _print_attack_result(args, doc["result"], cached=True)
    if refused:
        logger.warning("stale artifact failed re-verification; recomputing")
    try:
        result = job.execute()
    except LintError as exc:
        _print_lint_failure("attack precondition failed", exc)
        return 2
    store.put(key, {"job": job.to_json(), "status": "ok", "result": result})
    return _print_attack_result(args, result, cached=False)


def cmd_attack(args) -> int:
    if getattr(args, "store", None):
        return _attack_via_store(args)
    rng = np.random.default_rng(args.seed)
    if getattr(args, "file", None):
        from .core.attack import attack_circuit

        try:
            outcome = attack_circuit(
                _load_network(args.file), k=args.k, rng=rng
            )
        except LintError as exc:
            _print_lint_failure("attack precondition failed", exc)
            return 2
    else:
        network = iterated_family(args.family, args.n, args.blocks, rng)
        outcome = prove_not_sorting(network, k=args.k, rng=rng)
    run = outcome.run
    print(f"adversary vs {_attack_target(args)} (k={run.k})")
    print(f"{'block':>5} {'entering':>9} {'union':>7} {'survivor':>9} "
          f"{'guarantee':>12}")
    for rec in run.records:
        print(f"{rec.block_index + 1:>5} {rec.entering_size:>9} "
              f"{rec.union_size:>7} {rec.chosen_size:>9} "
              f"{theorem41_guarantee(run.n, rec.block_index + 1):>12.3e}")
    if outcome.proved_not_sorting:
        cert = outcome.certificate
        print(f"\nNOT a sorting network; verified fooling pair on wires "
              f"{cert.wires}, values {cert.values}")
        if args.certificate:
            Path(args.certificate).write_text(
                json.dumps(cert.to_json(), indent=2)
            )
            print(f"certificate written to {args.certificate}")
    else:
        print("\ninconclusive: the special set collapsed "
              f"(|D| = {len(run.special_set)})")
    return 0


def cmd_verify(args) -> int:
    from .analysis.verify import find_unsorted_zero_one_input

    try:
        net = _resolve_network(args)
        witness = find_unsorted_zero_one_input(net, max_wires=args.max_wires)
    except LintError as exc:
        _print_lint_failure("verify precondition failed", exc)
        return 2
    except ReproError as exc:
        logger.error("error[verify/precondition]: %s", exc)
        return 2
    if args.json:
        from .serve.protocol import verdict_document

        doc = verdict_document(
            sorter=None if getattr(args, "file", None) else args.sorter,
            n=net.n,
            depth=net.depth,
            size=net.size,
            witness=None if witness is None else witness.tolist(),
        )
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0 if witness is None else 1
    if witness is None:
        print(f"sorting network: yes (all 2^{net.n} binary inputs sorted)")
        return 0
    print(f"sorting network: NO; unsorted 0-1 witness: {witness.tolist()}")
    return 1


def cmd_serve(args) -> int:
    import asyncio

    from .farm import ArtifactStore
    from .serve import CertificateServer, ServeSettings

    settings = ServeSettings(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        max_batch=args.max_batch,
        batch_delay=args.batch_delay,
        request_timeout=args.request_timeout,
        job_timeout=args.job_timeout,
    )
    store = ArtifactStore(args.store)
    server = CertificateServer(store, settings)

    def announce(port: int) -> None:
        # scripted callers (tests, CI smoke) wait for this exact line
        print(f"serving on {settings.host}:{port} (store: {args.store})",
              flush=True)

    asyncio.run(server.serve_forever(on_ready=announce))
    print(f"drained; served {server.requests} requests "
          f"({server.rejected} rejected)")
    recorder = get_flight()
    if recorder is not None:
        # every smoke run leaves a postmortem artifact for CI to upload
        dump = recorder.dump("serve-drain")
        if dump is not None:
            print(f"flight recording: {dump}")
    return 0


def cmd_query(args) -> int:
    from .serve import ServeClient

    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        logger.error("error[query/params]: --params is not JSON: %s", exc)
        return 2
    if not isinstance(params, dict):
        logger.error("error[query/params]: --params must be a JSON object")
        return 2
    client = ServeClient(args.host, args.port, timeout=args.timeout)
    response = client.query(args.op, params)
    print(json.dumps(response.to_json(), indent=2, sort_keys=True))
    return 0 if response.ok else 1


def cmd_loadgen(args) -> int:
    from .serve import default_mix, run_load

    report = run_load(
        args.host,
        args.port,
        clients=args.clients,
        requests_per_client=args.requests,
        mix=default_mix(args.unique),
    )
    doc = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if args.json == "-":
        print(doc)
    else:
        if args.json:
            Path(args.json).write_text(doc + "\n")
            logger.info("load report written to %s", args.json)
        print(report.format())
    return 1 if report.errors else 0


def cmd_route(args) -> int:
    perm = Permutation([int(x) for x in args.permutation.split(",")])
    benes = benes_routing_network(perm)
    print(f"Benes: {benes.depth} levels, {benes.element_count} switches")
    if args.in_class:
        prog = sort_route_program(perm)
        print(f"in-class shuffle routing: {prog.depth} steps "
              f"(shuffle-based: {prog.is_shuffle_based()})")
    out = benes.evaluate(np.arange(perm.n))
    ok = all(out[perm(i)] == i for i in range(perm.n))
    print(f"verified: {ok}")
    return 0 if ok else 1


def cmd_render(args) -> int:
    net = _resolve_network(args)
    if args.summary:
        print(render_stage_summary(net))
    elif args.dot:
        print(to_dot(net))
    else:
        print(render_network(net))
    return 0


def _experiment_kwargs(name: str, fn, args) -> dict:
    """Thread --seed / --store into drivers whose signature accepts them."""
    import inspect

    params = inspect.signature(fn).parameters
    kwargs = {}
    if getattr(args, "seed", None) is not None:
        if "seed" in params:
            kwargs["seed"] = args.seed
        else:
            logger.warning(
                "note: %s takes no seed (deterministic driver); "
                "--seed ignored", name,
            )
    if getattr(args, "store", None):
        if "store" in params:
            from .farm import ArtifactStore

            kwargs["store"] = ArtifactStore(args.store)
        else:
            logger.warning(
                "note: %s is not store-backed; --store ignored", name
            )
    return kwargs


def cmd_experiment(args) -> int:
    name = args.name.upper()
    if name == "ALL":
        for key, fn in ALL_EXPERIMENTS.items():
            table = fn(**_experiment_kwargs(key, fn, args))
            print(table.format())
            print()
            if args.save:
                table.save(args.save)
        if args.save:
            print(f"saved all tables to {args.save}")
        return 0
    if name not in ALL_EXPERIMENTS:
        logger.error(
            "unknown experiment %r; available: %s",
            name, ", ".join(ALL_EXPERIMENTS),
        )
        return 2
    fn = ALL_EXPERIMENTS[name]
    table = fn(**_experiment_kwargs(name, fn, args))
    print(table.format())
    if args.save:
        path = table.save(args.save)
        print(f"\nsaved to {path}")
    return 0


def cmd_farm_run(args) -> int:
    from .farm import (
        ArtifactStore,
        CampaignSpec,
        campaign_table,
        format_summary,
        run_campaign,
    )

    try:
        spec = CampaignSpec.load(args.spec)
    except FarmError as exc:
        logger.error("error[farm/spec]: %s", exc)
        return 2
    store = ArtifactStore(args.store)
    try:
        result = run_campaign(
            spec,
            store,
            workers=args.workers,
            resume=args.resume,
            timeout=args.timeout,
            retries=args.retries,
        )
    except FarmError as exc:
        logger.error("error[farm/run]: %s", exc)
        return 2
    table = campaign_table(result)
    if args.json:
        print(json.dumps(
            {"summary": result.summary(), "table": table.to_payload()},
            indent=2,
        ))
    else:
        print(table.format())
        print()
        print(format_summary(result))
    if args.save:
        table.save(args.save)
    if result.interrupted:
        return 130
    return 1 if result.failures else 0


def cmd_farm_status(args) -> int:
    from .farm import ArtifactStore, live_status_table, read_heartbeats, status_table

    store = ArtifactStore(args.store)
    if args.live:
        if args.json:
            print(json.dumps(read_heartbeats(store.root), indent=2,
                             sort_keys=True))
        else:
            print(live_status_table(store).format())
        return 0
    if args.json:
        print(json.dumps(store.stats(), indent=2))
    else:
        print(status_table(store).format())
    return 0


def cmd_top(args) -> int:
    from .obs.top import run_top

    return run_top(
        host=args.host,
        port=args.port,
        store=args.store,
        interval=args.interval,
        iterations=args.iterations,
    )


def cmd_stats(args) -> int:
    """Analyse a trace JSONL file: tree, timers, adversary tables.

    Exit codes: 2 when the file is unreadable or contains invalid
    records, 1 when the span tree is malformed (duplicate ids, dangling
    parents, impossible nesting), 0 otherwise.
    """
    try:
        records = read_trace(args.trace_file)
    except ObsError as exc:
        logger.error("error[stats/trace]: %s", exc)
        return 2
    if args.json:
        print(json.dumps(stats_json(records, top=args.top), indent=2))
    else:
        print(render_stats(records, top=args.top))
    return 1 if well_formedness_problems(records) else 0


def cmd_bounds(args) -> int:
    n = args.n
    print(f"bound landscape at n = {n}:")
    print(f"  trivial lower bound (lg n)        : {bounds_mod.lg(n):.2f}")
    print(f"  paper lower bound lg^2n/(4 lglg n): "
          f"{bounds_mod.depth_lower_bound(n):.2f}")
    print(f"  sharpened 1/(2+eps)               : "
          f"{bounds_mod.depth_lower_bound_sharpened(n):.2f}")
    print(f"  Batcher upper bound               : "
          f"{bounds_mod.batcher_depth(n):.2f}")
    print(f"  AKS (Paterson constant, literature): "
          f"{bounds_mod.lg(n) * 6100:.0f}")
    print(f"  max guaranteed-safe blocks d      : "
          f"{bounds_mod.max_safe_blocks(n)}")
    return 0


def cmd_lint(args) -> int:
    from .lint import LintConfig, apply_fixes, lint_document, lint_network

    config = LintConfig(
        select=tuple(args.select) if args.select else None
    )
    target = args.target
    path = Path(target)
    if path.suffix == ".json" or path.is_file():
        try:
            text = path.read_text()
        except OSError as exc:
            logger.error("error[lint/io]: cannot read %s: %s", target, exc)
            return 2
        report = lint_document(text, target=target, config=config)
    else:
        try:
            spec = get_sorter(target)
        except (KeyError, ReproError) as exc:
            message = exc.args[0] if exc.args else exc
            logger.error("error[lint/target]: %s", message)
            return 2
        report = lint_network(
            spec.build(args.n), target=f"{target} (n={args.n})", config=config
        )
    _print_report(args, report)
    if args.fix:
        if report.network is None:
            logger.error(
                "error[lint/fix]: nothing to fix: the document did not "
                "parse into a network"
            )
            return 2
        fixed = apply_fixes(report.network, report.diagnostics)
        Path(args.fix).write_text(serialize.dumps(fixed, indent=2))
        removed = report.network.size - fixed.size
        print(f"fixed network written to {args.fix} "
              f"({removed} gate{'s' if removed != 1 else ''} removed)")
    return report.exit_code


def _print_report(args, report) -> None:
    """Emit any analyzer report as JSON or text (the shared rendering)."""
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.format_text())


def _selected(args) -> tuple[str, ...] | None:
    """The --select prefixes as the analyzer engine expects them."""
    return tuple(args.select) if args.select else None


#: The one ratchet file every analyzer subcommand reads by default.
ANALYZER_BASELINE = "analyzer-baseline.json"


def _analyzer_baseline(args):
    """Load the ratchet baseline an analyzer run should apply.

    ``--baseline PATH`` wins; otherwise ``analyzer-baseline.json`` is
    used when it exists.  No baseline applies while writing one (the
    findings being written must not be filtered by their own previous
    ratchet).
    """
    from .diagnostics import Baseline

    path = args.baseline
    if path is None and Path(ANALYZER_BASELINE).is_file():
        path = ANALYZER_BASELINE
    if path is not None and not args.write_baseline:
        return Baseline.load(path)
    return None


def _write_baseline(args, report, ran: set[str]) -> int:
    """``--write-baseline``: re-snapshot the findings of the rules that ran.

    Findings are fingerprinted with their source line text so the
    ratchet survives unrelated edits.  Entries of every rule that did
    not run (another family, or one ``--select`` left out) are kept
    verbatim, so a partial run never drops grandfathered findings.
    """
    from .diagnostics import Baseline

    target = args.baseline or ANALYZER_BASELINE
    cache: dict[str, list[str]] = {}
    pairs = []
    for diag in report.diagnostics:
        path = getattr(diag.location, "path", None)
        line = getattr(diag.location, "line", None)
        text = ""
        if path and line:
            if path not in cache:
                cache[path] = Path(path).read_text().splitlines()
            lines = cache[path]
            if 1 <= line <= len(lines):
                text = lines[line - 1].strip()
        pairs.append((diag, text))
    old = Baseline.load(target) if Path(target).is_file() else Baseline()
    doc = Baseline.document(pairs, {e for e in old.entries if e[0] not in ran})
    Baseline().write(target, doc)
    n_findings = len(doc["findings"])
    print(
        f"baseline with {n_findings} "
        f"finding{'s' if n_findings != 1 else ''} written to {target}"
    )
    return 0


def _repin_schemas(paths) -> bool:
    """``sanitize --fix``: re-pin the schema registry; True on refusals."""
    from .sanitize import (
        collect_schemas,
        discover_files,
        load_registry,
        updated_registry,
        write_registry,
    )

    schemas = collect_schemas(discover_files(paths))
    doc, refusals = updated_registry(schemas, load_registry())
    write_registry(doc)
    print(
        f"schema registry re-pinned "
        f"({len(schemas)} module{'s' if len(schemas) != 1 else ''})"
    )
    for message in refusals:
        logger.error("error[sanitize/fix]: %s", message)
    return bool(refusals)


def _write_graph(args, select) -> None:
    """``--graph PATH``: a family's call graph or model as JSON."""
    import importlib

    family = importlib.import_module(f"repro.{args.command}")
    if args.command == "flow":
        doc = family.graph_json(family.build_program(args.paths))
        what = (f"call graph with {len(doc['nodes'])} nodes, "
                f"{len(doc['edges'])} edges")
    else:
        doc = family.model_json(family.build_analysis(args.paths, select)[0])
        functions = len(doc["functions"])
        what = (f"concurrency model with {functions} functions, "
                f"{len(doc['handles'])} module handles"
                if args.command == "race"
                else f"dtype/ndim model with {functions} functions")
    Path(args.graph).write_text(json.dumps(doc, indent=2) + "\n")
    # stderr: stdout must stay a clean report under --json
    logger.info("%s written to %s", what, args.graph)


def cmd_analyze(args) -> int:
    """The one handler of ``sanitize``, ``flow``, ``perf``, ``race``, ``shape``.

    ``repro sanitize`` runs the per-file family plus each family its
    ``--flow``/``--perf``/``--race``/``--shape`` flags add, over one
    parse (the combined gate); every other subcommand runs its own
    family through that package's ``analyze_paths``.
    """
    import importlib

    from .sanitize.engine import FAMILIES, analyze, rule_ids

    family = args.command
    select = _selected(args)
    families = [
        f for f in FAMILIES
        if f == family or (family == "sanitize" and getattr(args, f))
    ]
    try:
        if getattr(args, "fix", False) and _repin_schemas(args.paths):
            return 1
        if getattr(args, "worklist", False):
            from .perf import worklist_paths

            worklist = worklist_paths(args.paths, select, args.profile_data)
            print(json.dumps(worklist.to_json(), indent=2))
            n = len(worklist.entries)
            print(
                f"worklist: {n} ranked candidate{'s' if n != 1 else ''}",
                file=sys.stderr,
            )
            return 0
        if getattr(args, "graph", None):
            _write_graph(args, select)
        baseline = _analyzer_baseline(args)
        if len(families) > 1:
            report = analyze(
                args.paths, families, select=select, baseline=baseline
            )
        elif family == "sanitize":
            from .sanitize import SanitizeConfig, sanitize_paths

            report = sanitize_paths(
                args.paths, SanitizeConfig(select=select), baseline
            )
        else:
            extra = {"profile": args.profile_data} if family == "perf" else {}
            report = importlib.import_module(f"repro.{family}").analyze_paths(
                args.paths, select, baseline, **extra
            )
        if args.write_baseline:
            return _write_baseline(args, report, rule_ids(families, select))
    except (SanitizeError, ObsError) as exc:
        logger.error("error[%s/usage]: %s", family, exc)
        return 2
    _print_report(args, report)
    return report.exit_code


def _add_tree_analyzer_args(
    p: argparse.ArgumentParser,
    *,
    paths_help: str,
    select_example: str,
) -> None:
    """The argparse wiring every source-tree analyzer shares.

    All five analyzer subcommands take positional paths, ``--json``,
    ``--select`` and the ratcheted-baseline pair, and run through
    :func:`cmd_analyze`; declaring them once keeps the families
    flag-compatible by construction.
    """
    p.add_argument("paths", nargs="*", default=["src"], help=paths_help)
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    p.add_argument("--select", action="append", metavar="PREFIX",
                   help="only run rules whose id starts with PREFIX "
                        f"(repeatable), e.g. --select {select_example}")
    p.add_argument("--baseline", metavar="PATH", default=None,
                   help="baseline of grandfathered findings (default: "
                        f"{ANALYZER_BASELINE} when present)")
    p.add_argument("--write-baseline", action="store_true",
                   help="replace the baseline entries of the rules that "
                        "ran with the current findings and exit 0 (the "
                        "ratchet: entries only disappear)")
    p.set_defaults(func=cmd_analyze)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable Plaxton-Suel (SPAA 1992) lower-bound toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more log output (repeatable; also REPRO_LOG)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less log output (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("attack", help="run the adversary against a network")
    p.add_argument("--family", default="random_iterated",
                   help="bitonic | random_iterated | butterfly | ...")
    p.add_argument("-n", type=int, default=64)
    p.add_argument("--blocks", type=int, default=3)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certificate", metavar="PATH",
                   help="write the verified fooling pair as JSON")
    p.add_argument("--file", help="attack a serialised network JSON instead "
                   "(class structure is recognised automatically)")
    p.add_argument("--store", metavar="DIR",
                   help="read/write results through a content-addressed "
                        "artifact store; cached certificates are re-verified "
                        "against the rebuilt network before being trusted "
                        "(network build seeds derive from the job hash)")
    p.add_argument("--trace", metavar="PATH",
                   help="record a structured trace (JSONL) of the attack; "
                        "analyse it with 'repro stats PATH'")
    p.add_argument("--profile", action="store_const", const=True,
                   default=None,
                   help="print CPU/memory hotspots after the attack "
                        "(also via REPRO_PROFILE=1)")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("verify", help="0-1 verification of a network")
    p.add_argument("--sorter", default="bitonic",
                   help=f"one of: {', '.join(sorter_names())}")
    p.add_argument("-n", type=int, default=16)
    p.add_argument("--file", help="serialised network JSON instead")
    p.add_argument("--max-wires", type=int, default=24)
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable verdict document "
                        "(the same shape the certificate service returns)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("serve", help="run the certificate daemon over an "
                                     "artifact store")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="TCP port (0 picks a free one; the bound port is "
                        "announced on stdout)")
    p.add_argument("--store", metavar="DIR", default="farm-store",
                   help="artifact store directory (default: farm-store)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes for cold-miss batches")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="admitted requests before answering 429")
    p.add_argument("--max-batch", type=int, default=32,
                   help="largest cold-miss batch per pool dispatch")
    p.add_argument("--batch-delay", type=float, default=0.01,
                   help="seconds to wait coalescing a cold-miss batch")
    p.add_argument("--request-timeout", type=float, default=300.0,
                   help="per-request budget before answering 504")
    p.add_argument("--job-timeout", type=float, default=None,
                   help="per-job pool timeout in seconds (default: none)")
    p.add_argument("--trace", metavar="PATH",
                   help="record a structured trace (JSONL) of the daemon; "
                        "analyse it with 'repro stats PATH'")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query", help="send one request to a running daemon")
    p.add_argument("op", help="attack | verify")
    p.add_argument("--params", default="{}",
                   help='job parameters as JSON, e.g. '
                        '\'{"sorter": "bitonic", "n": 8}\'')
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--timeout", type=float, default=310.0)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("loadgen", help="drive a running daemon with "
                                       "closed-loop load")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent closed-loop workers")
    p.add_argument("--requests", type=int, default=16,
                   help="requests per client")
    p.add_argument("--unique", type=int, default=8,
                   help="distinct queries in the round-robin mix")
    p.add_argument("--json", nargs="?", const="-", default=None,
                   metavar="PATH",
                   help="emit the load report as JSON: bare --json prints "
                        "to stdout, --json PATH writes the file and still "
                        "prints the human table")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("top", help="live dashboard over a running daemon "
                                   "or a campaign's heartbeats")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--store", default=None, metavar="DIR",
                   help="watch a farm store's heartbeats instead of a "
                        "serve daemon")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes")
    p.add_argument("--iterations", type=int, default=0,
                   help="stop after N frames (0 = run until Ctrl-C); "
                        "--iterations 1 prints a single frame for scripts")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("route", help="route a permutation")
    p.add_argument("permutation", help="comma-separated targets, e.g. 3,1,0,2")
    p.add_argument("--in-class", action="store_true",
                   help="also build the strict shuffle-based router")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("render", help="ASCII diagram of a network")
    p.add_argument("--sorter", default="bitonic")
    p.add_argument("-n", type=int, default=8)
    p.add_argument("--file", help="serialised network JSON instead")
    p.add_argument("--summary", action="store_true")
    p.add_argument("--dot", action="store_true",
                   help="emit Graphviz DOT instead of ASCII")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("experiment", help="run an E1-E13 driver")
    p.add_argument("name", help="e1 .. e13, or 'all'")
    p.add_argument("--save", metavar="DIR", help="archive the table")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized drivers (E2, E8, E9, E11, ...)")
    p.add_argument("--store", metavar="DIR",
                   help="artifact store for the sweep-heavy drivers "
                        "(E8, E11): finished cells are reused after "
                        "re-verification")
    p.add_argument("--trace", metavar="PATH",
                   help="record a structured trace (JSONL) of the run")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bounds", help="print the bound landscape at n")
    p.add_argument("-n", type=int, default=1 << 16)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("lint", help="static analysis of a network")
    p.add_argument("target",
                   help="sorter name (see 'verify --sorter') or path to a "
                        "serialised network JSON file")
    p.add_argument("-n", "--n", type=int, default=16,
                   help="wire count when target is a sorter name")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    p.add_argument("--fix", metavar="PATH",
                   help="apply all fix-its and write the repaired network")
    p.add_argument("--select", action="append", metavar="PREFIX",
                   help="only run rules whose id starts with PREFIX "
                        "(repeatable), e.g. --select abstract/")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("sanitize", help="static analysis of the repro "
                                        "source tree itself")
    _add_tree_analyzer_args(
        p,
        paths_help="files/directories to analyse (default: src)",
        select_example="determinism/",
    )
    p.add_argument("--fix", action="store_true",
                   help="re-pin the schema fingerprint registry from the "
                        "tree (refuses field changes without a version "
                        "bump), then re-analyse")
    p.add_argument("--flow", action="store_true",
                   help="also run the whole-program flow analysis "
                        "(see `repro flow`) and merge its findings")
    p.add_argument("--perf", action="store_true",
                   help="also run the hot-path perf analysis "
                        "(see `repro perf`) and merge its findings")
    p.add_argument("--race", action="store_true",
                   help="also run the whole-program concurrency analysis "
                        "(see `repro race`) and merge its findings")
    p.add_argument("--shape", action="store_true",
                   help="also run the array dtype/shape analysis "
                        "(see `repro shape`) and merge its findings")

    p = sub.add_parser("flow", help="whole-program flow analysis of the "
                                    "repro source tree itself")
    _add_tree_analyzer_args(
        p,
        paths_help="files/directories to analyse as one program "
                   "(default: src)",
        select_example="flow/dead",
    )
    p.add_argument("--graph", metavar="PATH", default=None,
                   help="also serialise the call graph (nodes, edges, "
                        "per-function facts) to PATH as JSON")

    p = sub.add_parser("perf", help="profile-guided hot-path analysis of "
                                    "the repro source tree itself")
    _add_tree_analyzer_args(
        p,
        paths_help="files/directories to analyse as one program "
                   "(default: src)",
        select_example="perf/scalar",
    )
    # dest avoids the attack/experiment --profile (CPU profiler) toggle
    # that main() inspects on every command
    p.add_argument("--profile", dest="profile_data", metavar="PATH",
                   default=None,
                   help="join a trace JSONL (from --trace) or a profile "
                        "JSON document onto the call graph and rank "
                        "findings by observed hot-path weight")
    p.add_argument("--worklist", action="store_true",
                   help="emit the ranked vectorization worklist as JSON "
                        "(ignores pragmas and the baseline: it is the "
                        "inventory of remaining scalar hot paths)")

    p = sub.add_parser("race", help="whole-program concurrency analysis "
                                    "of the repro source tree itself")
    _add_tree_analyzer_args(
        p,
        paths_help="files/directories to analyse as one program "
                   "(default: src)",
        select_example="race/blocking",
    )
    p.add_argument("--graph", metavar="PATH", default=None,
                   help="also serialise the concurrency model (contexts, "
                        "blocking/fork/dispatch facts, shared-state "
                        "writes, module handles) to PATH as JSON")

    p = sub.add_parser("shape", help="array dtype/shape abstract "
                                     "interpretation of the repro source "
                                     "tree itself")
    _add_tree_analyzer_args(
        p,
        paths_help="files/directories to analyse as one program "
                   "(default: src)",
        select_example="shape/implicit",
    )
    p.add_argument("--graph", metavar="PATH", default=None,
                   help="also serialise the dtype/ndim model (per-function "
                        "return summaries, constructor sites, inferred "
                        "abstract values) to PATH as JSON")

    p = sub.add_parser("farm", help="parallel campaign runner with a "
                                    "content-addressed artifact store")
    farm_sub = p.add_subparsers(dest="farm_command", required=True)

    fp = farm_sub.add_parser("run", help="run a campaign spec")
    fp.add_argument("spec", help="path to a campaign spec JSON "
                                 "(see docs/FARM.md)")
    fp.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: the spec's setting)")
    fp.add_argument("--store", metavar="DIR", default="farm-store",
                    help="artifact store directory (default: farm-store)")
    fp.add_argument("--resume", action="store_true",
                    help="skip jobs whose artifacts are already stored; "
                        "hits are revalidated, counted and reported")
    fp.add_argument("--timeout", type=float, default=None,
                    help="per-job timeout in seconds (overrides the spec)")
    fp.add_argument("--retries", type=int, default=None,
                    help="retries per failing job (overrides the spec)")
    fp.add_argument("--json", action="store_true",
                    help="emit the summary and table as JSON")
    fp.add_argument("--save", metavar="DIR",
                    help="archive the campaign table like an experiment")
    fp.add_argument("--trace", metavar="PATH", nargs="?",
                    const="farm-trace.jsonl", default=None,
                    help="record a structured trace of the campaign, "
                         "including per-job worker spans "
                         "(default path: farm-trace.jsonl)")
    fp.set_defaults(func=cmd_farm_run)

    fp = farm_sub.add_parser("status", help="inventory an artifact store")
    fp.add_argument("--live", action="store_true",
                    help="show live campaign heartbeats (per-worker "
                         "liveness, queue depth, throughput) instead of "
                         "the store inventory")
    fp.add_argument("--store", metavar="DIR", default="farm-store")
    fp.add_argument("--json", action="store_true")
    fp.set_defaults(func=cmd_farm_status)

    p = sub.add_parser("stats", help="analyse a trace written by --trace")
    p.add_argument("trace_file", help="path to a trace JSONL file")
    p.add_argument("--json", action="store_true",
                   help="emit the full analysis as JSON")
    p.add_argument("--top", type=int, default=10,
                   help="number of slowest spans to list (default 10)")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    ``BrokenPipeError`` is handled here, around the *whole* command --
    any subcommand's stdout (reports, worklists, graph summaries) may
    be cut short by ``| head``, and that is the consumer's prerogative,
    not an error.  Redirecting the dead stdout to ``/dev/null`` also
    keeps the interpreter's shutdown flush quiet.
    """
    try:
        return _run_command(argv)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _run_command(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    trace_target = getattr(args, "trace", None)
    profile_handle = None
    with contextlib.ExitStack() as stack:
        if trace_target:
            stack.enter_context(tracing(trace_target))
        # The flight recorder attaches after tracing so an explicit
        # --trace sink gets teed rather than replaced.
        recorder = (
            stack.enter_context(flight_recording())
            if flight_enabled() else None
        )
        if hasattr(args, "profile") and profiling_enabled(args.profile):
            profile_handle = stack.enter_context(
                profile_section(args.command, enabled=True)
            )
        try:
            code = args.func(args)
        except ReproError as exc:
            # Backstop for library errors no subcommand mapped itself:
            # a diagnostic line and exit 2, never a stack trace.
            logger.error("error[%s]: %s", args.command, exc)
            if recorder is not None:
                dump = recorder.dump(f"error:{args.command}")
                if dump is not None:
                    logger.error("flight recording dumped to %s", dump)
            code = 2
    if trace_target:
        logger.info("trace written to %s", trace_target)
    if profile_handle is not None and profile_handle.report is not None:
        print(profile_handle.report.format(), file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
