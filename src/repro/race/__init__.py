"""Whole-program concurrency analysis for the repro tree itself.

The serve/farm stack mixes four execution contexts in one process
family: the asyncio event loop (:mod:`repro.serve.server`), helper
threads spawned via ``asyncio.to_thread`` (the batcher dispatching
:func:`repro.farm.runner.run_jobs`), forked worker processes
(:class:`repro.farm.runner._Worker`), and Unix signal handlers (the
flight recorder's ``SIGUSR2`` dump).  The per-file analyzers cannot
see which context a function *runs in* -- that is a property of the
call graph.  This package classifies every function into its
concurrency contexts, propagates a blocking-effect summary
interprocedurally, and checks the cross-context discipline rules the
other analyzers cannot express: no blocking I/O on the event loop, no
lock held across an ``await``, no fork from thread context, no
import-time handle crossing the fork boundary, no unsynchronised
shared-state writes from truly concurrent contexts.

Layering (docs/RACE.md):

* :mod:`repro.race.model` -- the concurrency model: per-function facts
  (blocking sites, fork sites, dispatch targets, lock-scoped writes),
  context roots and BFS propagation, the blocking-effect fixpoint;
* :mod:`repro.race.rules` -- the rule catalog, every finding carrying
  a witness call chain from a context root to the offending site;
* :mod:`repro.race.report` -- :func:`analyze_paths`, the thin entry
  point over the shared analyzer engine (:mod:`repro.sanitize.engine`:
  discovery, one parse, pragmas, baseline), the versioned report and
  the ``--graph`` model serialization.

Run it as ``repro race src/`` or fold it into a sanitize run with
``repro sanitize --race src/``.
"""

from .model import RaceModel, blocking_effects, propagate_contexts
from .report import RACE_FORMAT, RaceReport, analyze_paths, build_analysis, model_json
from .rules import RACE_RULES, RaceAnalysis

__all__ = [
    "analyze_paths",
    "build_analysis",
    "RaceModel",
    "propagate_contexts",
    "blocking_effects",
    "RACE_FORMAT",
    "RaceReport",
    "model_json",
    "RACE_RULES",
    "RaceAnalysis",
]
