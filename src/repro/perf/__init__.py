"""Profile-guided hot-path analysis for the repro tree itself.

The fourth analyzer family.  Where :mod:`repro.lint` checks networks,
:mod:`repro.sanitize` checks files and :mod:`repro.flow` checks
call-chain invariants, this package answers the performance question
the vectorization arc needs answered systematically: *which scalar
Python loops actually sit on hot paths, and in what order should they
be vectorised?*

Layering (docs/PERF.md):

* :mod:`repro.perf.costmodel` -- static *effective loop depth*: local
  nesting per function, propagated through the
  :class:`~repro.flow.graph.Program` call edges to a fixpoint (a
  depth-1 helper called inside a depth-2 loop is effectively depth-3);
* :mod:`repro.perf.rules` -- the ``perf/*`` rule catalog of
  vectorizable antipatterns, each firing only at effective depth >= 2
  so cold code stays quiet;
* :mod:`repro.perf.profilejoin` -- joining measured
  :mod:`repro.obs` span self-times (or CPU profile rows) onto the call
  graph, re-ranking findings by observed hot-path weight;
* :mod:`repro.perf.worklist` -- the versioned ranked vectorization
  worklist (``repro perf --worklist``), which deliberately ignores
  pragma/baseline waivers: it is the inventory of remaining work;
* :mod:`repro.perf.report` -- :func:`analyze_paths`, the thin entry
  point over the shared analyzer engine (:mod:`repro.sanitize.engine`:
  discovery, one parse, pragmas, baseline), and the versioned report.

Run it as ``repro perf src/`` (add ``--profile trace.jsonl`` for
observed ranking) or fold it into a sanitize run with
``repro sanitize --perf src/``.
"""

from .costmodel import CostModel, FunctionCost, build_cost_model
from .profilejoin import ProfileJoin, join_profile, load_profile, span_owners
from .report import PERF_FORMAT, PerfReport, analyze_paths, build_analysis
from .rules import HOT_DEPTH, PERF_RULES, PerfAnalysis
from .worklist import (
    WORKLIST_FORMAT,
    Worklist,
    WorklistEntry,
    build_worklist,
    worklist_paths,
)

__all__ = [
    "CostModel",
    "FunctionCost",
    "build_cost_model",
    "analyze_paths",
    "build_analysis",
    "worklist_paths",
    "ProfileJoin",
    "join_profile",
    "load_profile",
    "span_owners",
    "PERF_FORMAT",
    "PerfReport",
    "HOT_DEPTH",
    "PERF_RULES",
    "PerfAnalysis",
    "WORKLIST_FORMAT",
    "Worklist",
    "WorklistEntry",
    "build_worklist",
]
