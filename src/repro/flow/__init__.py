"""Whole-program flow analysis for the repro tree itself.

Where :mod:`repro.sanitize` checks invariants one file at a time, this
package checks the *call-chain* invariants the per-file view cannot
see: that every rng reaching a stochastic kernel is seed-derived
(``flow/unseeded-rng-path``), that every exception escaping the CLI is
a :class:`~repro.errors.ReproError` (``flow/foreign-exception-escape``
plus the ``flow/broad-except-swallow`` soundness guard), that nothing
a farm worker calls transitively mutates module state
(``flow/fork-hostile-call``), and that every module-level definition is
exported or referenced (``flow/dead-export``).

Layering (docs/FLOW.md):

* :mod:`repro.flow.graph` -- the project-wide call graph: definitions
  index, re-export resolution, class hierarchy, call/reference edges
  with handler context and rng-forwarding modes, per-function facts;
* :mod:`repro.flow.summaries` -- the interprocedural fixpoints
  (escaping exceptions, possibly-``None`` rng parameters,
  reachability);
* :mod:`repro.flow.rules` -- the rule catalog;
* :mod:`repro.flow.report` -- :func:`analyze_paths`, the thin entry
  point over the shared analyzer engine (:mod:`repro.sanitize.engine`:
  discovery, one parse, pragmas, baseline), the versioned report and
  the ``--graph`` serialization.

Run it as ``repro flow src/`` or fold it into a sanitize run with
``repro sanitize --flow src/``.
"""

from .graph import Edge, FunctionInfo, Program
from .report import FLOW_FORMAT, FlowReport, analyze_paths, build_program, graph_json
from .rules import FLOW_RULES, FlowAnalysis

__all__ = [
    "analyze_paths",
    "build_program",
    "Program",
    "FunctionInfo",
    "Edge",
    "FLOW_FORMAT",
    "FlowReport",
    "graph_json",
    "FLOW_RULES",
    "FlowAnalysis",
]
