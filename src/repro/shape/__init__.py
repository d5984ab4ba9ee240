"""Array dtype/shape abstract interpretation for the repro tree itself.

The ROADMAP's vectorization arc replaces per-comparator Python loops
with NumPy layer-matrix kernels under a hard contract: same-seed
certificates stay byte-identical, which means every array on a
certificate-bearing path must keep exact ``int64`` semantics.  The
classic failure modes of that rewrite -- silent ``dtype=object``
fallbacks, int64→float64 upcasts, broadcast surprises, hidden copies --
are all statically detectable.  This package infers a dtype × ndim
lattice for every NumPy value in the tree (constructor dtypes,
``asarray``/``astype`` flows, ufunc promotion, indexing/reduction rank
deltas, propagated interprocedurally through annotated and returned
arrays) and gates seven rules on it.

Layering (docs/SHAPE.md):

* :mod:`repro.shape.model` -- the abstract domain and interpreter:
  per-function environments, dtype promotion (including the
  ``uint64`` + signed-int float64 trap), rank tracking, the
  return-summary fixpoint over the call graph;
* :mod:`repro.shape.rules` -- the rule catalog, hot-gated against the
  :mod:`repro.perf` cost model and scope-gated to the
  integer-exactness directories;
* :mod:`repro.shape.report` -- :func:`analyze_paths`, the thin entry
  point over the shared analyzer engine (:mod:`repro.sanitize.engine`:
  discovery, one parse, pragmas, baseline), the versioned report and
  the ``--graph`` model serialization.

Run it as ``repro shape src/`` or fold it into a sanitize run with
``repro sanitize --shape src/``.
"""

from .model import AbstractValue, ShapeModel, dtype_kind, promote
from .report import SHAPE_FORMAT, ShapeReport, analyze_paths, build_analysis, model_json
from .rules import INT_EXACT_SCOPE, SHAPE_RULES, ShapeAnalysis

__all__ = [
    "analyze_paths",
    "build_analysis",
    "AbstractValue",
    "ShapeModel",
    "promote",
    "dtype_kind",
    "SHAPE_FORMAT",
    "ShapeReport",
    "model_json",
    "SHAPE_RULES",
    "ShapeAnalysis",
    "INT_EXACT_SCOPE",
]
