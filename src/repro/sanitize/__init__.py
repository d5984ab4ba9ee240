"""repro.sanitize: static analysis of the repro source tree itself.

Where :mod:`repro.lint` analyses comparator networks, this package
analyses the Python code that *produces* them, guarding the invariants
the paper reproduction depends on but no unit test states directly:

* **determinism** -- every random draw in the certificate-producing
  zone flows from an explicit seed; no wall clocks or OS entropy leak
  into content-addressed results; set iteration order never reaches an
  ordered output;
* **fork safety** -- nothing mutates module globals or captures
  pre-fork handles/tracers that would desynchronise the farm's worker
  pool;
* **observability** -- library errors cross the CLI boundary as
  :class:`~repro.errors.ReproError`, entry points keep their span
  instrumentation, stdout belongs to the CLI;
* **schema stability** -- serialized dataclass fields cannot drift
  without a version bump, enforced against a pinned fingerprint
  registry.

Built entirely on the stdlib :mod:`ast` -- no new dependencies -- and
mirroring the linter's architecture: a rule registry with stable
``category/name`` ids, shared :class:`~repro.diagnostics.Diagnostic`
records, JSON and human reports, ``--select`` filtering, and the one
checked-in baseline (``analyzer-baseline.json``).  CLI:
``repro sanitize [paths] [--json] [--select] [--baseline] [--fix]``.

This package also owns the analyzer engine (:mod:`.engine`) every
family runs on: ``repro sanitize --flow --perf --race --shape`` parses
each file once, builds one call graph, and applies one waiver pass.
"""

from ..diagnostics import (
    BASELINE_VERSION,
    Baseline,
    Diagnostic,
    FixIt,
    Severity,
    SourceLocation,
)
from .engine import (
    FAMILIES,
    Engine,
    FileContext,
    SanitizeConfig,
    analyze,
    anchored_path,
    discover_files,
    sanitize_file,
    sanitize_paths,
    sanitize_source,
    selected,
)
from .report import SanitizeReport
from .rules import RULES, SanitizeRule, sanitize_rule
from .schema import (
    REGISTRY_PATH,
    REGISTRY_VERSION,
    ModuleSchema,
    collect_schemas,
    load_registry,
    module_schema,
    updated_registry,
    write_registry,
)

__all__ = [
    "BASELINE_VERSION",
    "Baseline",
    "Diagnostic",
    "FixIt",
    "Severity",
    "SourceLocation",
    "FAMILIES",
    "Engine",
    "FileContext",
    "SanitizeConfig",
    "analyze",
    "anchored_path",
    "discover_files",
    "sanitize_file",
    "sanitize_paths",
    "sanitize_source",
    "selected",
    "SanitizeReport",
    "RULES",
    "SanitizeRule",
    "sanitize_rule",
    "REGISTRY_PATH",
    "REGISTRY_VERSION",
    "ModuleSchema",
    "collect_schemas",
    "load_registry",
    "module_schema",
    "updated_registry",
    "write_registry",
]
