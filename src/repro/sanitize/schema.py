"""Serialized-format drift detection for the repro wire schemas.

The repo persists several JSON formats whose readers live far from
their writers: non-sorting certificates (archived by the farm store and
re-verified on every cache hit), job documents (hashed into artifact
addresses), campaign specs, trace records.  Silently adding a field to
one of these dataclasses changes the wire format -- and, for jobs, the
*content hash*, orphaning every previously stored artifact -- without
any test noticing until a resumed campaign misbehaves.

The contract enforced here: every schema-bearing module declares an
integer version constant (``CERTIFICATE_FORMAT``, ``JOB_FORMAT``,
``SCHEMA_VERSION``, ...), and the field lists of its serialized
dataclasses are pinned in a checked-in registry
(``schema_registry.json``, next to this module).  The ``schema/*``
rules compare the AST against the registry; changing a pinned field set
is an error until the module's version constant is bumped and the
registry re-pinned with ``repro sanitize --fix`` -- which refuses to
re-pin changed fields while the version stands still, so the bump
cannot be skipped.

A class is *tracked* when it is a ``@dataclass`` that defines
``to_json`` in its own body, or subclasses a tracked class of the same
module (the ``Job`` hierarchy); ``ClassVar`` annotations are excluded
from the pinned fields, matching :func:`dataclasses.fields`.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..errors import SanitizeError

if TYPE_CHECKING:  # pragma: no cover - types only
    from .engine import FileContext

__all__ = [
    "REGISTRY_VERSION",
    "REGISTRY_PATH",
    "ModuleSchema",
    "load_registry",
    "module_schema",
    "collect_schemas",
    "updated_registry",
    "write_registry",
]

#: Version of the registry document format; bump on breaking change.
REGISTRY_VERSION = 1

#: The packaged registry pinning the live schemas.
REGISTRY_PATH = Path(__file__).with_name("schema_registry.json")

#: Module-level ``NAME = <int>`` constants recognised as schema versions.
_VERSION_NAME = re.compile(r"^[A-Z][A-Z0-9_]*$")
_VERSION_HINTS = ("FORMAT", "VERSION", "SCHEMA")


@dataclass(frozen=True)
class ModuleSchema:
    """What the AST says about one schema-bearing module.

    ``version`` is ``(constant name, value, line)`` or ``None``;
    ``classes`` maps tracked dataclass names to ``(fields, line)``.
    """

    version: tuple[str, int, int] | None
    classes: dict[str, tuple[tuple[str, ...], int]]


def load_registry(path: str | Path = REGISTRY_PATH) -> dict[str, Any]:
    """Read and validate the schema fingerprint registry."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as exc:
        raise SanitizeError(
            f"cannot read schema registry {p}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise SanitizeError(
            f"schema registry {p} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(doc, dict) or doc.get("version") != REGISTRY_VERSION:
        raise SanitizeError(
            f"schema registry {p} must be an object with version = "
            f"{REGISTRY_VERSION}"
        )
    if not isinstance(doc.get("modules"), dict):
        raise SanitizeError(f"schema registry {p}: 'modules' must be an object")
    return doc


def _is_version_constant(name: str) -> bool:
    return bool(_VERSION_NAME.match(name)) and any(
        hint in name for hint in _VERSION_HINTS
    )


def _find_version(tree: ast.Module) -> tuple[str, int, int] | None:
    """The first module-level ``ALL_CAPS_*FORMAT* = <int>`` assignment."""
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and _is_version_constant(target.id)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, int)
                and not isinstance(value.value, bool)
            ):
                return (target.id, value.value, stmt.lineno)
    return None


def _is_dataclass_decorated(ctx: "FileContext", node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        resolved = ctx.resolve(target)
        if resolved in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def _class_fields(node: ast.ClassDef) -> tuple[str, ...]:
    """Annotated instance fields, in declaration order, sans ClassVars."""
    fields: list[str] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        if "ClassVar" in ast.dump(stmt.annotation):
            continue
        fields.append(stmt.target.id)
    return tuple(fields)


def module_schema(ctx: "FileContext") -> ModuleSchema:
    """Extract the version constant and tracked dataclasses of one file."""
    classes: dict[str, tuple[tuple[str, ...], int]] = {}
    for stmt in ctx.tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        if not _is_dataclass_decorated(ctx, stmt):
            continue
        has_to_json = any(
            isinstance(item, ast.FunctionDef) and item.name == "to_json"
            for item in stmt.body
        )
        subclasses_tracked = any(
            isinstance(base, ast.Name) and base.id in classes
            for base in stmt.bases
        )
        if not has_to_json and not subclasses_tracked:
            continue
        inherited: tuple[str, ...] = ()
        for base in stmt.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                inherited = classes[base.id][0]
                break
        own = _class_fields(stmt)
        fields = inherited + tuple(f for f in own if f not in inherited)
        classes[stmt.name] = (fields, stmt.lineno)
    return ModuleSchema(version=_find_version(ctx.tree), classes=classes)


def collect_schemas(files: "list[Path]") -> dict[str, ModuleSchema]:
    """AST schemas for the schema-bearing modules among ``files``.

    Keyed by anchored path; files that are not in ``SCHEMA_MODULES``
    (or do not parse) are skipped.  This is the discovery step behind
    ``repro sanitize --fix``.
    """
    from .engine import FileContext, anchored_path
    from .rules import SCHEMA_MODULES

    schemas: dict[str, ModuleSchema] = {}
    for f in files:
        rel = anchored_path(f)
        if rel not in SCHEMA_MODULES:
            continue
        try:
            source = Path(f).read_text()
            tree = ast.parse(source)
        except (OSError, UnicodeDecodeError, SyntaxError):
            continue
        ctx = FileContext(source, Path(f).as_posix(), tree)
        schemas[rel] = module_schema(ctx)
    return schemas


def updated_registry(
    schemas: dict[str, ModuleSchema],
    registry: dict[str, Any],
) -> tuple[dict[str, Any], list[str]]:
    """Re-pin the registry from the current tree, guarding the bump rule.

    ``schemas`` maps anchored module paths to their AST schemas.
    Returns ``(new registry document, refusals)``: a module whose
    pinned class fields changed while its version constant value did
    not is *kept at its old pin* and reported in ``refusals`` -- the
    caller surfaces those as persisting errors, making the version bump
    unskippable.  New modules and new classes pin freely.
    """
    old_modules: dict[str, Any] = registry.get("modules", {})
    new_modules: dict[str, Any] = {}
    refusals: list[str] = []
    for rel in sorted(schemas):
        schema = schemas[rel]
        old = old_modules.get(rel)
        version = schema.version
        entry: dict[str, Any] = {
            "version_constant": version[0] if version else None,
            "version": version[1] if version else None,
            "classes": {
                name: list(schema.classes[name][0])
                for name in sorted(schema.classes)
            },
        }
        if old is not None and version is not None:
            bumped = old.get("version") != version[1]
            old_classes = old.get("classes", {})
            for name in sorted(schema.classes):
                pinned = old_classes.get(name)
                current = list(schema.classes[name][0])
                if pinned is not None and pinned != current and not bumped:
                    refusals.append(
                        f"{rel}: fields of {name} changed but "
                        f"{version[0]} is still {version[1]}; bump it "
                        "before re-pinning"
                    )
                    entry["classes"][name] = pinned
                    entry["version"] = old.get("version")
        new_modules[rel] = entry
    # modules that vanished from the tree drop out of the registry
    return ({"version": REGISTRY_VERSION, "modules": new_modules}, refusals)


def write_registry(doc: dict[str, Any], path: str | Path = REGISTRY_PATH) -> None:
    """Write the registry with stable formatting and a trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
