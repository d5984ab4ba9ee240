"""Schema fingerprint registry tests: extraction, pinning, the bump rule."""

import ast

import pytest

from repro.errors import SanitizeError
from repro.sanitize import (
    FileContext,
    collect_schemas,
    load_registry,
    module_schema,
    updated_registry,
    write_registry,
)
from repro.sanitize.schema import REGISTRY_PATH


def ctx_for(source, path="repro/core/certificates.py"):
    return FileContext(source, path, ast.parse(source))


TRACKED = (
    "from dataclasses import dataclass\n"
    "from typing import ClassVar\n"
    "CERTIFICATE_FORMAT = 3\n"
    "@dataclass\n"
    "class Cert:\n"
    "    kind: ClassVar[str] = 'cert'\n"
    "    a: int\n"
    "    b: int = 0\n"
    "    def to_json(self):\n"
    "        return {}\n"
    "@dataclass\n"
    "class SubCert(Cert):\n"
    "    c: int = 1\n"
    "@dataclass\n"
    "class Unserialized:\n"
    "    x: int\n"
)


class TestModuleSchema:
    def test_version_and_tracked_classes(self):
        schema = module_schema(ctx_for(TRACKED))
        assert schema.version is not None
        name, value, line = schema.version
        assert (name, value, line) == ("CERTIFICATE_FORMAT", 3, 3)
        assert set(schema.classes) == {"Cert", "SubCert"}
        # ClassVar excluded; subclass inherits base fields first
        assert schema.classes["Cert"][0] == ("a", "b")
        assert schema.classes["SubCert"][0] == ("a", "b", "c")

    def test_no_version_constant(self):
        schema = module_schema(ctx_for("X = 'not an int'\nFOO = 1\n"))
        assert schema.version is None  # FOO lacks a FORMAT/VERSION hint

    def test_bool_is_not_a_version(self):
        schema = module_schema(ctx_for("DEBUG_FORMAT = True\n"))
        assert schema.version is None

    def test_dataclass_call_decorator_recognised(self):
        src = (
            "import dataclasses\n"
            "V_FORMAT = 1\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class C:\n"
            "    a: int\n"
            "    def to_json(self):\n"
            "        return {}\n"
        )
        schema = module_schema(ctx_for(src))
        assert schema.classes["C"][0] == ("a",)


class TestUpdatedRegistry:
    def pinned(self, fields, version=3):
        return {
            "version": 1,
            "modules": {
                "repro/core/certificates.py": {
                    "version_constant": "CERTIFICATE_FORMAT",
                    "version": version,
                    "classes": {"Cert": fields,
                                "SubCert": ["a", "b", "c"]},
                }
            },
        }

    def schemas(self, source=TRACKED):
        return {"repro/core/certificates.py": module_schema(ctx_for(source))}

    def test_fresh_pin(self):
        doc, refusals = updated_registry(
            self.schemas(), {"version": 1, "modules": {}}
        )
        assert refusals == []
        entry = doc["modules"]["repro/core/certificates.py"]
        assert entry["version"] == 3
        assert entry["classes"]["Cert"] == ["a", "b"]

    def test_unchanged_repin_is_identity(self):
        doc1, _ = updated_registry(
            self.schemas(), {"version": 1, "modules": {}}
        )
        doc2, refusals = updated_registry(self.schemas(), doc1)
        assert doc2 == doc1 and refusals == []

    def test_refuses_field_change_without_bump(self):
        doc, refusals = updated_registry(
            self.schemas(), self.pinned(["a", "b", "dropped"])
        )
        assert len(refusals) == 1 and "bump" in refusals[0]
        # the old pin is kept, not silently overwritten
        entry = doc["modules"]["repro/core/certificates.py"]
        assert entry["classes"]["Cert"] == ["a", "b", "dropped"]

    def test_accepts_field_change_with_bump(self):
        doc, refusals = updated_registry(
            self.schemas(), self.pinned(["a", "b", "dropped"], version=2)
        )
        assert refusals == []
        entry = doc["modules"]["repro/core/certificates.py"]
        assert entry["classes"]["Cert"] == ["a", "b"]
        assert entry["version"] == 3

    def test_vanished_module_drops_out(self):
        doc, _ = updated_registry({}, self.pinned(["a", "b"]))
        assert doc["modules"] == {}


class TestPackagedRegistry:
    def test_loads_and_validates(self):
        doc = load_registry()
        assert doc["version"] == 1
        assert "repro/farm/jobs.py" in doc["modules"]

    def test_malformed_registry_raises(self, tmp_path):
        p = tmp_path / "reg.json"
        p.write_text('{"version": 42}')
        with pytest.raises(SanitizeError):
            load_registry(p)

    def test_packaged_registry_matches_tree(self):
        """`repro sanitize --fix` on a clean tree is a no-op."""
        from tests.sanitize.conftest import SRC

        files = sorted(SRC.rglob("*.py"))
        schemas = collect_schemas(files)
        current = load_registry()
        doc, refusals = updated_registry(schemas, current)
        assert refusals == []
        assert doc == current

    def test_write_registry_roundtrip(self, tmp_path):
        p = tmp_path / "reg.json"
        doc, _ = updated_registry({}, {"version": 1, "modules": {}})
        write_registry(doc, p)
        assert load_registry(p) == doc
        assert p.read_text().endswith("\n")

    def test_registry_path_is_packaged(self):
        assert REGISTRY_PATH.name == "schema_registry.json"
        assert REGISTRY_PATH.is_file()
