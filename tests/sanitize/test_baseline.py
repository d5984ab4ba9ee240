"""Baseline document tests: load, validate, fingerprint, roundtrip."""

import json

import pytest

from repro.diagnostics import Diagnostic, SourceLocation
from repro.errors import SanitizeError
from repro.sanitize import Baseline, Severity, sanitize_source


def diag(rule="determinism/unseeded-rng", path="src/repro/core/x.py",
         line=2):
    return Diagnostic(
        rule=rule,
        severity=Severity.ERROR,
        message="m",
        location=SourceLocation(path=path, line=line),
    )


class TestLoad:
    def test_roundtrip(self, tmp_path):
        doc = Baseline.document(
            [(diag(), "rng = np.random.default_rng()")]
        )
        p = tmp_path / "baseline.json"
        Baseline().write(p, doc)
        loaded = Baseline.load(p)
        assert loaded.entries == {
            (
                "determinism/unseeded-rng",
                "repro/core/x.py",
                "rng = np.random.default_rng()",
            )
        }

    def test_document_dedupes_and_sorts(self):
        d1 = diag(line=2)
        d2 = diag(line=9)  # same rule/path/content -> one entry
        d3 = diag(rule="obs/print-stdout")
        doc = Baseline.document([(d1, "same line"), (d2, "same line"),
                                 (d3, "other")])
        assert doc["version"] == 1
        assert [e["rule"] for e in doc["findings"]] == [
            "determinism/unseeded-rng",
            "obs/print-stdout",
        ]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SanitizeError, match="cannot read"):
            Baseline.load(tmp_path / "gone.json")

    def test_invalid_json_raises(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text("{not json")
        with pytest.raises(SanitizeError, match="not valid JSON"):
            Baseline.load(p)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"version": 99, "findings": []},
            {"version": 1, "findings": {}},
            {"version": 1, "findings": [{"rule": 3, "path": "x"}]},
            {"version": 1, "findings": ["nope"]},
        ],
    )
    def test_malformed_documents_raise(self, tmp_path, doc):
        p = tmp_path / "b.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SanitizeError):
            Baseline.load(p)


class TestFingerprint:
    def test_anchored_and_line_free(self):
        fp = Baseline.fingerprint(
            diag(path="/somewhere/else/src/repro/core/x.py", line=42),
            "content line",
        )
        assert fp == (
            "determinism/unseeded-rng",
            "repro/core/x.py",
            "content line",
        )

    def test_matches(self):
        b = Baseline(entries={("r", "repro/core/x.py", "c")})
        d = Diagnostic(
            rule="r",
            severity=Severity.ERROR,
            message="m",
            location=SourceLocation(path="src/repro/core/x.py", line=1),
        )
        assert b.matches(d, "c")
        assert not b.matches(d, "different")


class TestShippedBaseline:
    def test_shipped_baseline_holds_only_perf_entries(self):
        # the one shipped ratchet grandfathers the perf worklist only:
        # sanitize findings (and flow/race/shape ones) are never
        # baselined, so a new one fails the gate at once
        from tests.sanitize.conftest import SRC

        shipped = SRC.parent / "analyzer-baseline.json"
        doc = json.loads(shipped.read_text())
        assert doc["version"] == 1
        assert doc["findings"]
        assert all(e["rule"].startswith("perf/") for e in doc["findings"])

    def test_empty_baseline_suppresses_nothing(self):
        b = Baseline()
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        diags = sanitize_source(
            src, "repro/core/x.py", registry={"version": 1, "modules": {}}
        )
        assert diags and not any(
            b.matches(d, "rng = np.random.default_rng()") for d in diags
        )
