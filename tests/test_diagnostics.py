"""The shared baseline ratchet and waiver pass (`repro.diagnostics`).

Extracted from the per-analyzer copies in issue 9 so ``sanitize``,
``flow``, ``perf`` and ``race`` grandfather findings identically; these
tests pin the extracted semantics directly -- each analyzer's own suite
only checks its integration.
"""

import pytest

from repro.diagnostics import (
    BASELINE_VERSION,
    Baseline,
    Diagnostic,
    Severity,
    SourceLocation,
    apply_waivers,
)
from repro.errors import SanitizeError


def diag(rule="race/test-rule", path="/ci/src/repro/mod.py", line=3):
    return Diagnostic(
        rule=rule,
        severity=Severity.ERROR,
        message="planted",
        location=SourceLocation(path=path, line=line),
    )


class TestFingerprint:
    def test_anchored_and_line_number_independent(self):
        a = Baseline.fingerprint(diag(line=3), "x = 1")
        b = Baseline.fingerprint(
            diag(path="/elsewhere/repro/mod.py", line=99), "x = 1"
        )
        assert a == b == ("race/test-rule", "repro/mod.py", "x = 1")

    def test_line_text_distinguishes_findings(self):
        a = Baseline.fingerprint(diag(), "x = 1")
        b = Baseline.fingerprint(diag(), "y = 2")
        assert a != b


class TestDocumentRoundTrip:
    def test_document_write_load_matches(self, tmp_path):
        doc = Baseline.document([(diag(), "x = 1")])
        assert doc["version"] == BASELINE_VERSION
        target = tmp_path / "baseline.json"
        Baseline().write(target, doc)
        loaded = Baseline.load(target)
        assert loaded.matches(diag(line=41), "x = 1")
        assert not loaded.matches(diag(rule="race/other"), "x = 1")

    def test_document_deduplicates_and_sorts(self):
        doc = Baseline.document(
            [
                (diag(rule="z/rule"), "x = 1"),
                (diag(rule="a/rule"), "x = 1"),
                (diag(rule="z/rule", line=77), "x = 1"),  # same fp
            ]
        )
        assert [e["rule"] for e in doc["findings"]] == ["a/rule", "z/rule"]

    def test_empty_shipped_shape(self):
        # an empty ratchet is exactly this document
        assert Baseline.document([]) == {
            "version": BASELINE_VERSION,
            "findings": [],
        }

    def test_kept_entries_carry_over_verbatim(self):
        kept = {("perf/copy-in-loop", "repro/a.py", "b = list(a)")}
        doc = Baseline.document([(diag(), "x = 1")], kept)
        assert doc["findings"] == [
            {"rule": "perf/copy-in-loop", "path": "repro/a.py",
             "content": "b = list(a)"},
            {"rule": "race/test-rule", "path": "repro/mod.py",
             "content": "x = 1"},
        ]

    def test_shipped_baseline_holds_only_perf_entries(self):
        # every family reads the one shipped file; only the perf
        # worklist is grandfathered in it
        from pathlib import Path

        shipped = Path(__file__).resolve().parents[1] / "analyzer-baseline.json"
        entries = Baseline.load(shipped).entries
        assert entries
        assert {rule.split("/")[0] for rule, _, _ in entries} == {"perf"}


class TestLoadValidation:
    def test_rejects_wrong_version(self, tmp_path):
        target = tmp_path / "b.json"
        target.write_text('{"version": 99, "findings": []}')
        with pytest.raises(SanitizeError):
            Baseline.load(target)

    def test_rejects_non_json(self, tmp_path):
        target = tmp_path / "b.json"
        target.write_text("not json")
        with pytest.raises(SanitizeError):
            Baseline.load(target)

    def test_rejects_malformed_finding(self, tmp_path):
        target = tmp_path / "b.json"
        target.write_text('{"version": 1, "findings": [{"rule": 7}]}')
        with pytest.raises(SanitizeError):
            Baseline.load(target)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(SanitizeError):
            Baseline.load(tmp_path / "absent.json")


class _FakeContext:
    """The FileContext waiver surface apply_waivers duck-types."""

    def __init__(self, lines, waived_rules=()):
        self.lines = lines
        self.waived = set(waived_rules)

    def suppressed(self, diagnostic):
        return diagnostic.rule in self.waived

    def line_text(self, line):
        if line is None or not (1 <= line <= len(self.lines)):
            return ""
        return self.lines[line - 1].strip()


class TestApplyWaivers:
    def test_pragma_wins_before_baseline_counting(self, tmp_path):
        d = diag()
        contexts = {d.location.path: _FakeContext(
            ["", "", "x = 1"], waived_rules={d.rule}
        )}
        baseline = Baseline(
            entries={Baseline.fingerprint(d, "x = 1")}
        )
        kept, suppressed = apply_waivers([d], contexts, baseline)
        # pragma-suppressed findings vanish silently, not as baselined
        assert kept == [] and suppressed == 0

    def test_baseline_match_is_counted(self):
        d = diag()
        contexts = {d.location.path: _FakeContext(["", "", "x = 1"])}
        baseline = Baseline(entries={Baseline.fingerprint(d, "x = 1")})
        kept, suppressed = apply_waivers([d], contexts, baseline)
        assert kept == [] and suppressed == 1

    def test_unmatched_findings_are_kept_sorted(self):
        d1 = diag(line=9)
        d2 = diag(line=2)
        contexts = {}
        kept, suppressed = apply_waivers([d1, d2], contexts, None)
        assert [d.location.line for d in kept] == [2, 9]
        assert suppressed == 0

    def test_contextless_diagnostic_fingerprints_empty_line(self):
        d = diag()
        baseline = Baseline(entries={Baseline.fingerprint(d, "")})
        kept, suppressed = apply_waivers([d], {}, baseline)
        assert kept == [] and suppressed == 1
