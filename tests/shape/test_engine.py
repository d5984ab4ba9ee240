"""The shape engine: pragmas, baseline ratchet, parse failures, report."""

import json

from repro.diagnostics import Baseline
from repro.sanitize import selected
from repro.shape import SHAPE_FORMAT, analyze_paths

from tests.shape.conftest import DIRTY


def write_tree(tmp_path, name, source):
    target = tmp_path / "repro" / name
    target.parent.mkdir(exist_ok=True)
    target.write_text(source)
    return target


OBJECT_ARRAY = (
    "import numpy as np\n"
    "def tags(n):\n"
    "    return np.empty(n, dtype=object){pragma}\n"
)


class TestPragmas:
    def test_shape_pragma_suppresses_on_the_anchored_line(self, tmp_path):
        write_tree(
            tmp_path,
            "lib.py",
            OBJECT_ARRAY.format(
                pragma="  # sanitize: ok[shape] symbolic store"
            ),
        )
        report = analyze_paths([tmp_path])
        assert report.diagnostics == []

    def test_full_rule_id_pragma_suppresses(self, tmp_path):
        write_tree(
            tmp_path,
            "lib.py",
            OBJECT_ARRAY.format(
                pragma="  # sanitize: ok[shape/object-dtype-array]"
            ),
        )
        report = analyze_paths([tmp_path])
        assert report.diagnostics == []

    def test_unrelated_pragma_does_not_suppress(self, tmp_path):
        write_tree(
            tmp_path,
            "lib.py",
            OBJECT_ARRAY.format(pragma="  # sanitize: ok[determinism]"),
        )
        report = analyze_paths([tmp_path])
        assert [d.rule for d in report.diagnostics] == [
            "shape/object-dtype-array"
        ]


class TestSelect:
    def test_select_restricts_to_matching_rules(self):
        report = analyze_paths([DIRTY], select=("shape/implicit",))
        assert sorted({d.rule for d in report.diagnostics}) == [
            "shape/implicit-upcast",
        ]

    def test_empty_select_means_everything(self):
        assert selected("shape/anything", None)
        assert selected("shape/anything", ())


class TestBaseline:
    def test_baseline_suppresses_and_counts(self, tmp_path, dirty_report):
        pairs = []
        for diag in dirty_report.diagnostics:
            lines = open(diag.location.path).read().splitlines()
            pairs.append((diag, lines[diag.location.line - 1].strip()))
        doc = Baseline.document(pairs)
        target = tmp_path / "shape-baseline.json"
        Baseline().write(target, doc)
        report = analyze_paths([DIRTY], baseline=Baseline.load(target))
        assert report.diagnostics == []
        assert report.suppressed == len(dirty_report.diagnostics)
        assert report.exit_code == 0

    def test_new_findings_pierce_an_old_baseline(self, tmp_path):
        # baseline only the copy finding; the rest still fail
        full = analyze_paths([DIRTY])
        pairs = []
        for diag in full.diagnostics:
            if diag.rule != "shape/needless-copy":
                continue
            lines = open(diag.location.path).read().splitlines()
            pairs.append((diag, lines[diag.location.line - 1].strip()))
        target = tmp_path / "shape-baseline.json"
        Baseline().write(target, Baseline.document(pairs))
        report = analyze_paths([DIRTY], baseline=Baseline.load(target))
        assert report.exit_code == 1
        assert report.suppressed == 1
        assert "shape/needless-copy" not in {
            d.rule for d in report.diagnostics
        }


class TestParseFailures:
    def test_syntax_error_is_a_diagnostic_not_a_crash(self, tmp_path):
        write_tree(tmp_path, "bad.py", "def broken(:\n")
        write_tree(tmp_path, "good.py", OBJECT_ARRAY.format(pragma=""))
        report = analyze_paths([tmp_path])
        assert sorted(d.rule for d in report.diagnostics) == [
            "parse/syntax-error",
            "shape/object-dtype-array",
        ]
        # the parseable file still joined the program
        assert report.functions == 1


class TestReport:
    def test_json_document_shape(self, dirty_report):
        doc = dirty_report.to_json()
        assert doc["format"] == SHAPE_FORMAT
        assert doc["files"] == 6
        assert len(doc["diagnostics"]) == 7
        assert doc["arrays"] > 0
        assert "int64" in doc["dtypes"]
        json.dumps(doc)  # round-trippable

    def test_format_text_mentions_sizes_and_dtypes(self, dirty_report):
        text = dirty_report.format_text()
        assert "6 files" in text
        assert "7 errors" in text
        assert "int64:" in text
