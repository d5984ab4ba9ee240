"""The race engine: pragmas, baseline ratchet, parse failures, report."""

import json

from repro.diagnostics import Baseline
from repro.race import RACE_FORMAT, analyze_paths
from repro.sanitize import selected

from tests.race.conftest import DIRTY


def write_tree(tmp_path, name, source):
    target = tmp_path / "repro" / name
    target.parent.mkdir(exist_ok=True)
    target.write_text(source)
    return target


ASYNC_SLEEP = (
    "import time\n"
    "async def warm_up():\n"
    "    time.sleep(1){pragma}\n"
)


class TestPragmas:
    def test_race_pragma_suppresses_on_the_anchored_line(self, tmp_path):
        write_tree(
            tmp_path,
            "lib.py",
            ASYNC_SLEEP.format(pragma="  # sanitize: ok[race] startup"),
        )
        report = analyze_paths([tmp_path])
        assert report.diagnostics == []

    def test_unrelated_pragma_does_not_suppress(self, tmp_path):
        write_tree(
            tmp_path,
            "lib.py",
            ASYNC_SLEEP.format(pragma="  # sanitize: ok[determinism]"),
        )
        report = analyze_paths([tmp_path])
        assert [d.rule for d in report.diagnostics] == [
            "race/blocking-call-in-async"
        ]


class TestSelect:
    def test_select_restricts_to_matching_rules(self):
        report = analyze_paths([DIRTY], select=("race/fork",))
        assert sorted({d.rule for d in report.diagnostics}) == [
            "race/fork-after-thread",
            "race/fork-inherited-handle",
        ]

    def test_empty_select_means_everything(self):
        assert selected("race/anything", None)
        assert selected("race/anything", ())


class TestBaseline:
    def test_baseline_suppresses_and_counts(self, tmp_path, dirty_report):
        pairs = []
        for diag in dirty_report.diagnostics:
            lines = open(diag.location.path).read().splitlines()
            pairs.append((diag, lines[diag.location.line - 1].strip()))
        doc = Baseline.document(pairs)
        target = tmp_path / "race-baseline.json"
        Baseline().write(target, doc)
        report = analyze_paths([DIRTY], baseline=Baseline.load(target))
        assert report.diagnostics == []
        assert report.suppressed == len(dirty_report.diagnostics)
        assert report.exit_code == 0

    def test_new_findings_pierce_an_old_baseline(self, tmp_path):
        # baseline only the fork findings; the rest still fail
        full = analyze_paths([DIRTY])
        pairs = []
        for diag in full.diagnostics:
            if not diag.rule.startswith("race/fork"):
                continue
            lines = open(diag.location.path).read().splitlines()
            pairs.append((diag, lines[diag.location.line - 1].strip()))
        target = tmp_path / "race-baseline.json"
        Baseline().write(target, Baseline.document(pairs))
        report = analyze_paths([DIRTY], baseline=Baseline.load(target))
        assert report.exit_code == 1
        assert report.suppressed == 2
        assert sorted({d.rule for d in report.diagnostics}) == [
            "race/blocking-call-in-async",
            "race/blocking-in-signal-handler",
            "race/lock-held-across-await",
            "race/shared-state-unlocked",
            "race/unawaited-coroutine",
        ]


class TestParseFailures:
    def test_syntax_error_is_a_diagnostic_not_a_crash(self, tmp_path):
        write_tree(tmp_path, "bad.py", "async def broken(:\n")
        write_tree(
            tmp_path,
            "good.py",
            ASYNC_SLEEP.format(pragma=""),
        )
        report = analyze_paths([tmp_path])
        assert sorted(d.rule for d in report.diagnostics) == [
            "parse/syntax-error",
            "race/blocking-call-in-async",
        ]
        # the parseable file still joined the program
        assert report.functions == 1


class TestReport:
    def test_json_document_shape(self, dirty_report):
        doc = dirty_report.to_json()
        assert doc["format"] == RACE_FORMAT
        assert doc["files"] == 7
        assert len(doc["diagnostics"]) == 7
        assert set(doc["contexts"]) == {
            "async", "signal", "thread", "worker",
        }
        json.dumps(doc)  # round-trippable

    def test_format_text_mentions_sizes_and_contexts(self, dirty_report):
        text = dirty_report.format_text()
        assert "7 files" in text
        assert "7 errors" in text
        assert "async:" in text
