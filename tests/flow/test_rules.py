"""Each rule family: fires on the dirty corpus, silent on the clean one.

The dirty tree is built so every family has exactly one deliberate
defect (dead-export has two: an unreferenced definition and a stale
``__all__`` entry), each at a known file and line.  The clean tree uses
the same shapes done right -- required rng parameters, dual-inherited
errors caught at the boundary, handlers that do not mutate module
state -- so any finding there is a false positive.
"""

import pytest

from repro.flow import analyze_paths

from tests.flow.conftest import CLEAN


def by_rule(report, rule):
    return [d for d in report.diagnostics if d.rule == rule]


class TestDirtyCorpusFires:
    def test_exactly_the_planted_findings(self, dirty_report):
        assert sorted(d.rule for d in dirty_report.diagnostics) == [
            "flow/broad-except-swallow",
            "flow/dead-export",
            "flow/dead-export",
            "flow/foreign-exception-escape",
            "flow/fork-hostile-call",
            "flow/unseeded-rng-path",
        ]
        assert dirty_report.exit_code == 1

    def test_unseeded_rng_path(self, dirty_report):
        (diag,) = by_rule(dirty_report, "flow/unseeded-rng-path")
        assert diag.location.path.endswith("kernels.py")
        assert "repro.kernels.draw" in diag.message
        # the witness names the caller that omits the rng
        assert "repro.pipeline.run_pipeline -> repro.kernels.draw" in (
            diag.message
        )

    def test_foreign_exception_escape(self, dirty_report):
        (diag,) = by_rule(dirty_report, "flow/foreign-exception-escape")
        assert diag.location.path.endswith("pipeline.py")
        assert "ValueError" in diag.message
        assert "repro.cli.main -> repro.pipeline.run_pipeline" in (
            diag.message
        )

    def test_fork_hostile_call(self, dirty_report):
        (diag,) = by_rule(dirty_report, "flow/fork-hostile-call")
        assert diag.location.path.endswith("state.py")
        assert "COUNTER" in diag.message
        # rooted at the concrete override, not the abstract base
        assert "repro.farm.jobs.CountJob.execute" in diag.message

    def test_broad_except_swallow(self, dirty_report):
        (diag,) = by_rule(dirty_report, "flow/broad-except-swallow")
        assert diag.location.path.endswith("util.py")
        assert "repro.util.swallow" in diag.message

    def test_dead_export_definition_and_stale_all(self, dirty_report):
        dead = by_rule(dirty_report, "flow/dead-export")
        messages = sorted(d.message for d in dead)
        assert any("forgotten_helper" in m for m in messages)
        assert any("'missing'" in m for m in messages)
        assert all(d.location.path.endswith("dead.py") for d in dead)


class TestCleanCorpusSilent:
    def test_no_findings_at_all(self):
        report = analyze_paths([CLEAN])
        assert report.diagnostics == [], report.format_text()
        assert report.exit_code == 0

    def test_the_program_was_actually_built(self):
        report = analyze_paths([CLEAN])
        assert report.files == 10
        assert report.functions >= 9
        assert report.edges >= 10


class TestRuleScoping:
    @pytest.mark.parametrize(
        "select,expected",
        [
            (("flow/dead",), 2),
            (("flow/unseeded",), 1),
            (("flow/dead", "flow/broad"), 3),
        ],
    )
    def test_select_restricts_rule_families(self, select, expected):
        from tests.flow.conftest import DIRTY

        report = analyze_paths([DIRTY], select=select)
        assert len(report.diagnostics) == expected

    def test_cli_modules_exempt_from_broad_except(self, tmp_path):
        # a broad except inside repro/cli.py is the boundary's job
        target = tmp_path / "repro" / "cli.py"
        target.parent.mkdir()
        target.write_text(
            "def main():\n"
            "    try:\n"
            "        return work()\n"
            "    except Exception:\n"
            "        return 2\n"
            "def work():\n"
            "    return 0\n"
        )
        report = analyze_paths([tmp_path])
        assert by_rule(report, "flow/broad-except-swallow") == []

    def test_handler_that_uses_the_exception_is_not_a_swallow(
        self, tmp_path
    ):
        target = tmp_path / "repro" / "lib.py"
        target.parent.mkdir()
        target.write_text(
            "__all__ = ['guarded']\n"
            "def guarded(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception as exc:\n"
            "        return str(exc)\n"
        )
        report = analyze_paths([tmp_path])
        assert by_rule(report, "flow/broad-except-swallow") == []

    def test_seed_derived_default_rng_is_not_flagged(self, tmp_path):
        # default_rng(seed) with a non-constant argument is the blessed
        # pattern, even when rng may arrive None.
        target = tmp_path / "repro" / "lib.py"
        target.parent.mkdir()
        target.write_text(
            "import numpy as np\n"
            "__all__ = ['kernel']\n"
            "def kernel(seed, rng=None):\n"
            "    rng = rng if rng is not None else "
            "np.random.default_rng(seed)\n"
            "    return rng.integers(0, 4)\n"
        )
        report = analyze_paths([tmp_path])
        assert by_rule(report, "flow/unseeded-rng-path") == []
