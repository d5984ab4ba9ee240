"""The one analyzer pipeline behind all five families.

``repro sanitize --flow --perf --race --shape`` runs every family over
one parse and one call graph (:mod:`repro.sanitize.engine`).  These
tests pin what that must not change -- the findings and the report
bytes of the five separate analyses -- and what it must: one
``ast.parse`` per file, one ``Program.build``, one baseline file that a
partial ``--write-baseline`` cannot truncate.
"""

import ast
import hashlib
import json
import shutil
from pathlib import Path

import pytest

import repro.flow
import repro.perf
import repro.race
import repro.shape
from repro.cli import main
from repro.diagnostics import Baseline
from repro.flow.graph import Program
from repro.sanitize import FAMILIES, analyze, sanitize_paths

ROOT = Path(__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent

#: Every planted corpus: each family's dirty and clean trees, plus the
#: per-file sanitize snippets.
CORPORA = ["sanitize/corpus"] + [
    f"{family}/corpus/{kind}"
    for family in ("flow", "perf", "race", "shape")
    for kind in ("dirty", "clean")
]

#: SHA-256 of the combined gate's ``--json`` report (empty baseline,
#: run from the repository root), taken before the families shared one
#: engine: the merge must not move a byte.
COMBINED_JSON_SHA256 = {
    "tests/flow/corpus/dirty":
        "949e739f32723c3bd068d244047efb62f8a24249375613fad33a7efbf519976e",
    "tests/perf/corpus/dirty":
        "99d21d773111954b6c469925dc37576a6c58b48a3563a1d0c129de73b47b6517",
    "tests/race/corpus/dirty":
        "ca7c6811f7d561c1ea272378dedbf733029bfd98cc96cff9db6b9feb9e3a8e30",
    "tests/shape/corpus/dirty":
        "8ad91dbef03037a3697e9db67c0fca3ca9cea1d763cc81ce77ff6ce87debe66b",
}

ALL_FLAGS = ["--flow", "--perf", "--race", "--shape"]


def standalone_union(tree):
    """The five separate analyses, merged the way the gate reports."""
    diagnostics = list(sanitize_paths([tree]).diagnostics)
    for family in (repro.flow, repro.perf, repro.race, repro.shape):
        diagnostics.extend(
            d for d in family.analyze_paths([tree]).diagnostics
            # every family reports an unparseable file; the gate once
            if d.rule != "parse/syntax-error"
        )
    return sorted(diagnostics, key=lambda d: d.sort_key)


@pytest.mark.parametrize("corpus", CORPORA)
def test_combined_gate_equals_the_five_standalone_runs(corpus):
    tree = TESTS / corpus
    combined = analyze([tree], FAMILIES)
    assert combined.diagnostics == standalone_union(tree)


def test_combined_gate_parses_each_file_once_and_builds_once(
    monkeypatch, capsys
):
    parses, builds = [], []
    real_parse, real_build = ast.parse, Program.build.__func__

    def counting_parse(source, *args, **kwargs):
        parses.append(1)
        return real_parse(source, *args, **kwargs)

    def counting_build(cls, contexts):
        builds.append(1)
        return real_build(cls, contexts)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(Program, "build", classmethod(counting_build))
    tree = TESTS / "flow" / "corpus" / "dirty"
    assert main(["sanitize", str(tree), *ALL_FLAGS, "--json"]) == 1
    files = json.loads(capsys.readouterr().out)["files"]
    assert files == 10
    assert len(parses) == files
    assert len(builds) == 1


@pytest.mark.parametrize("corpus", sorted(COMBINED_JSON_SHA256))
def test_combined_json_report_is_byte_identical(
    corpus, tmp_path, monkeypatch, capsys
):
    empty = tmp_path / "empty.json"
    Baseline().write(empty, Baseline.document([]))
    monkeypatch.chdir(ROOT)
    main(["sanitize", *ALL_FLAGS, corpus, "--json", "--baseline", str(empty)])
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == COMBINED_JSON_SHA256[corpus]


def copy_tree(corpus, tmp_path):
    """A writable copy of a corpus with one unparseable file added."""
    tree = tmp_path / "tree"
    shutil.copytree(TESTS / corpus, tree)
    (tree / "broken.py").write_text("def broken(:\n    pass\n")
    return tree


@pytest.mark.parametrize(
    "flags,corpus",
    [
        ([], "flow/corpus/dirty"),
        (["--flow"], "flow/corpus/dirty"),
        (["--perf"], "perf/corpus/dirty"),
        (["--race"], "race/corpus/dirty"),
        (["--shape"], "shape/corpus/dirty"),
        (ALL_FLAGS, "flow/corpus/dirty"),
    ],
)
def test_default_baseline_round_trip(flags, corpus, tmp_path, monkeypatch,
                                     capsys):
    # written and read through the default file, as a developer would
    tree = copy_tree(corpus, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["sanitize", str(tree), *flags]) == 1
    assert main(["sanitize", str(tree), *flags, "--write-baseline"]) == 0
    assert (tmp_path / "analyzer-baseline.json").is_file()
    capsys.readouterr()
    assert main(["sanitize", str(tree), *flags]) == 0
    assert "0 errors" in capsys.readouterr().out


@pytest.mark.parametrize("family", ["flow", "perf", "race", "shape"])
def test_family_subcommand_round_trip(family, tmp_path, monkeypatch):
    tree = copy_tree(f"{family}/corpus/dirty", tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([family, str(tree), "--write-baseline"]) == 0
    assert main([family, str(tree)]) == 0


#: Entries of families and rules a perf ``--select perf/copy`` or a
#: ``repro flow`` write does not run; they must survive it verbatim.
FOREIGN = [
    {"rule": "determinism/wall-clock", "path": "repro/core/a.py",
     "content": "t = time.time()"},
    {"rule": "perf/append-accumulator", "path": "repro/core/b.py",
     "content": "out.append(x)"},
    {"rule": "race/blocking-call-in-async", "path": "repro/serve/c.py",
     "content": "time.sleep(1)"},
]

#: Entries of the rule that runs, for findings that no longer exist.
STALE = {
    "perf/copy": {"rule": "perf/copy-in-loop", "path": "repro/gone.py",
                  "content": "b = list(a)"},
    "flow": {"rule": "flow/dead-export", "path": "repro/gone.py",
             "content": "def unused():"},
}


def mixed_baseline(tmp_path, stale):
    target = tmp_path / "mixed.json"
    findings = sorted(FOREIGN + [stale],
                      key=lambda e: (e["path"], e["rule"], e["content"]))
    target.write_text(json.dumps({"version": 1, "findings": findings}))
    return target


@pytest.mark.parametrize(
    "argv,ran,corpus",
    [
        (["perf", "--select", "perf/copy"], "perf/copy", "perf"),
        (["flow"], "flow", "flow"),
    ],
)
def test_write_baseline_keeps_entries_of_rules_that_did_not_run(
    argv, ran, corpus, tmp_path, capsys
):
    target = mixed_baseline(tmp_path, STALE[ran])
    tree = TESTS / corpus / "corpus" / "dirty"
    assert main([*argv, str(tree), "--baseline", str(target),
                 "--write-baseline"]) == 0
    written = json.loads(target.read_text())["findings"]
    for entry in FOREIGN:
        assert entry in written
    assert STALE[ran] not in written
    fresh = [e for e in written if e not in FOREIGN]
    assert fresh and all(e["rule"].startswith(ran) for e in fresh)
    # the rewritten file is a complete ratchet for what ran
    capsys.readouterr()
    assert main([*argv, str(tree), "--baseline", str(target)]) == 0
