"""The benchmark's layer hooks still find every target they wrap.

``perfbench/tracing.py`` times each layer by wrapping a named function of
``repro`` at the attribute its caller looks up.  A renamed or moved
target is only reported as missing, and every per-layer metric that
depends on it then reads as unmeasured rather than failing, so a
refactor can silently blind the benchmark.  This test installs every
hook with a throwaway recorder and requires that none is missing.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_installs():
    tracing = _load_tracing()
    uninstall, missing = tracing.install(tracing.Recorder("hook-test-"))
    try:
        assert missing == []
    finally:
        uninstall()
