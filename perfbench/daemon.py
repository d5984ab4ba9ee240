"""Start ``repro serve`` with the layer hooks installed, for the traced run.

    PYTHONPATH=src python3 perfbench/daemon.py SPANS.jsonl [repro serve options]

Installs the same hooks as the benchmark's own process, runs the daemon
through ``repro.cli.main`` exactly as ``python -m repro serve`` would,
and writes the recorded spans to ``SPANS.jsonl`` once the daemon has
drained (SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracing


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    recorder = tracing.Recorder("d")
    tracing.install(recorder)
    try:
        return repro_main(["serve", *argv[1:]])
    finally:
        recorder.write(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
